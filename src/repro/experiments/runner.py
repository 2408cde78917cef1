"""The common result container for experiments.

An experiment produces an :class:`ExperimentResult`: the raw per-configuration
rows (flat dictionaries suitable for CSV export), the rendered tables and
figures of its ``repro paper report`` section, and the bound certificates that
encode the pass/fail verdicts.  :data:`PAPER_CLAIMS` quotes the paper-side
statement each report section opens with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.certificates import BoundCertificate

__all__ = ["PAPER_CLAIMS", "ExperimentResult"]

#: Paper-side statement for each experiment, quoted in its report section.
PAPER_CLAIMS: Dict[str, str] = {
    "E1": "Section 3: wakeup_with_s solves wake-up in Θ(k log(n/k) + 1) rounds when s is known.",
    "E2": "Section 4: wakeup_with_k solves wake-up in Θ(k log(n/k) + 1) rounds when k is known.",
    "E3": "Theorem 5.3: wakeup(n) solves wake-up in O(k log n log log n) rounds with no knowledge.",
    "E4": "Theorem 2.1: every algorithm needs min{k, n-k+1} rounds, even with simultaneous start.",
    "E5": "Scenario C pays at most an O(log log n) factor over the Ω(k log(n/k)) lower bound.",
    "E6": "Section 6: RPD achieves expected O(log n) (O(log k) with known k); Ω(log k) is necessary.",
    "E7": "Figures 1-2: stations traverse matrix rows and align on columns as prescribed.",
    "E8": "Selective families of length O(k log(n/k)) exist (Komlós-Greenberg); explicit ones are longer.",
    "E9": "Motivation: time-division (TDMA) is inefficient for k << n; feedback-based baselines need a stronger channel.",
    "E10": "Design choices: window waiting, the constant c, the wait_and_go rule and interleaving all matter.",
    "E11": "Conclusions (open question): does the global clock help? (extension experiment, not a paper claim)",
}


@dataclass
class ExperimentResult:
    """Everything an experiment produced.

    Attributes
    ----------
    experiment:
        Identifier (``"E1"`` ... ``"E10"``).
    title:
        Human-readable title (the heading of the experiment's report section).
    scale:
        Name of the :class:`~repro.experiments.config.ExperimentScale` used.
    rows:
        Flat per-configuration dictionaries (exported to CSV by the harness).
    tables:
        Rendered text tables keyed by a short name.
    figures:
        Rendered ASCII figures keyed by a short name.
    certificates:
        Bound certificates produced by the experiment.
    notes:
        Free-form remarks (e.g. which substitutions were exercised).
    """

    experiment: str
    title: str
    scale: str
    rows: List[Dict] = field(default_factory=list)
    tables: Dict[str, str] = field(default_factory=dict)
    figures: Dict[str, str] = field(default_factory=dict)
    certificates: List[BoundCertificate] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def all_certificates_hold(self) -> bool:
        """True iff every certificate attached to the experiment holds."""
        return all(cert.holds for cert in self.certificates)

    def summary(self) -> str:
        """The experiment's Markdown section of ``repro paper report``.

        Heading, paper claim, scale, certificates, notes, then every table and
        figure in a fenced block.  The text ends with one newline; the
        campaign report joins the sections with a blank line between them.
        """
        lines = [f"## {self.experiment} — {self.title}", ""]
        claim = PAPER_CLAIMS.get(self.experiment)
        if claim:
            lines += [f"**Paper claim.** {claim}", ""]
        lines += [f"**Scale.** `{self.scale}`", ""]
        if self.certificates:
            lines += ["**Certificates.**", ""]
            lines += [f"- {cert.describe()}" for cert in self.certificates]
            lines.append("")
        if self.notes:
            lines += ["**Notes.**", ""]
            lines += [f"- {note}" for note in self.notes]
            lines.append("")
        for name, block in [*self.tables.items(), *self.figures.items()]:
            lines += [f"### {name}", "", "```text", block, "```", ""]
        return "\n".join(lines)
