"""The common result container for experiments.

An experiment produces an :class:`ExperimentResult`: the raw per-configuration
rows (flat dictionaries suitable for CSV export), the rendered tables and
figures of its ``repro paper report`` section, and the bound certificates that
encode the pass/fail verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.certificates import BoundCertificate

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Everything an experiment produced.

    Attributes
    ----------
    experiment:
        Identifier (``"E1"`` ... ``"E11"``).
    title:
        Human-readable title (the heading of the experiment's report section).
    scale:
        Name of the :class:`~repro.experiments.config.ExperimentScale` used.
    paper_claim:
        The paper-side statement the report section quotes (none if empty).
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
    paper_claim: str = ""
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
        if self.paper_claim:
            lines += [f"**Paper claim.** {self.paper_claim}", ""]
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
