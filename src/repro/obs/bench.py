"""Benchmark-trajectory analytics: diff ``BENCH_results.json`` artifacts.

Every throughput gate records its measured speedups and rates into
``BENCH_results.json`` (see ``benchmarks/conftest.py``).  The hard CI gates
only catch catastrophic regressions — a batch engine that slid from 80x to
15x still clears a ``>= 10x`` gate.  This module closes that loop: load two
or more artifacts (from paths or git revisions), align their gates and
measurements, and flag any metric that drifted beyond a tolerance, even when
it stays above the hard gate.

Comparison semantics
--------------------

Measurements are matched by their *identity* — the string-valued entries of
the measurement dict (``protocol``, ``config``, ``grid``...) — so reordering
measurements or adding new ones never misaligns the diff.  Only curated
metric keys are compared: the higher-is-better rates and speedups the gates
assert, plus lower-is-better counts and per-spec/per-query time budgets.
Volatile absolute quantities the gates record for context (raw seconds,
tiny overhead fractions) are deliberately *not* compared; a metric with a
near-zero baseline is skipped rather than divided by.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MetricDelta",
    "CompareReport",
    "load_artifact",
    "compare_artifacts",
    "compare_many",
    "render_report",
    "DEFAULT_TOLERANCE",
    "HIGHER_IS_BETTER",
    "LOWER_IS_BETTER",
]

#: Default relative drift that flags a regression (25%).
DEFAULT_TOLERANCE = 0.25

#: Metric keys where a *drop* beyond tolerance is a regression.
HIGHER_IS_BETTER = frozenset(
    {
        "speedup",
        "speedup_over_generic",
        "batch_rate",
        "loop_rate",
        "parallel_rate",
        "serial_rate",
        "patterns_per_sec",
        "configs_per_sec",
        "rate",
    }
)

#: Metric keys where a *rise* beyond tolerance is a regression: event
#: counts, and the per-unit wall-time budgets of the store, service,
#: workload-draw and matrix-scan gates (cold and warm milliseconds per
#: campaign spec or per query, milliseconds per warm hit over HTTP,
#: microseconds per drawn or scanned pattern).
LOWER_IS_BETTER = frozenset(
    {
        "trace_events",
        "events",
        "cold_ms_per_spec",
        "warm_ms_per_spec",
        "cold_ms_per_query",
        "warm_ms_per_query",
        "http_ms_per_hit",
        "draw_us_per_pattern",
        "us_per_pattern",
    }
)

#: Baselines below this magnitude are skipped instead of divided by.
_MIN_BASELINE = 1e-9

#: Default artifact filename when a git revision is given without a path.
_DEFAULT_ARTIFACT = "BENCH_results.json"


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric of one aligned measurement."""

    gate: str
    label: str
    metric: str
    baseline: float
    current: float

    @property
    def change(self) -> float:
        """Relative change, signed; positive means the value went up."""
        return (self.current - self.baseline) / self.baseline

    def regressed(self, tolerance: float) -> bool:
        """Did this metric drift beyond ``tolerance`` in the bad direction?"""
        if self.metric in LOWER_IS_BETTER:
            return self.current > self.baseline * (1.0 + tolerance)
        return self.current < self.baseline * (1.0 - tolerance)

    def as_dict(self) -> dict:
        """JSON-ready view (``repro bench compare --json``)."""
        return {
            "gate": self.gate,
            "measurement": self.label,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "change": self.change,
        }


@dataclass(frozen=True)
class CompareReport:
    """The aligned diff of one artifact pair."""

    baseline_label: str
    current_label: str
    tolerance: float
    deltas: Tuple[MetricDelta, ...]
    #: Gates present in only one artifact (skipped, reported for visibility).
    missing_in_current: Tuple[str, ...]
    missing_in_baseline: Tuple[str, ...]
    #: Measurements of a shared gate whose identity matched no row on the
    #: other side, as ``"gate: label"`` (skipped, reported for visibility).
    rows_missing_in_current: Tuple[str, ...]
    rows_missing_in_baseline: Tuple[str, ...]

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed(self.tolerance)]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict:
        """JSON-ready view of the whole report (``bench compare --json``)."""
        return {
            "baseline": self.baseline_label,
            "current": self.current_label,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "missing_in_current": list(self.missing_in_current),
            "missing_in_baseline": list(self.missing_in_baseline),
            "rows_missing_in_current": list(self.rows_missing_in_current),
            "rows_missing_in_baseline": list(self.rows_missing_in_baseline),
            "deltas": [
                {**delta.as_dict(), "regressed": delta.regressed(self.tolerance)}
                for delta in self.deltas
            ],
        }


def load_artifact(source: str, *, cwd: Optional[Path] = None) -> Tuple[str, dict]:
    """Load one artifact from a path or a git revision.

    ``source`` forms, tried in order:

    * an existing file path → read directly;
    * ``REV:PATH`` → ``git show REV:PATH`` (the artifact as committed at a
      revision);
    * ``REV`` → ``git show REV:BENCH_results.json``.

    Returns ``(label, data)``; raises :class:`ValueError` when the source
    cannot be read or parsed.
    """
    path = Path(source)
    if path.is_file():
        try:
            return source, _validate(json.loads(path.read_text()), source)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}: not valid JSON ({exc})") from exc
    if ":" in source:
        rev, _, rel = source.partition(":")
        spec = f"{rev}:{rel or _DEFAULT_ARTIFACT}"
    else:
        spec = f"{source}:{_DEFAULT_ARTIFACT}"
    try:
        proc = subprocess.run(
            ["git", "show", spec],
            capture_output=True,
            text=True,
            cwd=None if cwd is None else str(cwd),
        )
    except OSError as exc:
        raise ValueError(f"{source}: cannot invoke git ({exc})") from exc
    if proc.returncode != 0:
        raise ValueError(
            f"{source}: not a file and `git show {spec}` failed: "
            f"{proc.stderr.strip() or 'unknown git error'}"
        )
    try:
        return spec, _validate(json.loads(proc.stdout), spec)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{spec}: not valid JSON ({exc})") from exc


def _validate(data: dict, label: str) -> dict:
    if not isinstance(data, dict) or not isinstance(data.get("gates"), dict):
        raise ValueError(f"{label}: not a BENCH_results artifact (no 'gates' mapping)")
    return data


def _identity(measurement: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """The alignment key of one measurement: its string-valued entries."""
    return tuple(
        sorted((k, v) for k, v in measurement.items() if isinstance(v, str))
    )


def _label(identity: Tuple[Tuple[str, str], ...], gate: str) -> str:
    """Human-readable name of one measurement (its identity values)."""
    return " ".join(v for _, v in identity) or gate


def compare_artifacts(
    baseline: Tuple[str, dict],
    current: Tuple[str, dict],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CompareReport:
    """Align two artifacts gate by gate and diff every curated metric.

    Gates (or measurements) present in only one artifact are skipped and
    listed on the report — a new gate must not fail the comparison, and a
    *removed* gate must stay visible rather than silently vanishing from
    the trajectory.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    base_label, base_data = baseline
    cur_label, cur_data = current
    base_gates: Dict[str, dict] = base_data["gates"]
    cur_gates: Dict[str, dict] = cur_data["gates"]

    deltas: List[MetricDelta] = []
    rows_missing_in_current: List[str] = []
    rows_missing_in_baseline: List[str] = []
    comparable = HIGHER_IS_BETTER | LOWER_IS_BETTER
    for gate in sorted(set(base_gates) & set(cur_gates)):
        base_rows = {
            _identity(m): m for m in base_gates[gate].get("measurements", [])
        }
        cur_rows = {_identity(m): m for m in cur_gates[gate].get("measurements", [])}
        rows_missing_in_current += [
            f"{gate}: {_label(identity, gate)}"
            for identity in sorted(set(base_rows) - set(cur_rows))
        ]
        rows_missing_in_baseline += [
            f"{gate}: {_label(identity, gate)}"
            for identity in sorted(set(cur_rows) - set(base_rows))
        ]
        for identity in sorted(set(base_rows) & set(cur_rows)):
            base_row, cur_row = base_rows[identity], cur_rows[identity]
            label = _label(identity, gate)
            for metric in sorted(comparable & set(base_row) & set(cur_row)):
                b, c = base_row[metric], cur_row[metric]
                if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
                    continue
                if abs(float(b)) < _MIN_BASELINE:
                    continue
                deltas.append(
                    MetricDelta(
                        gate=gate,
                        label=label,
                        metric=metric,
                        baseline=float(b),
                        current=float(c),
                    )
                )
    return CompareReport(
        baseline_label=base_label,
        current_label=cur_label,
        tolerance=tolerance,
        deltas=tuple(deltas),
        missing_in_current=tuple(sorted(set(base_gates) - set(cur_gates))),
        missing_in_baseline=tuple(sorted(set(cur_gates) - set(base_gates))),
        rows_missing_in_current=tuple(rows_missing_in_current),
        rows_missing_in_baseline=tuple(rows_missing_in_baseline),
    )


def render_report(report: CompareReport) -> str:
    """Format one :class:`CompareReport` as the ``repro bench compare`` output."""
    from repro.reporting.tables import TextTable

    lines = [
        f"baseline : {report.baseline_label}",
        f"current  : {report.current_label}",
        f"tolerance: {report.tolerance:.0%}",
    ]
    if report.missing_in_current:
        lines.append(
            "skipped (gate only in baseline): " + ", ".join(report.missing_in_current)
        )
    if report.missing_in_baseline:
        lines.append(
            "skipped (gate only in current): " + ", ".join(report.missing_in_baseline)
        )
    for row in report.rows_missing_in_current:
        lines.append(f"skipped (measurement only in baseline): {row}")
    for row in report.rows_missing_in_baseline:
        lines.append(f"skipped (measurement only in current): {row}")
    if report.deltas:
        table = TextTable(
            ["gate", "measurement", "metric", "baseline", "current", "change", ""]
        )
        for delta in report.deltas:
            table.add_row(
                [
                    delta.gate,
                    delta.label,
                    delta.metric,
                    f"{delta.baseline:g}",
                    f"{delta.current:g}",
                    f"{delta.change:+.1%}",
                    "REGRESSED" if delta.regressed(report.tolerance) else "ok",
                ]
            )
        lines += ["", table.render()]
    else:
        lines.append("no comparable measurements aligned")
    count = len(report.regressions)
    lines.append(
        "OK: no metric drifted beyond tolerance"
        if report.ok
        else f"REGRESSED: {count} metric(s) drifted beyond tolerance"
    )
    return "\n".join(lines)


def compare_many(
    sources: Sequence[str],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    cwd: Optional[Path] = None,
) -> List[CompareReport]:
    """Compare every later artifact against the first (the baseline)."""
    if len(sources) < 2:
        raise ValueError("bench compare needs at least two artifacts")
    loaded = [load_artifact(source, cwd=cwd) for source in sources]
    baseline = loaded[0]
    return [
        compare_artifacts(baseline, current, tolerance=tolerance)
        for current in loaded[1:]
    ]
