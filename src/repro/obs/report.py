"""Trace summarization: turn a JSONL trace into human-readable analytics.

``repro obs report TRACE.jsonl`` is the read side of the tracing layer: it
ranks the spans of the ``manifest`` event's merged timings (count,
cumulative and max duration, share of the run's wall clock), lists its
counter and gauge totals (falling back to folding the per-job snapshots for
a truncated trace), and derives throughput figures such as configs/sec for
sweep runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.core import ObsState

__all__ = ["TraceSummary", "summarize_trace", "render_summary"]


@dataclass
class TraceSummary:
    """Aggregated view of one JSONL trace."""

    path: str
    events: int = 0
    duration_s: Optional[float] = None
    argv: List[str] = field(default_factory=list)
    #: span name -> {"count", "total_s", "max_s"}
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    truncated: bool = False

    def top_spans(self, limit: int = 10) -> List[tuple]:
        """Spans ranked by cumulative time: ``(name, count, total_s, max_s)``."""
        ranked = sorted(self.spans.items(), key=lambda kv: -kv[1]["total_s"])
        return [
            (name, int(v["count"]), v["total_s"], v["max_s"])
            for name, v in ranked[:limit]
        ]

    @property
    def configs_per_sec(self) -> Optional[float]:
        """Sweep throughput, when the trace carries the sweep counters."""
        resolved = self.counters.get("sweeps.configs_resolved")
        if not resolved or not self.duration_s:
            return None
        return resolved / self.duration_s


def summarize_trace(path: Union[str, Path]) -> TraceSummary:
    """Parse one JSONL trace file into a :class:`TraceSummary`.

    Spans, counters and gauges come from the ``manifest`` event, which holds
    the session's merged aggregates, worker jobs included.  Unparseable lines
    are tolerated (a crashed run can leave a torn final line); a trace
    without a ``manifest`` event is folded from its ``job`` snapshots alone
    and marked ``truncated``.
    """
    path = Path(path)
    summary = TraceSummary(path=str(path))
    jobs = ObsState(None)
    manifest: Optional[dict] = None
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                summary.truncated = True
                continue
            summary.events += 1
            kind = event.get("type")
            if kind == "begin":
                summary.argv = list(event.get("argv", []))
            elif kind == "job":
                jobs.merge(event)
            elif kind == "manifest":
                manifest = event
    if manifest is None:
        summary.truncated = True
        summary.counters = jobs.counters
        summary.gauges = jobs.gauges
        summary.spans = {
            name: {"count": count, "total_s": total, "max_s": peak}
            for name, (count, total, peak) in jobs.timings.items()
        }
        return summary
    summary.duration_s = float(manifest.get("duration_s", 0.0))
    summary.counters = {k: int(v) for k, v in manifest.get("counters", {}).items()}
    summary.gauges = {k: float(v) for k, v in manifest.get("gauges", {}).items()}
    summary.spans = dict(manifest.get("timings", {}))
    if not summary.argv:
        summary.argv = list(manifest.get("argv", []))
    return summary


def render_summary(summary: TraceSummary, *, top: int = 10) -> str:
    """Format a :class:`TraceSummary` as the ``repro obs report`` output."""
    from repro.reporting.tables import TextTable

    lines = [f"trace   : {summary.path}"]
    if summary.argv:
        lines.append(f"command : {' '.join(summary.argv)}")
    lines.append(f"events  : {summary.events}")
    if summary.duration_s is not None:
        lines.append(f"duration: {summary.duration_s:.3f}s")
    rate = summary.configs_per_sec
    if rate is not None:
        lines.append(f"sweep   : {rate:,.2f} configs/sec")
    if summary.truncated:
        lines.append("WARNING : trace has no manifest event (truncated run?)")

    if summary.spans:
        wall = summary.duration_s
        table = TextTable(["span", "count", "total s", "max s", "share"])
        for name, count, total_s, max_s in summary.top_spans(top):
            share = f"{100.0 * total_s / wall:.1f}%" if wall else "-"
            table.add_row([name, count, f"{total_s:.4f}", f"{max_s:.4f}", share])
        lines += ["", "top spans by cumulative time:", table.render()]

    if summary.counters:
        table = TextTable(["counter", "total"])
        for name in sorted(summary.counters):
            table.add_row([name, summary.counters[name]])
        lines += ["", "counter totals:", table.render()]

    if summary.gauges:
        table = TextTable(["gauge (scheduling-dependent)", "total"])
        for name in sorted(summary.gauges):
            value = summary.gauges[name]
            table.add_row([name, f"{value:g}"])
        lines += ["", "gauge totals:", table.render()]
    return "\n".join(lines)
