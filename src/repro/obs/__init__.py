"""Observability layer: structured tracing, metrics and bench analytics.

``repro.obs`` is the instrumentation spine of the execution stack — a
dependency-free layer the engine, campaign, cache and sweep code call
unconditionally, that compiles to near-zero-cost no-ops until a session is
enabled (CLI ``--trace PATH``, the ``REPRO_OBS`` environment variable, or
:func:`enable` from Python):

>>> from repro import obs
>>> with obs.span("engine.chunk_scan"):
...     obs.add("engine.chunks")          # counters: scheduling-invariant
...     obs.gauge("family_cache.misses")  # gauges: scheduling-dependent
>>> obs.enabled()
False

Three public surfaces:

* **collection** (:mod:`repro.obs.core`) — nestable timing spans, named
  counters and gauges, a JSONL event sink, an end-of-run manifest, and the
  :func:`capture`/:func:`merge_snapshot` pair that aggregates worker-process
  measurements back into the parent (see :class:`repro.sweeps.runner.WorkerPool`);
* **trace analytics** (:mod:`repro.obs.report`) — summarize a JSONL trace:
  top spans by cumulative time, counter totals, configs/sec;
* **bench-trajectory analytics** (:mod:`repro.obs.bench`) — diff
  ``BENCH_results.json`` artifacts across runs or git revisions and flag
  drifts that stay above the hard CI gates.

The CLI front ends are ``repro obs report TRACE.jsonl`` and ``repro bench
compare A B --tolerance 0.25`` (see :mod:`repro.cli`); the span/counter
catalog and trace/manifest formats are documented in
``docs/observability.md``.
"""

from repro.obs.bench import (
    CompareReport,
    MetricDelta,
    compare_artifacts,
    compare_many,
    load_artifact,
    render_report,
)
from repro.obs.core import (
    MANIFEST_SCHEMA,
    ObsState,
    add,
    annotate,
    capture,
    disable,
    enable,
    enabled,
    event,
    gauge,
    manifest_path_for,
    merge_snapshot,
    snapshot,
    span,
    validate_manifest,
    _enable_from_env,
)
from repro.obs.report import TraceSummary, render_summary, summarize_trace

__all__ = [
    "MANIFEST_SCHEMA",
    "ObsState",
    "enabled",
    "enable",
    "disable",
    "add",
    "gauge",
    "span",
    "event",
    "annotate",
    "snapshot",
    "merge_snapshot",
    "capture",
    "manifest_path_for",
    "validate_manifest",
    "TraceSummary",
    "summarize_trace",
    "render_summary",
    "MetricDelta",
    "CompareReport",
    "load_artifact",
    "compare_artifacts",
    "compare_many",
    "render_report",
]

# Honor REPRO_OBS the moment the library is imported, so any entry point
# (CLI, pytest, a user script) can be traced without code changes.
_enable_from_env()
