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

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "MANIFEST_SCHEMA": "repro.obs.core",
    "ObsState": "repro.obs.core",
    "enabled": "repro.obs.core",
    "enable": "repro.obs.core",
    "disable": "repro.obs.core",
    "add": "repro.obs.core",
    "gauge": "repro.obs.core",
    "span": "repro.obs.core",
    "event": "repro.obs.core",
    "annotate": "repro.obs.core",
    "snapshot": "repro.obs.core",
    "merge_snapshot": "repro.obs.core",
    "capture": "repro.obs.core",
    "manifest_path_for": "repro.obs.core",
    "validate_manifest": "repro.obs.core",
    "TraceSummary": "repro.obs.report",
    "summarize_trace": "repro.obs.report",
    "render_summary": "repro.obs.report",
    "MetricDelta": "repro.obs.bench",
    "CompareReport": "repro.obs.bench",
    "load_artifact": "repro.obs.bench",
    "compare_artifacts": "repro.obs.bench",
    "compare_many": "repro.obs.bench",
    "render_report": "repro.obs.bench",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
