"""Outside-in tracing: spans around the program's public entry points.

The traced run wraps public functions — class methods and module attributes
— for the duration of the run only, and restores the originals afterwards;
nothing under ``src/`` knows it is being traced.  A wrapped module-level
function is replaced in *every* loaded ``repro`` module that holds it, so a
``from x import f`` taken at import time is traced too, while a lazy import
inside a function body picks the wrapper up at call time.

Each span records its name, layer, start, end and parent.  There is one
span stack for the whole process, not one per thread: the traced service
run has exactly one request in flight (a closed loop with one client), so
the server thread's spans nest under the client's open ``query_raw`` span,
which is the causal parent.  A span's *self time* is its duration minus the
part of it covered by its child spans; over a traced window, the self times
of all spans plus ``unattributed`` (time under no span) equal the window.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layers reported, in report order (named after the repo's modules).
LAYERS = (
    "core",
    "combinatorics",
    "workloads",
    "engine",
    "store",
    "sweeps",
    "experiments",
    "channel",
    "service",
    "adversary",
)

#: Experiments whose render time is reported one by one.
EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 12))


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "info", "children")

    def __init__(self, name: str, layer: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.info: Dict[str, float] = {}
        self.children: List[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        return self.duration - _covered(self.children, self.start, self.end)

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


def _covered(spans: Sequence[Span], lo: float, hi: float) -> float:
    """Length of the union of ``spans`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for span in sorted(spans, key=lambda s: s.start):
        start, end = max(span.start, cursor), min(span.end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Tracer:
    """Collects spans from wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.window: Tuple[float, float] = (0.0, 0.0)

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, time.perf_counter(), parent)
            if parent is not None:
                parent.children.append(span)
            self._stack.append(span)
            self.spans.append(span)
            return span

    def _close(self, span: Span) -> None:
        with self._lock:
            span.end = time.perf_counter()
            if span in self._stack:
                self._stack.remove(span)

    def wrap(self, fn: Callable, name: str, layer: str, observe: Optional[Callable] = None):
        """``fn`` wrapped in a span; ``observe(span, result, args)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(span, result, args)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`restore`; owner is a class, module or instance."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        _assign(owner, attr, value)

    def patch_function(self, module_name: str, attr: str, name: str, layer: str, observe=None) -> None:
        """Wrap a module-level function everywhere a loaded module holds it."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(original, name, layer, observe)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, key, traced)

    def patch_method(self, cls: type, attr: str, name: str, layer: str, observe=None) -> None:
        self.patch(cls, attr, self.wrap(vars(cls)[attr], name, layer, observe))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            _assign(owner, attr, value)
        self._patches.clear()

    # -- the traced window ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        install(self)
        self.window = (time.perf_counter(), 0.0)
        return self

    def __exit__(self, *exc) -> None:
        self.window = (self.window[0], time.perf_counter())
        self.restore()


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:  # a module, or a frozen dataclass instance (the experiment definitions)
        object.__setattr__(owner, attr, value)


# -- what gets wrapped -------------------------------------------------------


def _count_patterns(span: Span, result, args) -> None:
    span.info["patterns"] = float(len(result))


def _count_batch(span: Span, result, args) -> None:
    span.info["patterns"] = float(len(result.solved))
    span.info["solved"] = float(result.solved.sum())
    span.info["slots"] = float(result.slots_examined.sum())


def _count_bytes(span: Span, result, args) -> None:
    try:
        span.info["bytes"] = float(os.path.getsize(result))
    except OSError:  # replaced or removed since; the count is best effort
        pass


def _count_hit(span: Span, result, args) -> None:
    span.info["hit"] = 1.0 if result[1] else 0.0


def _count_adversary_slots(span: Span, result, args) -> None:
    span.info["slots"] = float(sum(result.latencies))


def _count_sim_slots(span: Span, result, args) -> None:
    span.info["slots"] = float(result.slots_examined)


def _count_steps(span: Span, result, args) -> None:
    span.info["steps"] = float(result.steps)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the loaded program."""
    from repro.channel.adversary import AdaptiveLowerBoundAdversary
    from repro.channel.simulator import Simulator
    from repro.engine.campaign import Campaign
    from repro.experiments.cache import FamilyCache
    from repro.experiments.campaign import PaperCampaign
    from repro.experiments.registry import DEFINITIONS
    from repro.service.client import ServiceClient
    from repro.service.daemon import ResultsService
    from repro.sweeps.runner import SweepRunner
    from repro.sweeps.store import SweepStore
    from repro.workloads.suite import WorkloadSuite

    fn = tracer.patch_function
    method = tracer.patch_method
    fn("repro.sweeps.protocols", "build_protocol", "core.build", "core")
    method(FamilyCache, "concatenation", "combinatorics.family", "combinatorics")
    method(WorkloadSuite, "generate", "workloads.draw", "workloads", _count_patterns)
    method(Campaign, "run", "engine.campaign", "engine", _count_batch)
    fn("repro.engine.batch", "run_batch", "engine.run_batch", "engine", _count_batch)
    method(SweepStore, "save", "store.save", "store", _count_bytes)
    method(SweepStore, "save_blob", "store.save_blob", "store", _count_bytes)
    method(SweepStore, "load", "store.load", "store")
    method(SweepStore, "load_blob", "store.load_blob", "store")
    method(SweepRunner, "run", "sweeps.run", "sweeps")
    fn("repro.sweeps.runner", "map_jobs", "sweeps.map_jobs", "sweeps")
    fn("repro.sweeps.runner", "resolve_config", "sweeps.resolve_config", "sweeps")
    method(PaperCampaign, "run", "experiments.campaign", "experiments")
    method(PaperCampaign, "plan", "experiments.plan", "experiments")
    fn("repro.experiments.campaign", "resolve_specs", "experiments.resolve", "experiments")
    for experiment_id, definition in DEFINITIONS.items():
        traced = tracer.wrap(definition.render, f"experiments.render.{experiment_id}", "experiments")
        tracer.patch(definition, "render", traced)
    method(AdaptiveLowerBoundAdversary, "run", "channel.adversary", "channel", _count_adversary_slots)
    method(Simulator, "run", "channel.sim", "channel", _count_sim_slots)
    fn("repro.service.api", "normalize_query", "service.normalize", "service")
    fn("repro.service.api", "render_response", "service.render", "service")
    method(ResultsService, "resolve", "service.resolve", "service", _count_hit)
    method(ServiceClient, "query_raw", "service.query_raw", "service")
    fn("repro.adversary.search", "adversarial_search", "adversary.search", "adversary", _count_steps)


# -- from spans to per-layer metrics -----------------------------------------


def _outermost(spans: Sequence[Span], layer: str) -> List[Span]:
    """Spans of ``layer`` with no ancestor of the same layer (no double counts)."""
    return [s for s in spans if s.layer == layer and all(a.layer != layer for a in s.ancestors())]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer self times and counts of one traced window.

    ``trace.total_s`` is the window; ``unattributed_s`` is the part of it no
    span covers, so the ``<layer>.self_s`` values plus ``unattributed_s``
    sum to ``trace.total_s`` exactly.
    """
    spans = tracer.spans
    total = tracer.window[1] - tracer.window[0]
    by_name: Dict[str, float] = {}
    by_layer: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        own = span.self_time()
        by_name[span.name] = by_name.get(span.name, 0.0) + own
        by_layer[span.layer] = by_layer.get(span.layer, 0.0) + own

    def named(prefix: str) -> List[Span]:
        return [s for s in spans if s.name == prefix]

    def info(items: Sequence[Span], key: str) -> float:
        return float(sum(s.info.get(key, 0.0) for s in items))

    engine = _outermost(spans, "engine")
    engine_patterns = info(engine, "patterns")
    saves = named("store.save") + named("store.save_blob")
    loads = named("store.load") + named("store.load_blob")
    resolves = named("service.resolve")
    hits = [s for s in resolves if s.info.get("hit")]
    # Hit latency seen by the client minus the server-side resolve under it.
    http_ms = [
        (query.duration - resolve.duration) * 1e3
        for resolve in hits
        for query in resolve.ancestors()
        if query.name == "service.query_raw"
    ]
    searches = named("adversary.search")
    checkpoints = [s for s in named("store.save_blob") if any(a.name == "adversary.search" for a in s.ancestors())]

    metrics: Dict[str, float] = {
        "trace.total_s": total,
        "unattributed_s": total - sum(by_layer.values()),
        "core.build_self_s": by_name.get("core.build", 0.0),
        "core.builds": float(len(_outermost(spans, "core"))),
        "core.family_build_s": by_layer["combinatorics"],
        "core.family_builds": float(len(named("combinatorics.family"))),
        "workloads.draw_self_s": by_layer["workloads"],
        "workloads.patterns": info(_outermost(spans, "workloads"), "patterns"),
        "engine.scan_s": by_layer["engine"],
        "engine.patterns": engine_patterns,
        "engine.slots": info(engine, "slots"),
        "engine.solved_frac": info(engine, "solved") / engine_patterns if engine_patterns else 0.0,
        "store.save_s": sum(s.self_time() for s in saves),
        "store.saves": float(len(saves)),
        "store.bytes_written": info(saves, "bytes"),
        "store.load_s": sum(s.self_time() for s in loads),
        "store.loads": float(len(loads)),
        "experiments.plan_s": by_name.get("experiments.plan", 0.0),
        "channel.sim_s": by_layer["channel"],
        "channel.slots": info(_outermost(spans, "channel"), "slots"),
        "service.normalize_s": by_name.get("service.normalize", 0.0),
        "service.render_s": by_name.get("service.render", 0.0),
        "service.resolve_hit_ms": _median([s.duration * 1e3 for s in hits]),
        "service.http_ms": _median(http_ms),
        "service.hits": float(len(hits)),
        "service.misses": float(len(resolves) - len(hits)),
        "adversary.self_s": by_layer["adversary"],
        "adversary.steps": info(searches, "steps"),
        "adversary.checkpoint_s": sum(s.self_time() for s in checkpoints),
    }
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"experiments.render_s.{experiment_id}"] = by_name.get(
            f"experiments.render.{experiment_id}", 0.0
        )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = by_layer[layer]
    return metrics


def _median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
