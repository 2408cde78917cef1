"""The instrumentation core: spans, counters, gauges, sink, manifest.

One module-level state object (or ``None`` when observability is disabled)
drives everything.  The design constraint is the disabled path: the engine's
hot loops call :func:`add` and :func:`span` unconditionally, so both must
collapse to a single global load and an ``is None`` test — no allocation, no
branching on configuration, no sink probing.  Everything else (JSONL events,
timing aggregation, thread locking) happens only when a state is installed.

Three kinds of measurements, with different determinism guarantees:

* **counters** (:func:`add`) — integer event counts that depend only on the
  work performed: patterns resolved, slots scanned, chunks emitted, configs
  resolved vs. reused.  Counter totals are *scheduling invariant*: a sweep
  merged across 4 worker processes reports bit-identical totals to the same
  sweep run serially (``tests/obs`` holds this).
* **gauges** (:func:`gauge`) — additive tallies that legitimately depend on
  scheduling: per-process cache hits/misses, per-worker wall seconds.  They
  are merged like counters but documented (and tested) as non-invariant.
* **timings** — per-span wall-clock aggregates ``(count, total_s, max_s)``,
  collected by :func:`span`.

Cross-process aggregation uses :func:`capture`: a worker collects one job
into a fresh in-memory state, returns the resulting :func:`snapshot`, and
the parent folds it back with :func:`merge_snapshot`.  Under an active
session a capture takes only its own thread's measurements, so a job run
inline in one serving thread never swallows another's.  Because counters
and gauges are additive, merge order cannot change totals.  The capture state
never opens a sink, so a forked worker can never interleave writes into the
parent's trace file; the manifest writer additionally checks the owning PID
so worker ``atexit`` hooks cannot clobber the parent's manifest.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Dict, Iterator, Optional, Union

__all__ = [
    "ObsState",
    "MANIFEST_SCHEMA",
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
]

#: Version stamped into every manifest and trace ``begin`` event.
MANIFEST_SCHEMA = 1

#: Environment variable that auto-enables observability at import time.
#: ``REPRO_OBS=1`` (or ``true``/``on``) enables in-memory collection only;
#: any other non-empty value is taken as the JSONL trace path.
ENV_VAR = "REPRO_OBS"

#: Keys every manifest must carry, with their required types.
_MANIFEST_KEYS = {
    "schema": int,
    "argv": list,
    "started_at": str,
    "finished_at": str,
    "duration_s": float,
    "counters": dict,
    "gauges": dict,
    "timings": dict,
    "events": int,
    "trace": (str, type(None)),
    "meta": dict,
}


class ObsState:
    """Mutable collection state for one enabled observability session."""

    __slots__ = (
        "trace_path",
        "pid",
        "counters",
        "gauges",
        "timings",
        "meta",
        "argv",
        "started_at",
        "_t0",
        "_sink",
        "events",
        "span_calls",
        "counter_calls",
        "_lock",
        "captures",
    )

    def __init__(self, trace_path: Optional[Union[str, Path]] = None) -> None:
        self.trace_path = None if trace_path is None else Path(trace_path)
        self.pid = os.getpid()
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> [count, total_seconds, max_seconds]
        self.timings: Dict[str, list] = {}
        self.meta: Dict[str, object] = {}
        self.argv: list = []
        self.started_at = _utc_now()
        self._t0 = time.perf_counter()
        self._sink: Optional[IO[str]] = None
        self.events = 0
        self.span_calls = 0
        self.counter_calls = 0
        self._lock = threading.Lock()
        #: thread ident -> the capture that thread installed over this state
        self.captures: Dict[int, "ObsState"] = {}

    # -- event sink ----------------------------------------------------------

    def emit(self, payload: Dict[str, object]) -> None:
        """Append one JSONL event (no-op without a trace path).

        The sink is opened lazily on the first event, so a state that never
        emits (a worker's capture state, an env-enabled worker process)
        never touches the filesystem.
        """
        if self.trace_path is None:
            return
        with self._lock:
            if self._sink is None:
                self.trace_path.parent.mkdir(parents=True, exist_ok=True)
                self._sink = self.trace_path.open("w")
                begin = {
                    "type": "begin",
                    "schema": MANIFEST_SCHEMA,
                    "pid": self.pid,
                    "argv": self.argv,
                    "started_at": self.started_at,
                }
                self._sink.write(json.dumps(begin, separators=(",", ":")) + "\n")
                self.events += 1
            self._sink.write(json.dumps(payload, separators=(",", ":")) + "\n")
            # Flush per event: forked workers inherit the file object, and an
            # empty buffer at fork time is what keeps them from replaying the
            # parent's buffered lines at exit; it also keeps a crashed run's
            # trace readable up to the crash.
            self._sink.flush()
            self.events += 1

    # -- aggregation ---------------------------------------------------------

    def record_timing(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self.timings.get(name)
            if entry is None:
                self.timings[name] = [1, seconds, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds
                if seconds > entry[2]:
                    entry[2] = seconds

    def snapshot(self) -> Dict[str, dict]:
        """Plain-data copy of the aggregates (picklable, JSON-able)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "timings": {name: list(v) for name, v in self.timings.items()},
            }

    def merge(self, snap: Dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this state."""
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + int(value)
            for name, value in snap.get("gauges", {}).items():
                self.gauges[name] = self.gauges.get(name, 0.0) + float(value)
            for name, (count, total, peak) in snap.get("timings", {}).items():
                entry = self.timings.get(name)
                if entry is None:
                    self.timings[name] = [count, total, peak]
                else:
                    entry[0] += count
                    entry[1] += total
                    if peak > entry[2]:
                        entry[2] = peak

    # -- manifest ------------------------------------------------------------

    def manifest(self) -> Dict[str, object]:
        """The end-of-run summary document (see :func:`validate_manifest`)."""
        snap = self.snapshot()
        return {
            "schema": MANIFEST_SCHEMA,
            "argv": list(self.argv),
            "started_at": self.started_at,
            "finished_at": _utc_now(),
            "duration_s": time.perf_counter() - self._t0,
            "counters": {k: snap["counters"][k] for k in sorted(snap["counters"])},
            "gauges": {k: snap["gauges"][k] for k in sorted(snap["gauges"])},
            "timings": {
                name: {"count": v[0], "total_s": v[1], "max_s": v[2]}
                for name, v in sorted(snap["timings"].items())
            },
            "events": self.events,
            "trace": None if self.trace_path is None else str(self.trace_path),
            "meta": dict(self.meta),
        }

    def close(self) -> Dict[str, object]:
        """Emit the manifest event, close the sink, write the manifest file."""
        manifest = self.manifest()
        if self.trace_path is not None and os.getpid() == self.pid:
            self.emit({"type": "manifest", **manifest})
            manifest["events"] = self.events  # include the manifest event itself
            with self._lock:
                if self._sink is not None:
                    self._sink.close()
                    self._sink = None
            manifest_path_for(self.trace_path).write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            )
        return manifest


#: The active state; ``None`` means observability is disabled (the default).
_STATE: Optional[ObsState] = None


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _route(state: ObsState) -> ObsState:
    """The capture the calling thread installed over ``state``, else ``state``."""
    return state.captures.get(threading.get_ident(), state)


def manifest_path_for(trace_path: Union[str, Path]) -> Path:
    """Where the manifest of a given trace file is written."""
    trace_path = Path(trace_path)
    return trace_path.with_name(trace_path.name + ".manifest.json")


def enabled() -> bool:
    """Is an observability session active in this process?"""
    return _STATE is not None


def enable(
    trace: Optional[Union[str, Path]] = None,
    *,
    argv: Optional[list] = None,
) -> ObsState:
    """Install a collection state; returns it.

    Parameters
    ----------
    trace:
        Optional JSONL trace path.  Without it, collection is in-memory only
        (counters/gauges/timings still aggregate; no events are written).
    argv:
        The command line recorded in the manifest (defaults to ``sys.argv``).
    """
    global _STATE
    if _STATE is not None:
        raise RuntimeError("observability is already enabled; disable() it first")
    state = ObsState(trace)
    if argv is None:
        import sys

        argv = list(sys.argv)
    state.argv = list(argv)
    _STATE = state
    return state


def disable() -> Optional[Dict[str, object]]:
    """Tear down the active session; returns its manifest (or ``None``)."""
    global _STATE
    state = _STATE
    if state is None:
        return None
    _STATE = None
    return state.close()


def add(name: str, value: int = 1) -> None:
    """Increment a deterministic counter (no-op when disabled)."""
    state = _STATE
    if state is None:
        return
    if state.captures:
        state = _route(state)
    with state._lock:
        state.counter_calls += 1
        state.counters[name] = state.counters.get(name, 0) + int(value)


def gauge(name: str, value: float = 1.0) -> None:
    """Add to a scheduling-dependent tally (no-op when disabled)."""
    state = _STATE
    if state is None:
        return
    if state.captures:
        state = _route(state)
    with state._lock:
        state.counter_calls += 1
        state.gauges[name] = state.gauges.get(name, 0.0) + float(value)


class _NullSpan:
    """The span returned while disabled: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live timing span: records one sample into the timing aggregates."""

    __slots__ = ("state", "name", "t0")

    def __init__(self, state: ObsState, name: str) -> None:
        self.state = state
        self.name = name

    def __enter__(self) -> "_Span":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.state.record_timing(self.name, time.perf_counter() - self.t0)
        return False


def span(name: str) -> Union[_NullSpan, _Span]:
    """A nestable timing span: ``with obs.span("engine.chunk_scan"):``.

    Disabled-mode cost is one global load and one ``is None`` test; nothing
    is recorded or allocated.
    """
    state = _STATE
    if state is None:
        return _NULL_SPAN
    if state.captures:
        state = _route(state)
    with state._lock:
        state.span_calls += 1
    return _Span(state, name)


def event(type_: str, **fields) -> None:
    """Emit one raw JSONL event (no-op when disabled or without a sink)."""
    state = _STATE
    if state is None:
        return
    _route(state).emit({"type": type_, **fields})


def annotate(key: str, value: object) -> None:
    """Attach one key to the manifest's ``meta`` mapping (no-op when disabled)."""
    state = _STATE
    if state is None:
        return
    state = _route(state)
    with state._lock:
        state.meta[key] = value


def snapshot() -> Optional[Dict[str, dict]]:
    """Plain-data copy of the active aggregates, or ``None`` when disabled."""
    state = _STATE
    return None if state is None else _route(state).snapshot()


def merge_snapshot(snap: Dict[str, dict]) -> None:
    """Fold a worker snapshot into the active state (no-op when disabled)."""
    state = _STATE
    if state is None:
        return
    _route(state).merge(snap)


@contextmanager
def capture() -> Iterator[ObsState]:
    """Collect into a fresh in-memory state for the duration of the block.

    The capture state has no sink, so nothing inside the block can write
    events — :class:`~repro.sweeps.runner.WorkerPool` runs each job under a
    capture and merges the resulting :meth:`ObsState.snapshot` in the
    calling process, which keeps traces worker-count invariant in totals and
    free of interleaved writes.  Under an active session the capture takes
    only the calling thread's measurements; without one it is installed
    process-wide.  The previous state is restored on exit; merging the
    snapshot is the caller's decision.
    """
    global _STATE
    session, local = _STATE, ObsState(None)
    if session is None:
        _STATE = local
    else:
        ident = threading.get_ident()
        outer = session.captures.get(ident)
        session.captures[ident] = local
    try:
        yield local
    finally:
        if session is None:
            _STATE = None
        elif outer is None:
            del session.captures[ident]
        else:
            session.captures[ident] = outer


def validate_manifest(data: Dict[str, object]) -> Dict[str, object]:
    """Check a manifest document against the schema; returns it unchanged.

    Raises :class:`ValueError` on a missing key, a wrong type, or an
    unsupported schema version — the round-trip contract the tests hold.
    """
    if not isinstance(data, dict):
        raise ValueError(f"manifest must be a JSON object, got {type(data).__name__}")
    for key, expected in _MANIFEST_KEYS.items():
        if key not in data:
            raise ValueError(f"manifest is missing required key {key!r}")
        if key == "duration_s":
            if not isinstance(data[key], (int, float)) or isinstance(data[key], bool):
                raise ValueError("manifest duration_s must be a number")
            continue
        if not isinstance(data[key], expected):
            raise ValueError(
                f"manifest key {key!r} must be {expected}, "
                f"got {type(data[key]).__name__}"
            )
    if data["schema"] != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {data['schema']!r}")
    for name, value in data["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"counter {name!r} must be an integer, got {value!r}")
    for name, entry in data["timings"].items():
        if not isinstance(entry, dict) or {"count", "total_s", "max_s"} - set(entry):
            raise ValueError(f"timing {name!r} must carry count/total_s/max_s")
    return data


def _enable_from_env(environ=os.environ) -> Optional[ObsState]:
    """Honor ``REPRO_OBS`` at import time; returns the state if enabled.

    ``1``/``true``/``on`` enable in-memory collection; any other non-empty
    value is the trace path.  A manifest is written at interpreter exit —
    only by the process that enabled (forked workers share the state object
    but fail the PID check in :meth:`ObsState.close`).
    """
    value = environ.get(ENV_VAR, "").strip()
    if not value or value == "0" or _STATE is not None:
        return None
    if value.lower() in ("1", "true", "on"):
        state = enable(None)
    else:
        state = enable(value)
        # Downgrade the variable for child processes: a spawned sweep worker
        # re-runs this hook on import and must collect in-memory rather than
        # open (and truncate) the trace file this process owns.
        environ[ENV_VAR] = "1"
    atexit.register(disable)
    return state
