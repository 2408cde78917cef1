"""Process-parallel sweep execution: shard config grids across workers.

The batch engine (:mod:`repro.engine`) made a *single* config fast; this
module makes a *grid* of configs fast.  A :class:`SweepRunner` partitions the
pending configs of a :class:`~repro.sweeps.spec.SweepSpec` across the worker
processes of a :class:`WorkerPool` — separate processes sidestep the GIL for
the Python-side share of pattern generation and protocol construction, and
isolate per-config memory — and merges the finished
:class:`~repro.sweeps.store.ConfigRecord` rows back in grid order.

:class:`WorkerPool` is the package's one process pool: sweeps and ``repro
sweep worst-case`` (through :func:`map_jobs`) and the results service run
their jobs through it.  A job is always a whole independent unit — a
config, a query or a whole adversarial search — never a share of one.

Worker-count invariance
-----------------------

Sweep results are bit-for-bit identical no matter how the grid is sharded
(serial, 4 workers, resumed across sessions), because every config is
resolved from its own content alone:

* patterns come from ``WorkloadSuite.generate(workload, n, k, batch, seed)``,
  whose per-row generators are ``SeedSequence``-spawned from the config seed
  keyed by the workload name (see :mod:`repro._util`);
* randomized policies draw from per-pattern child streams spawned from the
  config seed by the :class:`~repro.engine.Campaign` inside the worker;
* protocol construction is deterministic in ``(name, n, k, seed)``
  (:mod:`repro.sweeps.protocols`).

No shared mutable stream crosses configs, so scheduling order cannot leak
into outcomes.  ``tests/sweeps`` asserts the invariance explicitly.

Resumability
------------

With a :class:`~repro.sweeps.store.SweepStore` attached, every record is
persisted the moment its config completes and already-stored configs are
never recomputed, so an interrupted ``repro sweep run`` picks up where it
left off and overlapping sweeps share work across sessions.

One portability caveat: workers resolve workload and protocol *names*
against their own process's registries.  Extensions registered in-process
(``register_workload`` / ``register_protocol``) are visible to forked
workers (Linux) but not to spawned ones (macOS/Windows default start
method) — run those with ``workers <= 1``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro import obs
from repro.engine import Campaign
from repro.sweeps.spec import SweepConfig, SweepSpec
from repro.sweeps.store import ConfigRecord, SweepStore

__all__ = [
    "SweepRunner",
    "SweepResult",
    "SweepStatus",
    "WorkerPool",
    "map_jobs",
    "resolve_config",
]

_Job = TypeVar("_Job")
_Out = TypeVar("_Out")


def resolve_config(config: SweepConfig) -> ConfigRecord:
    """Resolve one config end to end; the unit of work a sweep worker runs.

    Builds the protocol from the config's name axes, draws the pattern batch
    through the workload suite, pushes it through a serial
    :class:`~repro.engine.Campaign` (parallelism lives at the config level,
    across :class:`WorkerPool` processes), and returns the full-outcome
    :class:`~repro.sweeps.store.ConfigRecord`.
    """
    from repro.sweeps.protocols import build_protocol
    from repro.workloads import WorkloadSuite

    protocol = build_protocol(
        config.protocol,
        config.n,
        config.k,
        seed=config.seed,
        **dict(config.protocol_params),
    )
    patterns = WorkloadSuite().generate(
        config.workload,
        n=config.n,
        k=config.k,
        batch=config.batch,
        seed=config.seed,
        **dict(config.params),
    )
    campaign = Campaign(protocol, max_slots=config.max_slots, seed=config.seed)
    return ConfigRecord.from_batch(config, campaign.run(patterns))


class _InstrumentedJob:
    """Picklable wrapper running one job under :func:`repro.obs.capture`.

    Worker processes (or the inline path, for uniformity) collect the job's
    counters, gauges and span timings into a fresh in-memory state and ship
    the snapshot back with the result; the parent folds snapshots into its
    own session with :func:`repro.obs.merge_snapshot`.  Because the aggregates
    are additive and the capture state has no sink, trace files see no
    interleaved worker writes and counter totals are worker-count invariant.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[_Job], _Out]) -> None:
        self.fn = fn

    def __getstate__(self):
        return self.fn

    def __setstate__(self, fn) -> None:
        self.fn = fn

    def __call__(self, job: _Job):
        t0 = time.perf_counter()
        with obs.capture() as state:
            result = self.fn(job)
            obs.gauge("sweeps.job_seconds", time.perf_counter() - t0)
            snap = state.snapshot()
        return result, snap


class WorkerPool:
    """Worker processes that map picklable jobs; inline at 0 processes.

    One pool serves many :meth:`map` calls (a service's misses), so process
    start-up is paid once.  ``fn`` must be pure in its job, so the inline
    and the process paths agree bit for bit.  Under an
    observability session each job runs as an :class:`_InstrumentedJob`
    whose snapshot is merged in the calling process, with one ``job`` trace
    event per job: counter totals do not depend on the process count, and
    workers never write to the trace file.
    """

    def __init__(self, processes: int = 0) -> None:
        if processes < 0:
            raise ValueError(f"processes must be >= 0, got {processes}")
        self.processes = processes
        self._executor = ProcessPoolExecutor(processes) if processes else None

    def map(
        self,
        fn: Callable[[_Job], _Out],
        jobs: Sequence[_Job],
        on_result: Optional[Callable[[int, _Out], None]] = None,
    ) -> List[_Out]:
        """``[fn(job) for job in jobs]``, inline or across the processes.

        ``on_result(index, result)`` fires in the calling thread as each job
        finishes, in completion order (the sweep store saves records there).
        """
        jobs = list(jobs)
        instrumented = obs.enabled()
        run: Callable = _InstrumentedJob(fn) if instrumented else fn

        def _deliver(index: int, raw) -> _Out:
            if instrumented:
                result, snap = raw
                obs.merge_snapshot(snap)
                obs.event("job", index=index, **snap)
            else:
                result = raw
            if on_result is not None:
                on_result(index, result)
            return result

        if self._executor is None:
            return [_deliver(index, run(job)) for index, job in enumerate(jobs)]
        submit = self._executor.submit
        futures = {submit(run, job): index for index, job in enumerate(jobs)}
        out: Dict[int, _Out] = {}
        try:
            for future in as_completed(futures):
                index = futures[future]
                out[index] = _deliver(index, future.result())
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return [out[index] for index in range(len(jobs))]

    def close(self) -> None:
        """Shut the processes down once their jobs finish; no jobs after."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def map_jobs(
    fn: Callable[[_Job], _Out],
    jobs: Sequence[_Job],
    *,
    workers: int = 0,
    on_result: Optional[Callable[[int, _Out], None]] = None,
) -> List[_Out]:
    """Map ``fn`` over jobs on a :class:`WorkerPool` opened for this call.

    :class:`SweepRunner` (and so the paper campaign) shards through it.
    ``workers <= 1`` or at most one job runs serially in the calling
    process; otherwise the pool has ``min(workers, len(jobs))`` processes.
    """
    jobs = list(jobs)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    processes = min(workers, len(jobs)) if workers > 1 and len(jobs) > 1 else 0
    with WorkerPool(processes) as pool:
        return pool.map(fn, jobs, on_result)


@dataclass
class _ProgressMeter:
    """Format one progress line per resolved config.

    Lines keep the historical ``resolved <...>`` prefix and add live
    counts from the run's :class:`SweepStatus` view plus throughput and an
    ETA over the *fresh* configs (store-reused records complete instantly
    and would skew a naive rate).  Counts are exact at any worker count —
    they advance one per delivered record in the parent process; only the
    rate/ETA figures are wall-clock estimates.
    """

    total: int
    completed: int
    emit: Callable[[str], None]
    _t0: float = field(default_factory=time.perf_counter)
    _fresh: int = 0

    def step(self, label: str) -> None:
        self.completed += 1
        self._fresh += 1
        elapsed = time.perf_counter() - self._t0
        rate = self._fresh / elapsed if elapsed > 0 else 0.0
        status = SweepStatus(total=self.total, completed=self.completed)
        line = f"resolved {label} [{status.completed}/{status.total}"
        if rate > 0:
            line += f", {rate:.2f} configs/s"
            if status.pending:
                line += f", eta ~{status.pending / rate:.0f}s"
        self.emit(line + "]")


@dataclass(frozen=True)
class SweepStatus:
    """Progress of a spec against a store: what is done, what remains."""

    total: int
    completed: int

    @property
    def pending(self) -> int:
        return self.total - self.completed

    def describe(self) -> str:
        return f"{self.completed}/{self.total} configs completed, {self.pending} pending"


@dataclass
class SweepResult:
    """Ordered per-config records of one sweep run.

    ``records`` aligns with the spec's grid order regardless of how many
    workers resolved it or how many records came from the store.
    """

    records: List[ConfigRecord] = field(default_factory=list)
    reused: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def all_solved(self) -> bool:
        """True iff every pattern of every config solved within its horizon."""
        return all(record.all_solved for record in self.records)

    def rows(self) -> List[Dict[str, object]]:
        """Flat export rows (one per config) for ``repro.reporting.export``."""
        return [record.row() for record in self.records]


@dataclass
class SweepRunner:
    """Shard a config grid across worker processes, with store-backed resume.

    Parameters
    ----------
    workers:
        Worker processes; ``0`` or ``1`` resolves configs serially in the
        calling process (identical results — sharding is scheduling only).
    store:
        Optional :class:`~repro.sweeps.store.SweepStore`.  When set, stored
        configs are served from disk instead of recomputed and fresh records
        are persisted as they complete, making the sweep resumable.
    """

    workers: int = 0
    store: Optional[SweepStore] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def _expand(self, spec: Union[SweepSpec, Sequence[SweepConfig]]) -> List[SweepConfig]:
        if isinstance(spec, SweepSpec):
            return spec.configs()
        return list(spec)

    def run(
        self,
        spec: Union[SweepSpec, Sequence[SweepConfig]],
        *,
        progress: Optional[Callable[[str], None]] = None,
    ) -> SweepResult:
        """Resolve every config of ``spec`` (a spec or an explicit config list).

        Already-stored configs are reused; the rest are sharded across the
        worker pool.  ``progress`` (if given) receives one line per resolved
        config, in completion order.
        """
        configs = self._expand(spec)
        records: Dict[int, ConfigRecord] = {}
        pending: List[SweepConfig] = []
        pending_indices: List[int] = []
        for index, config in enumerate(configs):
            stored = self.store.load(config) if self.store is not None else None
            if stored is not None:
                records[index] = stored
            else:
                pending.append(config)
                pending_indices.append(index)
        reused = len(records)
        obs.add("sweeps.configs_total", len(configs))
        obs.add("sweeps.configs_reused", reused)
        if self.store is not None:
            # Store traffic, counted parent-side in the partition above so the
            # totals stay worker-count invariant (workers never touch the
            # store).  A warm rerun of a campaign reads as misses == 0.
            obs.add("store.hits", reused)
            obs.add("store.misses", len(pending))
        meter = (
            None
            if progress is None
            else _ProgressMeter(total=len(configs), completed=reused, emit=progress)
        )

        def _finished(position: int, record: ConfigRecord) -> None:
            if self.store is not None:
                self.store.save(record)
            obs.add("sweeps.configs_resolved")
            if meter is not None:
                meter.step(record.config.label())

        with obs.span("sweeps.run"):
            fresh = map_jobs(
                resolve_config, pending, workers=self.workers, on_result=_finished
            )
        for index, record in zip(pending_indices, fresh):
            records[index] = record
        return SweepResult(
            records=[records[index] for index in range(len(configs))], reused=reused
        )

    def status(self, spec: Union[SweepSpec, Sequence[SweepConfig]]) -> SweepStatus:
        """How much of ``spec`` the attached store already covers."""
        configs = self._expand(spec)
        if self.store is None:
            return SweepStatus(total=len(configs), completed=0)
        return SweepStatus(
            total=len(configs), completed=len(self.store.completed(configs))
        )
