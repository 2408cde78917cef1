"""Budgeted adversarial search over the wake-pattern space.

A strategy (:mod:`repro.adversary.strategies`) proposes one candidate
population per step, the batch engine (:func:`repro.engine.run_batch`)
resolves the whole population in one chunked scan, and the guided strategies
let the measured latencies steer the next proposal (the ``random`` baseline
samples blindly).  This is the repository's one worst-case search: ``repro
adversary search`` and ``repro sweep worst-case`` both run it.  The search spends
a fixed budget of candidate evaluations and exports its worst finding as a
replayable :class:`~repro.adversary.certificates.SearchCertificate`.

Reproducibility contract
------------------------

Every random stream is derived from config *content* via ``SeedSequence``
(:mod:`repro._util`): step ``s`` draws from a generator keyed by
``(seed, spec_hash, s)``, and candidate ``i`` of step ``s`` evaluates under a
generator keyed by ``(seed, spec_hash, s, i)``
(:func:`~repro.adversary.certificates.evaluation_generators`).  Nothing is
keyed by wall-clock position, so the search result is bit-for-bit identical
across interrupt/resume — the property suite in ``tests/properties``
asserts it.

A search runs in one process: each step is one engine scan, never sharded.
Parallelism lives one level up, where ``repro sweep worst-case --workers``
maps whole searches (:func:`search_best`, one per grid cell) through
:func:`~repro.sweeps.runner.map_jobs`.

Resumability: with a :class:`~repro.sweeps.store.SweepStore`, the driver
checkpoints its full JSON state (strategy state, history, best certificate)
under the blob key ``adversary/<spec-hash>`` after every step; a re-run with
the same spec picks up at the next step and finishes with the identical
result.  Tie-breaking is one convention for every strategy: unsolved
candidates count as ``max_slots``, the earliest candidate wins within a step
(``numpy.argmax``), and an earlier step's incumbent survives later ties
(strict ``>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro._util import indexed_generators, validate_k_n, validate_positive_int
from repro.adversary.certificates import (
    SearchCertificate,
    evaluation_generators,
    load_certificate,
)
from repro.adversary.strategies import STRATEGIES, SearchStrategy, get_strategy
from repro.channel.adversary import (
    Row,
    batched_row,
    simultaneous_row,
    staggered_row,
    uniform_random_row,
)
from repro.channel.wakeup import PatternBatch, WakeupPattern
from repro.sweeps.spec import ParamItems, _freeze_params
from repro.sweeps.store import StoreSchemaError, SweepStore

__all__ = [
    "SearchSpec",
    "SearchResult",
    "adversarial_search",
    "seed_population",
    "effective_latencies",
    "checkpoint_summaries",
]

#: Schema version of the checkpoint blob written under ``adversary/<hash>``.
CHECKPOINT_SCHEMA = 1

#: Step streams derived per :func:`indexed_generators` pass.  A generator
#: holds about 0.8 kB, so this bounds what a search of very many steps holds.
_STEP_STREAMS_PER_PASS = 1024


@dataclass(frozen=True)
class SearchSpec:
    """One guided search, as plain data.

    The spec is the search's whole identity: its
    :meth:`config_hash` keys the checkpoint blob and every derived random
    stream, so two specs share results iff they describe the same search.

    Parameters
    ----------
    protocol:
        Registry name (:mod:`repro.sweeps.protocols`).
    n, k:
        Universe size and number of awakened stations per candidate.
    strategy:
        One of :func:`repro.adversary.strategies.strategy_names`.
    budget:
        Total candidate evaluations the search may spend.
    population:
        Candidates resolved per step (the last step may be smaller).
    seed:
        Root of every derived stream.
    window:
        Temporal scale of seed patterns and mutations (wake times explore
        roughly ``[0, 2·window]``).
    max_slots:
        Horizon per candidate; unsolved candidates count as this latency.
    protocol_params:
        Extra construction parameters forwarded to the protocol builder.
    """

    protocol: str
    n: int
    k: int
    strategy: str = "anneal"
    budget: int = 1024
    population: int = 64
    seed: int = 0
    window: int = 256
    max_slots: int = 200_000
    protocol_params: ParamItems = field(default=())

    def __post_init__(self) -> None:
        validate_k_n(self.k, self.n)
        validate_positive_int(self.budget, "budget")
        validate_positive_int(self.population, "population")
        validate_positive_int(self.window, "window")
        validate_positive_int(self.max_slots, "max_slots")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"registered: {sorted(STRATEGIES)}"
            )
        object.__setattr__(self, "protocol_params", _freeze_params(dict(self.protocol_params)))

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form (checkpoints, hashing); :meth:`from_dict` inverts it."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "k": self.k,
            "strategy": self.strategy,
            "budget": self.budget,
            "population": self.population,
            "seed": self.seed,
            "window": self.window,
            "max_slots": self.max_slots,
            "protocol_params": dict(self.protocol_params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SearchSpec":
        """Inverse of :meth:`as_dict`."""
        known = {key: data[key] for key in (
            "protocol", "n", "k", "strategy", "budget", "population",
            "seed", "window", "max_slots",
        )}
        return cls(protocol_params=_freeze_params(data.get("protocol_params")), **known)

    def config_hash(self) -> str:
        """Stable 16-hex-digit key covering every field (canonical JSON)."""
        import hashlib
        import json

        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def label(self) -> str:
        """Short human-readable identifier for progress lines and reports."""
        return (
            f"{self.protocol} n={self.n} k={self.k} [{self.strategy}] "
            f"budget={self.budget} seed={self.seed}"
        )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one :func:`adversarial_search` run."""

    spec: SearchSpec
    best: SearchCertificate
    evaluated: int
    steps: int
    history: Tuple[Dict[str, int], ...]

    def best_per_step(self) -> List[int]:
        """The best-so-far latency after each step (monotone non-decreasing)."""
        return [int(entry["best"]) for entry in self.history]


def effective_latencies(
    latency: np.ndarray, solved: np.ndarray, max_slots: int
) -> np.ndarray:
    """The search's scoring convention: unsolved rows count as ``max_slots``."""
    return np.where(np.asarray(solved, dtype=bool), latency, int(max_slots)).astype(np.int64)


def seed_population(spec: SearchSpec, count: int, rng: np.random.Generator) -> List[Row]:
    """The step-0 candidate rows every strategy bootstraps from.

    Structured attacks come first — the simultaneous burst on stations
    ``1..k`` (the :class:`~repro.channel.adversary.AdaptiveLowerBoundAdversary`
    setting), unit- and window-scale staggers, and batched bursts, each in a
    deterministic stations-``1..k`` variant and an ``rng``-chosen-subset
    variant — then uniform random rows fill the remainder.  Putting the
    structured seeds first (and the earliest-wins tie rule) guarantees the
    search's final best is at least their best whenever ``count`` covers
    them.  Every row is ``(stations, wake_times)`` in pair order, as the
    strategies' ``propose`` returns them.
    """
    n, k = spec.n, spec.k
    wide_gap = max(1, spec.window // max(k, 1))
    base = np.arange(1, k + 1, dtype=np.int64)
    structured: List[Row] = [
        simultaneous_row(n, k, stations=base),
        staggered_row(n, k, gap=1, stations=base),
        staggered_row(n, k, gap=wide_gap, stations=base),
        batched_row(n, k, batch_size=max(1, k // 4), batch_gap=wide_gap, stations=base),
        simultaneous_row(n, k, rng=rng),
        staggered_row(n, k, gap=1, rng=rng),
        staggered_row(n, k, gap=wide_gap, rng=rng),
        batched_row(n, k, batch_size=max(1, k // 4), batch_gap=wide_gap, rng=rng),
    ]
    out = structured[:count]
    while len(out) < count:
        out.append(uniform_random_row(n, k, window=spec.window, rng=rng))
    return out


def _step_generators(
    spec: SearchSpec, spec_hash: str, start: int
) -> Iterator[np.random.Generator]:
    """The content-derived streams driving steps ``start, start + 1, ...``.

    Step ``s`` draws from ``spawn_generators(seed, 1, "adversary-step",
    spec_hash, s)[0]``, bit for bit; the streams of a search's remaining
    steps are derived together, by :func:`~repro._util.indexed_generators`.
    """
    stop = -(-spec.budget // spec.population)
    for lo in range(start, stop, _STEP_STREAMS_PER_PASS):
        hi = min(lo + _STEP_STREAMS_PER_PASS, stop)
        yield from indexed_generators(spec.seed, range(lo, hi), "adversary-step", spec_hash)


def _evaluate(
    spec: SearchSpec,
    spec_hash: str,
    step: int,
    patterns: Union[PatternBatch, Sequence[WakeupPattern]],
    *,
    protocol,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve one step's population; returns (effective, latency, solved).

    The whole population (the driver's :class:`PatternBatch`, or any pattern
    sequence) goes through one :func:`~repro.engine.run_batch` scan in the
    calling process.  A randomized policy draws candidate ``i`` from the
    stream keyed by ``(seed, spec_hash, step, i)``.
    """
    from repro.channel.protocols import RandomizedPolicy
    from repro.engine import run_batch

    rngs = None
    if isinstance(protocol, RandomizedPolicy):
        rngs = evaluation_generators(spec.seed, spec_hash, step, range(len(patterns)))
    batch = run_batch(protocol, patterns, rngs=rngs, max_slots=spec.max_slots)
    effective = effective_latencies(batch.latency, batch.solved, spec.max_slots)
    return effective, batch.latency, batch.solved


def _step(
    spec: SearchSpec,
    spec_hash: str,
    strategy: SearchStrategy,
    state: Dict[str, object],
    step: int,
    count: int,
    rng: np.random.Generator,
    *,
    protocol,
) -> Tuple[PatternBatch, np.ndarray, np.ndarray, Dict[str, object], int]:
    """Propose, evaluate and observe one step's population of ``count`` rows.

    Returns ``(batch, effective, solved, state, accepted)``.  The proposed
    rows are checked once, as one :class:`PatternBatch`, which the engine
    scans and ``observe`` reads; no candidate becomes a pattern here.
    """
    with obs.span("adversary.propose"):
        if step == 0:
            rows, meta = seed_population(spec, count, rng), {"seeded": True}
        else:
            rows, meta = strategy.propose(spec, state, step, count, rng)
        batch = PatternBatch.from_rows(spec.n, rows)
    with obs.span("adversary.evaluate"):
        effective, _, solved = _evaluate(spec, spec_hash, step, batch, protocol=protocol)
    with obs.span("adversary.observe"):
        state, accepted = strategy.observe(spec, state, step, batch, effective, meta, rng)
    return batch, effective, solved, state, accepted


def _certificate(
    spec: SearchSpec,
    spec_hash: str,
    pattern: WakeupPattern,
    value: int,
    solved: bool,
    step: int,
    index: int,
) -> SearchCertificate:
    from repro.analysis.certificates import bound_ratio
    from repro.core.lower_bounds import trivial_lower_bound

    return SearchCertificate(
        protocol=spec.protocol,
        n=spec.n,
        k=spec.k,
        strategy=spec.strategy,
        seed=spec.seed,
        wake_times=dict(pattern.wake_times),
        latency=int(value),
        solved=bool(solved),
        bound_ratio=bound_ratio(spec.n, spec.k, int(value), trivial_lower_bound),
        max_slots=spec.max_slots,
        spec_hash=spec_hash,
        step=int(step),
        index=int(index),
        protocol_params=dict(spec.protocol_params),
    )


def adversarial_search(
    spec: SearchSpec,
    *,
    store=None,
    progress: Optional[Callable[[int, int, int], None]] = None,
) -> SearchResult:
    """Run (or resume) one guided search and return its best certificate.

    Parameters
    ----------
    spec:
        The search to run.
    store:
        Optional :class:`~repro.sweeps.store.SweepStore`; when given, the
        driver checkpoints after every step under ``adversary/<spec-hash>``
        and resumes from an existing checkpoint of the same spec.  A
        checkpoint of an unsupported schema (or of a different spec that
        collided on the key) raises
        :class:`~repro.sweeps.store.StoreSchemaError` naming the blob file.
    progress:
        Optional ``progress(step, evaluated, best_latency)`` hook fired after
        each step's checkpoint is written.  An exception it raises aborts the
        search *after* the checkpoint, so a later call resumes cleanly — the
        interrupt/resume property tests drive the search exactly this way.
    """
    strategy = get_strategy(spec.strategy)
    spec_hash = spec.config_hash()
    checkpoint_key = f"adversary/{spec_hash}"

    state = strategy.initial_state(spec)
    step = 0
    evaluated = 0
    history: List[Dict[str, int]] = []
    best: Optional[SearchCertificate] = None

    if store is not None:
        data = store.load_blob(checkpoint_key)
        if data is not None:
            path = store.blob_path(checkpoint_key)
            if data.get("schema") != CHECKPOINT_SCHEMA:
                raise StoreSchemaError(
                    f"{path}: checkpoint schema {data.get('schema')!r} is not "
                    f"supported (this build reads schema {CHECKPOINT_SCHEMA}); "
                    "delete or regenerate it"
                )
            if data.get("spec") != spec.as_dict():
                raise StoreSchemaError(
                    f"{path}: checkpoint belongs to a different spec; "
                    "delete it or use a different store"
                )
            state = data["state"]
            step = int(data["next_step"])
            evaluated = int(data["evaluated"])
            history = [dict(entry) for entry in data["history"]]
            if data.get("best") is not None:
                best = load_certificate(data["best"], source=str(path))

    from repro.sweeps.protocols import build_protocol

    protocol = build_protocol(
        spec.protocol, spec.n, spec.k, seed=spec.seed, **dict(spec.protocol_params)
    )
    streams = _step_generators(spec, spec_hash, step)
    with obs.span("adversary.search"):
        while evaluated < spec.budget:
            count = min(spec.population, spec.budget - evaluated)
            batch, effective, solved, state, accepted = _step(
                spec, spec_hash, strategy, state, step, count, next(streams), protocol=protocol
            )
            index = int(np.argmax(effective))  # earliest candidate wins ties
            value = int(effective[index])
            if best is None or value > best.latency:  # earlier step survives ties
                best = _certificate(
                    spec, spec_hash, batch[index], value, bool(solved[index]), step, index
                )
            evaluated += count
            obs.add("adversary.steps")
            obs.add("adversary.evaluated", count)
            obs.add("adversary.accepted", int(accepted))
            obs.gauge("adversary.best_latency", float(best.latency))
            for name, gauge_value in strategy.gauges(state).items():
                obs.gauge(f"adversary.{spec.strategy}.{name}", float(gauge_value))
            history.append(
                {
                    "step": int(step),
                    "evaluated": int(evaluated),
                    "accepted": int(accepted),
                    "step_best": value,
                    "best": int(best.latency),
                }
            )
            step += 1
            if store is not None:
                with obs.span("adversary.checkpoint"):
                    store.save_blob(
                        checkpoint_key,
                        {
                            "schema": CHECKPOINT_SCHEMA,
                            "spec": spec.as_dict(),
                            "next_step": int(step),
                            "evaluated": int(evaluated),
                            "state": state,
                            "history": history,
                            "best": best.as_dict(),
                        },
                    )
            if progress is not None:
                progress(step, evaluated, int(best.latency))

    assert best is not None  # budget >= 1 guarantees at least one step ran
    return SearchResult(
        spec=spec,
        best=best,
        evaluated=evaluated,
        steps=step,
        history=tuple(history),
    )


def search_best(job: Tuple[SearchSpec, Optional[SweepStore]]) -> SearchCertificate:
    """Run one ``(spec, store)`` search serially; return its best certificate.

    The pool job of ``repro sweep worst-case`` (top-level, so it pickles into
    worker processes).  With a store, the search checkpoints from inside the
    job: every spec has its own blob key and :meth:`save_blob` ends in
    ``os.replace``, so concurrent cells never interleave their writes.
    """
    spec, store = job
    return adversarial_search(spec, store=store).best


def checkpoint_summaries(store) -> List[Dict[str, object]]:
    """Summaries of every search checkpointed in ``store``, for reporting.

    One dict per ``adversary/*`` blob: the spec's identity fields, progress
    (``evaluated``/``budget``, steps) and the best certificate's latency and
    bound ratio.  Unreadable blobs raise the usual
    :class:`~repro.sweeps.store.StoreSchemaError`.
    """
    out: List[Dict[str, object]] = []
    for path in store.blobs("adversary"):
        data = store.load_blob(f"adversary/{path.stem}")
        if data is None:  # pragma: no cover - raced with a writer
            continue
        spec = data.get("spec", {})
        best = data.get("best") or {}
        out.append(
            {
                "hash": path.stem,
                "protocol": spec.get("protocol"),
                "n": spec.get("n"),
                "k": spec.get("k"),
                "strategy": spec.get("strategy"),
                "evaluated": data.get("evaluated"),
                "budget": spec.get("budget"),
                "steps": data.get("next_step"),
                "best_latency": best.get("latency"),
                "bound_ratio": best.get("bound_ratio"),
                "solved": best.get("solved"),
            }
        )
    return out
