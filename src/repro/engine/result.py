"""Batch results and the input form every engine shares.

:class:`BatchResult` is the column-oriented outcome of one batched
simulation, whichever engine produced it; :func:`_pattern_batch` turns an
engine's input into the one :class:`~repro.channel.wakeup.PatternBatch` it
scans, and :func:`_resolve_generators` gives a randomized engine one child
generator per pattern.  The deterministic and randomized scans
(:mod:`repro.engine.batch`) and the feedback engine
(:mod:`repro.engine.feedback_batch`) all import them from here, so neither
engine module has to import the other to share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro._util import RngLike, spawn_generators
from repro.channel.simulator import WakeupResult
from repro.channel.wakeup import PatternBatch, WakeupPattern

__all__ = ["BatchResult", "Patterns"]

#: What every engine accepts: the columnar batch, or patterns to convert once.
Patterns = Union[PatternBatch, Sequence[WakeupPattern]]


@dataclass(frozen=True)
class BatchResult:
    """Column-oriented outcome of one batched simulation.

    Every attribute is an array of length B (the number of patterns), aligned
    with the input order.  Unsolved rows carry ``-1`` in ``success_slot``,
    ``winner`` and ``latency``.

    Attributes
    ----------
    protocol:
        Name of the protocol that produced the batch.
    n:
        Universe size shared by all patterns.
    solved:
        Boolean column: did the row find a successful slot within its horizon?
    k, first_wake:
        Per-row pattern characteristics.
    success_slot, winner, latency:
        Per-row outcome columns (``-1`` where unsolved).
    slots_examined:
        Per-row count of slots the engine examined.  For deterministic
        batches this is the shared scan's window (diagnostic; chunk-layout
        dependent, unlike the outcome columns); for randomized batches it
        matches the slot-loop engine exactly (``latency + 1`` when solved,
        the full horizon otherwise).
    """

    protocol: str
    n: int
    solved: np.ndarray
    k: np.ndarray
    first_wake: np.ndarray
    success_slot: np.ndarray
    winner: np.ndarray
    latency: np.ndarray
    slots_examined: np.ndarray

    # -- container behaviour -------------------------------------------------

    def __len__(self) -> int:
        return int(self.solved.shape[0])

    def __iter__(self) -> Iterator[WakeupResult]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, index: int) -> WakeupResult:
        """Materialize row ``index`` as a scalar :class:`WakeupResult`."""
        index = int(index)
        if not -len(self) <= index < len(self):
            raise IndexError(f"row {index} out of range for batch of {len(self)}")
        index %= len(self)
        solved = bool(self.solved[index])
        return WakeupResult(
            solved=solved,
            n=self.n,
            k=int(self.k[index]),
            first_wake=int(self.first_wake[index]),
            success_slot=int(self.success_slot[index]) if solved else None,
            winner=int(self.winner[index]) if solved else None,
            latency=int(self.latency[index]) if solved else None,
            slots_examined=int(self.slots_examined[index]),
            protocol=self.protocol,
        )

    # -- summary statistics --------------------------------------------------

    @property
    def solved_count(self) -> int:
        """Number of rows that solved wake-up within the horizon."""
        return int(np.count_nonzero(self.solved))

    @property
    def solved_fraction(self) -> float:
        """Fraction of rows solved (1.0 for an empty batch)."""
        return 1.0 if len(self) == 0 else self.solved_count / len(self)

    def require_all_solved(self) -> np.ndarray:
        """Return the latency column, raising if any row is unsolved."""
        if not bool(self.solved.all()):
            unsolved = int(np.count_nonzero(~self.solved))
            raise RuntimeError(
                f"protocol {self.protocol!r} did not solve wake-up within the "
                f"horizon on {unsolved} of {len(self)} patterns"
            )
        return self.latency

    def max_latency(self) -> int:
        """Largest latency among solved rows (the worst-case estimate)."""
        return int(self.require_all_solved().max())

    def mean_latency(self) -> float:
        """Mean latency over all rows (requires every row solved)."""
        return float(self.require_all_solved().mean())

    def summary(self) -> Dict[str, float]:
        """Summary statistics over the solved rows (empty dict if none)."""
        if self.solved_count == 0:
            return {"patterns": float(len(self)), "solved": 0.0}
        lat = self.latency[self.solved]
        return {
            "patterns": float(len(self)),
            "solved": float(self.solved_count),
            "min_latency": float(lat.min()),
            "mean_latency": float(lat.mean()),
            "median_latency": float(np.median(lat)),
            "max_latency": float(lat.max()),
        }

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, protocol) -> "BatchResult":
        """Zero-row result for any protocol kind (``.describe()`` and ``.n``)."""
        none = np.empty(0, dtype=np.int64)
        return cls(
            protocol=protocol.describe(),
            n=protocol.n,
            solved=np.empty(0, dtype=bool),
            k=none,
            first_wake=none,
            success_slot=none,
            winner=none,
            latency=none,
            slots_examined=none,
        )

    @classmethod
    def concat(cls, results: Sequence["BatchResult"]) -> "BatchResult":
        """Concatenate shard results (in order) into one batch result."""
        if not results:
            raise ValueError("cannot concatenate an empty sequence of BatchResults")
        first = results[0]
        for other in results[1:]:
            if other.protocol != first.protocol or other.n != first.n:
                raise ValueError(
                    "cannot concatenate results from different protocols/universes: "
                    f"{first.protocol!r} (n={first.n}) vs {other.protocol!r} (n={other.n})"
                )
        return cls(
            protocol=first.protocol,
            n=first.n,
            solved=np.concatenate([r.solved for r in results]),
            k=np.concatenate([r.k for r in results]),
            first_wake=np.concatenate([r.first_wake for r in results]),
            success_slot=np.concatenate([r.success_slot for r in results]),
            winner=np.concatenate([r.winner for r in results]),
            latency=np.concatenate([r.latency for r in results]),
            slots_examined=np.concatenate([r.slots_examined for r in results]),
        )


def _pattern_batch(protocol, patterns: Patterns) -> PatternBatch:
    """The one input form of every engine: a :class:`PatternBatch` over ``protocol.n``.

    A sequence of :class:`WakeupPattern` is converted once, by
    :meth:`PatternBatch.from_patterns`, which checks nothing but the
    universe: each pattern is valid by construction.
    """
    if not isinstance(patterns, PatternBatch):
        return PatternBatch.from_patterns(protocol.n, patterns)
    if patterns.n != protocol.n:
        raise ValueError(
            f"protocol universe n={protocol.n} does not match batch n={patterns.n}"
        )
    return patterns


def _resolve_generators(
    rngs: Optional[Sequence[np.random.Generator]],
    seed: RngLike,
    count: int,
) -> List[np.random.Generator]:
    if rngs is not None:
        rngs = list(rngs)
        if len(rngs) != count:
            raise ValueError(
                f"rngs must provide one generator per pattern: got {len(rngs)} "
                f"for {count} patterns"
            )
        return rngs
    # Same namespace as Campaign's pre-shard spawn, so engine-level and
    # campaign-level calls with the same seed produce identical outcomes.
    return spawn_generators(seed, count, "campaign")
