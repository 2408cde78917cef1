"""Adversarial and stochastic wake-up pattern generators.

The wake-up problem is a game against an adversary who chooses *which* (at
most ``k``) stations wake up and *when*.  All bounds in the paper are
worst-case over this choice, so the benchmark harness needs a library of
adversarial strategies:

* structured patterns targeting the weak points of specific algorithms
  (waking just after a selective-family boundary to maximize the wait of
  ``wait_and_go``; waking inside a window so Scenario C stations must idle
  until the next window boundary);
* stochastic patterns (uniform, bursty/batched) for average-case curves and
  for the candidate draws of :mod:`repro.adversary`, the worst-case search;
* the adaptive replacement adversary from the proof of Theorem 2.1, which
  certifies an empirical lower bound against any deterministic protocol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import RngLike, as_generator, validate_k_n
from repro.channel.protocols import DeterministicProtocol
from repro.channel.wakeup import WakeupPattern

__all__ = [
    "Row",
    "pattern_drawer",
    "simultaneous_row",
    "staggered_row",
    "batched_row",
    "uniform_random_row",
    "window_boundary_row",
    "family_boundary_row",
    "simultaneous_pattern",
    "staggered_pattern",
    "batched_pattern",
    "uniform_random_pattern",
    "window_boundary_pattern",
    "family_boundary_pattern",
    "random_station_subset",
    "row_stations",
    "AdaptiveLowerBoundAdversary",
]


#: One drawn row: aligned ``(stations, wake_times)`` arrays, in pair order.
Row = Tuple[np.ndarray, np.ndarray]


def pattern_drawer(row_drawer: Callable[..., Row]) -> Callable[..., WakeupPattern]:
    """The :class:`WakeupPattern` edge of a row drawer: same arguments, same draws.

    Every generator is written once, as a *row drawer* ``(n, k, *, ...,
    rng) -> (stations, wake_times)``.  The workload registry hands those rows
    to a :class:`~repro.channel.wakeup.PatternBatch`, checked once per batch;
    the drawer's ``*_pattern`` form (this wrapper) builds one pattern from the
    same row, through :meth:`WakeupPattern.from_arrays`.
    """

    @functools.wraps(row_drawer)
    def draw(n: int, k: int, **params) -> WakeupPattern:
        return WakeupPattern.from_arrays(n, *row_drawer(n, k, **params))

    draw.__name__ = draw.__qualname__ = row_drawer.__name__.replace("_row", "_pattern")
    return draw


def random_station_subset(n: int, k: int, rng: RngLike = None) -> List[int]:
    """Pick ``k`` distinct station IDs uniformly at random from ``[1, n]``."""
    k, n = validate_k_n(k, n)
    return row_stations(n, k, None, rng).tolist()


def row_stations(
    n: int, k: int, stations: Optional[Iterable[int]], rng: RngLike = None
) -> np.ndarray:
    """The station array of one generated row, in pair order.

    With ``stations=None`` this is one vector draw from ``rng``: ``k``
    distinct IDs from ``[1, n]``, sorted ascending.  An explicit ``stations``
    (any iterable) is kept in its given order and must hold exactly ``k``
    IDs; the row's consumer (:class:`~repro.channel.wakeup.PatternBatch` or
    :meth:`WakeupPattern.from_arrays`) then rejects IDs outside ``[1, n]``
    and repeats, so every generator validates the same way.
    """
    if stations is None:
        return np.sort(as_generator(rng).choice(n, size=k, replace=False)) + 1
    chosen = stations if isinstance(stations, np.ndarray) else np.asarray(list(stations))
    if chosen.ndim != 1 or chosen.size != k:
        raise ValueError(f"stations must list exactly k={k} distinct IDs, got {chosen.size}")
    return chosen


def simultaneous_row(
    n: int, k: int, *, start: int = 0, stations: Optional[Sequence[int]] = None, rng: RngLike = None
) -> Row:
    """All ``k`` stations wake at the same slot (the classical synchronized case)."""
    k, n = validate_k_n(k, n)
    chosen = row_stations(n, k, stations, rng)
    return chosen, np.full(k, start, dtype=np.int64)


def staggered_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    gap: int = 1,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> Row:
    """Stations wake one after another, ``gap`` slots apart.

    With a large ``gap`` this stresses the non-synchronized aspect of the
    model: late wakers join while the early ones are already deep into their
    schedules.
    """
    k, n = validate_k_n(k, n)
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    chosen = row_stations(n, k, stations, rng)
    return chosen, start + np.arange(k, dtype=np.int64) * gap


def batched_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    batch_size: int = 4,
    batch_gap: int = 16,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> Row:
    """Stations wake in bursts of ``batch_size``, bursts separated by ``batch_gap`` slots."""
    k, n = validate_k_n(k, n)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_gap < 0:
        raise ValueError(f"batch_gap must be >= 0, got {batch_gap}")
    chosen = row_stations(n, k, stations, rng)
    times = start + (np.arange(k, dtype=np.int64) // batch_size) * batch_gap
    return chosen, times


def uniform_random_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    window: int = 128,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> Row:
    """Stations wake at independent uniform times in ``[start, start + window)``.

    One station is pinned to ``start`` so that ``s`` is deterministic and the
    latency of different runs is comparable.
    """
    k, n = validate_k_n(k, n)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    gen = as_generator(rng)
    chosen = row_stations(n, k, stations, gen)
    times = start + gen.integers(0, window, size=k)
    times[0] = start
    return chosen, times


def window_boundary_row(
    n: int,
    k: int,
    *,
    window_length: int,
    start: int = 0,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> Row:
    """Wake each station one slot *after* a window boundary.

    Targets Scenario C: the protocol makes stations that wake inside a window
    of ``log log n`` slots idle until the next boundary (the map ``µ(σ)``), so
    waking at ``p·loglog n + 1`` maximizes the forced idle time.  Stations are
    spread over consecutive windows.
    """
    k, n = validate_k_n(k, n)
    if window_length < 1:
        raise ValueError(f"window_length must be >= 1, got {window_length}")
    chosen = row_stations(n, k, stations, rng)
    offset = 1 if window_length > 1 else 0
    times = start + np.arange(k, dtype=np.int64) * window_length + offset
    return chosen, times


def family_boundary_row(
    n: int,
    k: int,
    *,
    boundaries: Sequence[int],
    start: int = 0,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> Row:
    """Wake each station one slot after a selective-family boundary.

    Targets Scenario B's ``wait_and_go``: a station waking just after the
    first slot of a family must stay silent until the next family starts,
    which is the worst case for its waiting time.  ``boundaries`` are the
    absolute slots at which families begin (obtainable from
    :meth:`repro.core.scenario_b.WaitAndGo.family_boundaries`).
    """
    k, n = validate_k_n(k, n)
    if not boundaries:
        raise ValueError("boundaries must be non-empty")
    chosen = row_stations(n, k, stations, rng)
    sorted_bounds = np.sort(np.asarray([int(b) for b in boundaries], dtype=np.int64))
    times = np.maximum(start, sorted_bounds[np.arange(k) % sorted_bounds.size] + 1)
    # Ensure at least one station defines s = start for comparability.
    times[0] = start
    return chosen, times


# The WakeupPattern forms: the same drawers, one validated pattern per call.
simultaneous_pattern = pattern_drawer(simultaneous_row)
staggered_pattern = pattern_drawer(staggered_row)
batched_pattern = pattern_drawer(batched_row)
uniform_random_pattern = pattern_drawer(uniform_random_row)
window_boundary_pattern = pattern_drawer(window_boundary_row)
family_boundary_pattern = pattern_drawer(family_boundary_row)


@dataclass
class AdaptiveLowerBoundAdversary:
    """The replacement adversary from the proof of Theorem 2.1.

    Given a deterministic protocol and the synchronized setting (all chosen
    stations wake at slot 0 — the lower bound holds even there), the adversary
    maintains a contender set ``X`` of size ``k``.  It repeatedly:

    1. runs the protocol on ``X`` and finds the first isolating slot ``r`` and
       isolated station ``x``;
    2. replaces ``x`` with a fresh station ``y`` from the complement that has
       not been used before, obtaining ``X'``;
    3. repeats, for up to ``min(k, n - k)`` iterations.

    Each iteration forces the protocol to "spend" a distinct isolating slot,
    which is the counting at the heart of the ``min{k, n-k+1}`` lower bound.
    The adversary reports the set of distinct isolating slots observed and the
    worst (largest) first-isolation latency among the constructed contender
    sets — an empirical certificate that the protocol cannot beat the bound.

    Parameters
    ----------
    protocol:
        Any deterministic protocol.
    max_slots:
        Horizon per run.
    """

    protocol: DeterministicProtocol
    max_slots: int = 500_000

    def run(
        self, k: int, *, initial: Optional[Sequence[int]] = None, rng: RngLike = None
    ) -> "AdversaryReport":
        """Execute the replacement process and return a report.

        Each contender set is resolved on the batch engine
        (:func:`repro.engine.run_deterministic_batch`, a one-pattern batch),
        whose outcome equals the scalar ``run_deterministic`` slot loop.
        """
        from repro.engine import run_deterministic_batch

        n = self.protocol.n
        k, n = validate_k_n(k, n)
        gen = as_generator(rng)
        if initial is not None:
            current = sorted(int(u) for u in initial)
            if len(current) != k:
                raise ValueError(f"initial set must have size k={k}, got {len(current)}")
        else:
            current = random_station_subset(n, k, gen)
        fresh = [u for u in range(1, n + 1) if u not in set(current)]
        gen.shuffle(fresh)

        isolating_slots: List[int] = []
        latencies: List[int] = []
        histories: List[Tuple[int, ...]] = []
        iterations = min(k, n - k) if n > k else 1
        iterations = max(1, iterations)

        for _ in range(iterations):
            pattern = WakeupPattern(n, {u: 0 for u in current})
            result = run_deterministic_batch(
                self.protocol, [pattern], max_slots=self.max_slots
            )[0]
            histories.append(tuple(current))
            if not result.solved:
                # The protocol never isolates this set within the horizon: the
                # adversary has already won; record a sentinel latency.
                latencies.append(self.max_slots)
                break
            assert result.success_slot is not None and result.winner is not None
            r = result.success_slot
            isolating_slots.append(r)
            latencies.append(result.require_solved())
            if not fresh:
                break
            # Following the proof, prefer a replacement that does NOT transmit at
            # the isolating round: then the old round cannot isolate the new set,
            # forcing the protocol to reserve a different round for it.  One
            # batch query over every fresh station answers "who transmits at r".
            candidates = np.asarray(fresh, dtype=np.int64)
            pair_index, _ = self.protocol.batch_transmit_slots(
                candidates, np.zeros_like(candidates), r, r + 1
            )
            silent = np.ones(candidates.size, dtype=bool)
            silent[pair_index] = False
            preferred = candidates[silent]
            replacement = int(preferred[-1]) if preferred.size else fresh[-1]
            fresh.remove(replacement)
            current = sorted(set(current) - {result.winner} | {replacement})

        return AdversaryReport(
            n=n,
            k=k,
            protocol=self.protocol.describe(),
            distinct_isolating_slots=len(set(isolating_slots)),
            max_latency=max(latencies) if latencies else 0,
            latencies=tuple(latencies),
            contender_sets=tuple(histories),
        )


@dataclass(frozen=True)
class AdversaryReport:
    """Result of one run of :class:`AdaptiveLowerBoundAdversary`."""

    n: int
    k: int
    protocol: str
    distinct_isolating_slots: int
    max_latency: int
    latencies: Tuple[int, ...]
    contender_sets: Tuple[Tuple[int, ...], ...]

    @property
    def theoretical_bound(self) -> int:
        """The paper's ``min{k, n-k+1}`` lower bound for these parameters."""
        return min(self.k, self.n - self.k + 1)
