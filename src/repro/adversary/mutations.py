"""Local mutation operators over wake-up patterns.

The guided search (:mod:`repro.adversary.search`) explores the wake-pattern
space by perturbing known-bad patterns instead of redrawing them from
scratch.  Every operator maps a valid pattern to a valid neighbour with the
*same* number of awake stations and non-negative wake times — the
invariants the property suite pins down:

* :func:`shift_row` — move one station's wake time by a small offset
  (explores the temporal axis: stragglers, near-collisions);
* :func:`swap_row` — trade one awake station for a sleeping one, keeping
  its wake slot (explores the subset axis, which matters for protocols whose
  schedules key on station identity);
* :func:`merge_row` — snap one station's wake time onto another's
  (pushes toward synchronized bursts, the classical hard case).

Each operator is written once, as a *row operator* ``(n, stations,
wake_times, rng, *, max_shift, max_time) -> (stations, wake_times)`` over
one aligned ``int64`` row, the form a search step's
:class:`~repro.channel.wakeup.PatternBatch` is built from.  A station is
picked by its rank among the row's sorted IDs, so the draws do not depend
on the pair order; the result's pair order is part of the contract,
because the randomized engines draw in it: a swap drops the outgoing
station and appends the incoming one last, shift and merge keep the order.
A :class:`~repro.channel.wakeup.WakeupPattern` enters through
:meth:`~repro.channel.wakeup.WakeupPattern.pair_arrays` and a row leaves
through :meth:`~repro.channel.wakeup.WakeupPattern.from_arrays`.

At the boundaries of the space, a swap with no sleeping station to trade in
or a merge of a single-station pattern falls back to a shift, so
:func:`mutate_row` always makes *some* move.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro._util import RngLike, as_generator
from repro.channel.adversary import Row

__all__ = [
    "shift_row",
    "swap_row",
    "merge_row",
    "mutate_row",
    "ROW_MUTATIONS",
]


def _clamp_time(t: int, max_time: Optional[int]) -> int:
    t = max(0, int(t))
    if max_time is not None:
        t = min(t, int(max_time))
    return t


def _rank(gen: np.random.Generator, size: int) -> int:
    """A uniform index in ``[0, size)``: the draw ``gen.choice`` makes on ``size`` items."""
    return int(gen.integers(0, size))


def shift_row(
    n: int,
    stations: np.ndarray,
    wake_times: np.ndarray,
    rng: RngLike = None,
    *,
    max_shift: int = 8,
    max_time: Optional[int] = None,
) -> Row:
    """Move one station's wake time by a uniform offset in ``[-max_shift, max_shift]``.

    The result is clamped to ``[0, max_time]`` (``max_time=None`` leaves the
    upper end open).  A zero draw is re-mapped to ``+1`` so the operator never
    returns the input unchanged unless a clamp undoes the move.
    """
    if max_shift < 1:
        raise ValueError(f"max_shift must be >= 1, got {max_shift}")
    gen = as_generator(rng)
    position = int(np.argsort(stations)[_rank(gen, stations.size)])
    delta = int(gen.integers(-max_shift, max_shift + 1)) or 1
    times = np.array(wake_times, dtype=np.int64)
    times[position] = _clamp_time(times[position] + delta, max_time)
    return stations, times


def swap_row(
    n: int,
    stations: np.ndarray,
    wake_times: np.ndarray,
    rng: RngLike = None,
    *,
    max_shift: int = 8,
    max_time: Optional[int] = None,
) -> Row:
    """Replace one awake station with a sleeping one at the same wake slot.

    Keeps the temporal shape fixed while exploring the identity axis.  The
    outgoing station's pair is dropped and the incoming one is appended
    last.  When every station is already awake (``k == n``) there is nothing
    to swap in, so the operator falls back to :func:`shift_row`.
    """
    gen = as_generator(rng)
    k = stations.size
    if k >= n:
        return shift_row(n, stations, wake_times, gen, max_shift=max_shift, max_time=max_time)
    order = np.argsort(stations)
    out_position = int(order[_rank(gen, k)])
    # The j-th sleeping ID (0-based) is j + 1 plus the number of awake IDs
    # below it; awake ID s_i (i-th smallest) is below it iff s_i - i <= j + 1.
    j = _rank(gen, n - k)
    awake = stations[order]
    in_station = j + 1 + int(np.searchsorted(awake - np.arange(k), j + 1, side="right"))
    keep = np.arange(k) != out_position
    return (
        np.append(stations[keep], np.int64(in_station)),
        np.append(wake_times[keep], wake_times[out_position]),
    )


def merge_row(
    n: int,
    stations: np.ndarray,
    wake_times: np.ndarray,
    rng: RngLike = None,
    *,
    max_shift: int = 8,
    max_time: Optional[int] = None,
) -> Row:
    """Snap one station's wake time onto another station's.

    Coalesces wake slots into bursts — repeated merges drive a spread-out
    pattern toward the synchronized case.  A single-station pattern has
    nothing to merge, so the operator falls back to :func:`shift_row`.
    """
    gen = as_generator(rng)
    k = stations.size
    if k < 2:
        return shift_row(n, stations, wake_times, gen, max_shift=max_shift, max_time=max_time)
    mover, target = np.argsort(stations)[gen.choice(k, size=2, replace=False)].tolist()
    times = np.array(wake_times, dtype=np.int64)
    times[mover] = _clamp_time(times[target], max_time)
    return stations, times


#: Registry of the named row operators, in the order :func:`mutate_row`
#: draws from.  All share the ``(n, stations, wake_times, rng, *, max_shift,
#: max_time)`` signature so strategies can weight them uniformly.
ROW_MUTATIONS: Dict[str, Callable[..., Row]] = {
    "shift": shift_row,
    "swap": swap_row,
    "merge": merge_row,
}


def mutate_row(
    n: int,
    stations: np.ndarray,
    wake_times: np.ndarray,
    rng: RngLike = None,
    *,
    max_shift: int = 8,
    max_time: Optional[int] = None,
    ops: Optional[Sequence[str]] = None,
) -> Row:
    """Apply one randomly chosen row operator to one row.

    ``ops`` restricts the draw to a subset of :data:`ROW_MUTATIONS` keys (the
    full registry by default, in its fixed insertion order so the stream of
    choices is reproducible).  The result is always a valid row with the
    same number of awake stations as the input.
    """
    gen = as_generator(rng)
    names = list(ROW_MUTATIONS) if ops is None else list(ops)
    unknown = [name for name in names if name not in ROW_MUTATIONS]
    if unknown:
        raise KeyError(f"unknown mutation(s) {unknown}; registered: {sorted(ROW_MUTATIONS)}")
    name = names[int(gen.integers(0, len(names)))]
    return ROW_MUTATIONS[name](
        n, stations, wake_times, gen, max_shift=max_shift, max_time=max_time
    )

