"""Round-robin (time-division multiplexing) — the classical baseline arm.

Round-robin assigns slot ``t`` to station ``(t mod n) + 1``: a station
transmits exactly when it is awake and it is its turn.  For ``k`` contenders
waking at arbitrary times it resolves contention within at most ``n`` slots of
the first wake-up, and within ``n - k + 1`` slots when all contenders wake
simultaneously (only the ``n - k`` turns of non-contenders are wasted).  The
paper interleaves it with the selective-family arms because, by
Corollary 2.1, round-robin is already asymptotically optimal when ``k`` is a
constant fraction of ``n``.
"""

from __future__ import annotations

import numpy as np

from repro._util import ragged_arange
from repro.channel.protocols import DeterministicProtocol

__all__ = ["RoundRobin", "periodic_batch_transmit_slots"]


def periodic_batch_transmit_slots(
    stations: np.ndarray, wakes: np.ndarray, start: int, stop: int, period: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch query for "station ``u`` owns slot ``u - 1 mod period``".

    Shared by :class:`RoundRobin` and :class:`~repro.baselines.tdma.TDMA`
    (whose frame may exceed ``n``); returns the ``(pair_index, slots)`` pair
    described by
    :meth:`~repro.channel.protocols.DeterministicProtocol.batch_transmit_slots`.
    """
    stations = np.asarray(stations, dtype=np.int64)
    wakes = np.asarray(wakes, dtype=np.int64)
    lo = np.maximum(wakes, int(start))
    first = lo + ((stations - 1 - lo) % period)
    counts = np.where(first < stop, (int(stop) - 1 - first) // period + 1, 0)
    pair_index = np.repeat(np.arange(len(stations), dtype=np.int64), counts)
    slots = np.repeat(first, counts) + ragged_arange(counts) * period
    return pair_index, slots


class RoundRobin(DeterministicProtocol):
    """Station ``u`` transmits at slot ``t`` iff awake and ``t ≡ u - 1 (mod n)``.

    Examples
    --------
    >>> rr = RoundRobin(4)
    >>> [rr.transmits(3, 0, t) for t in range(4)]
    [False, False, True, False]
    """

    name = "round-robin"

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        if slot < wake_time:
            return False
        return slot % self.n == station - 1

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        lo = max(int(start), int(wake_time))
        hi = int(stop)
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        phase = station - 1
        first = lo + ((phase - lo) % self.n)
        if first >= hi:
            return np.empty(0, dtype=np.int64)
        return np.arange(first, hi, self.n, dtype=np.int64)

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return periodic_batch_transmit_slots(stations, wakes, start, stop, self.n)
