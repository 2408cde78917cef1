"""Scenario A — the starting time ``s`` is known (Section 3 of the paper).

Two protocols:

* :class:`SelectAmongTheFirst` — only stations awakened *at* the known first
  slot ``s`` participate; they transmit according to the concatenation of
  ``(n, 2^j)``-selective families for ``j = 1, 2, ...`` starting at ``s``.
  All later wakers stay silent.  Correctness: the participant set ``X`` is
  fixed and non-empty, so the ``(n, 2^i)``-selective family with
  ``2^{i-1} <= |X| <= 2^i`` isolates some member of ``X``; the time spent is
  ``O(2 + 2 log(n/2) + ... + |X| + |X| log(n/|X|)) = O(k + k log(n/k))``.

* :class:`WakeupWithS` — the paper's final Scenario A algorithm: the
  interleaving of round-robin (optimal for ``k > n/c``) with
  ``select_among_the_first`` (optimal for ``k <= n/64``), achieving
  ``Θ(k log(n/k) + 1)`` overall.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro._util import RngLike, validate_positive_int
from repro.channel.protocols import DeterministicProtocol
from repro.combinatorics.set_family import SetFamily
from repro.core.round_robin import RoundRobin
from repro.core.schedules import FamilySchedule, InterleavedProtocol, virtual_wake_time
from repro.core.selective import concatenate_families, concatenated_families

__all__ = ["SelectAmongTheFirst", "WakeupWithS"]


class SelectAmongTheFirst(DeterministicProtocol):
    """Algorithm ``select_among_the_first`` (Section 3).

    Parameters
    ----------
    n:
        Universe size.
    s:
        The known first wake-up slot.  On this protocol's timeline, stations
        with ``wake_time <= s`` are the participants (the paper says
        "awakened in round s"; since ``s`` is the *first* wake-up, the two
        formulations coincide, and ``<=`` is the robust choice when the
        protocol is embedded in an interleave whose virtual clock may merge
        ``s`` with ``s+1``).
    families:
        The concatenation skeleton — ``(n, 2^j)``-selective families for
        ``j = 1..⌈log n⌉``.  Built with the default randomized construction
        when omitted.
    rng:
        Seed used when ``families`` is omitted.
    """

    name = "select-among-the-first"

    def __init__(
        self,
        n: int,
        s: int,
        families: Optional[Sequence[SetFamily]] = None,
        *,
        rng: RngLike = None,
    ) -> None:
        super().__init__(n)
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        self.s = int(s)
        if families is None:
            families = concatenated_families(n, n, rng=rng)
        self.families: List[SetFamily] = list(families)
        for fam in self.families:
            if fam.n != n:
                raise ValueError(
                    f"selective family built for n={fam.n}, protocol expects n={n}"
                )
        self._combined = concatenate_families(families)
        self._schedule = FamilySchedule(self._combined, origin=self.s)

    @property
    def schedule_length(self) -> int:
        """Total number of slots the concatenated schedule occupies."""
        return self._combined.length

    def participates(self, wake_time: int) -> bool:
        """Whether a station with this wake-up time takes part in the schedule."""
        return wake_time <= self.s

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        if slot < wake_time or not self.participates(wake_time):
            return False
        return self._schedule.transmits(station, wake_time, slot)

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        if not self.participates(wake_time):
            return np.empty(0, dtype=np.int64)
        return self._schedule.transmit_slots(station, wake_time, start, stop)

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        stations = np.asarray(stations, dtype=np.int64)
        wakes = np.asarray(wakes, dtype=np.int64)
        participating = np.flatnonzero(wakes <= self.s)
        pidx, slots = self._schedule.batch_transmit_slots(
            stations[participating], wakes[participating], start, stop
        )
        return participating[pidx], slots

    def describe(self) -> str:
        return f"{self.name}(n={self.n}, s={self.s}, length={self.schedule_length})"


class WakeupWithS(InterleavedProtocol):
    """Algorithm ``wakeup_with_s`` (Section 3): interleave round-robin with
    ``select_among_the_first``.

    Even absolute slots run round-robin; odd absolute slots run the selective
    arm (the assignment of parities is irrelevant to the asymptotics).  The
    resulting worst-case latency is
    ``Θ(min{n - k + 1, k log(n/k) + k}) = Θ(k log(n/k) + 1)``.

    Parameters
    ----------
    n:
        Universe size.
    s:
        The known first wake-up slot (absolute).
    families:
        Optional pre-built selective families for the selective arm.
    rng:
        Seed used when ``families`` is omitted.
    """

    name = "wakeup-with-s"

    def __init__(
        self,
        n: int,
        s: int,
        families: Optional[Sequence[SetFamily]] = None,
        *,
        rng: RngLike = None,
    ) -> None:
        n = validate_positive_int(n, "n")
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        self.s = int(s)
        # The selective arm lives on component 1 of a 2-way interleave; its
        # notion of "the first slot" is the virtual slot corresponding to s.
        virtual_s = virtual_wake_time(self.s, component=1, arity=2)
        self.round_robin_arm = RoundRobin(n)
        self.selective_arm = SelectAmongTheFirst(n, virtual_s, families, rng=rng)
        super().__init__([self.round_robin_arm, self.selective_arm])

    def describe(self) -> str:
        return (
            f"{self.name}(n={self.n}, s={self.s}, "
            f"selective_length={self.selective_arm.schedule_length})"
        )
