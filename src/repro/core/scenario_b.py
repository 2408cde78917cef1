"""Scenario B — the bound ``k`` on contenders is known (Section 4 of the paper).

Two protocols:

* :class:`WaitAndGo` — the global clock indexes a cyclic schedule ``F`` formed
  by the concatenation of ``(n, 2^i)``-selective families for
  ``i = 1..⌈log k⌉`` (total length ``z``).  A station waking at slot ``j``
  stays silent until the first slot ``σ >= j`` at which the schedule is at the
  *beginning* of one of the families, then transmits according to
  ``F_{t mod z}`` for every ``t >= σ``.  Waiting for a family boundary
  guarantees that the contender set involved in any single family execution
  does not change mid-family, which is exactly what the selectivity property
  needs.

* :class:`WakeupWithK` — the paper's final Scenario B algorithm: the
  interleaving of round-robin with ``wait_and_go``, achieving
  ``Θ(k log(n/k) + 1)``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._util import RngLike, validate_k_n, validate_positive_int
from repro.channel.protocols import DeterministicProtocol
from repro.combinatorics.set_family import SetFamily
from repro.core.round_robin import RoundRobin
from repro.core.schedules import CyclicFamilySchedule, InterleavedProtocol
from repro.core.selective import concatenate_families, concatenated_families

__all__ = ["WaitAndGo", "WakeupWithK"]


class WaitAndGo(DeterministicProtocol):
    """Algorithm ``wait_and_go`` (Section 4).

    Parameters
    ----------
    n:
        Universe size.
    k:
        Known upper bound on the number of contenders (``1 <= k <= n``).
    families:
        The ``(n, 2^i)``-selective families for ``i = 1..⌈log k⌉``; built with
        the default randomized construction when omitted.
    rng:
        Seed used when ``families`` is omitted.

    Notes
    -----
    The schedule is anchored at the global clock: slot ``t`` uses transmission
    set ``F_{t mod z}`` regardless of when anybody woke up; only the *waiting*
    rule depends on the wake-up time.
    """

    name = "wait-and-go"

    def __init__(
        self,
        n: int,
        k: int,
        families: Optional[Sequence[SetFamily]] = None,
        *,
        rng: RngLike = None,
    ) -> None:
        k, n = validate_k_n(k, n)
        super().__init__(n)
        self.k = k
        if families is None:
            families = concatenated_families(n, k, rng=rng)
        self.families: List[SetFamily] = list(families)
        for fam in self.families:
            if fam.n != n:
                raise ValueError(
                    f"selective family built for n={fam.n}, protocol expects n={n}"
                )
        self._combined: SetFamily = concatenate_families(families)
        # Boundary offsets are the cumulative lengths of the prefix families.
        boundaries = [0]
        running = 0
        for fam in self.families[:-1]:
            running += fam.length
            boundaries.append(running)
        self._boundaries: Tuple[int, ...] = tuple(boundaries)
        self._cyclic = CyclicFamilySchedule(self._combined)

    # -- schedule geometry ---------------------------------------------------

    @property
    def period(self) -> int:
        """``z`` — the total length of the concatenated schedule."""
        return self._combined.length

    def family_boundaries(self) -> Tuple[int, ...]:
        """Offsets (within one period) at which each selective family begins."""
        return self._boundaries

    def boundary_slots(self, up_to: int) -> List[int]:
        """Absolute slots ``< up_to`` at which some family begins (for adversaries)."""
        z = self.period
        slots: List[int] = []
        cycle = 0
        while cycle * z < up_to:
            for b in self._boundaries:
                slot = cycle * z + b
                if slot < up_to:
                    slots.append(slot)
            cycle += 1
        return slots

    def activation_slot(self, wake_time: int) -> int:
        """``σ`` — the first slot ``>= wake_time`` at which a family begins.

        This is when a station woken at ``wake_time`` starts transmitting.
        """
        if wake_time < 0:
            raise ValueError(f"wake_time must be >= 0, got {wake_time}")
        z = self.period
        r = wake_time % z
        idx = bisect_left(self._boundaries, r)
        if idx < len(self._boundaries):
            return wake_time + (self._boundaries[idx] - r)
        # Wrap to the start of the next period (boundary 0).
        return wake_time + (z - r)

    # -- protocol ------------------------------------------------------------

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        if slot < wake_time:
            return False
        sigma = self.activation_slot(wake_time)
        if slot < sigma:
            return False
        return self._combined.contains(station, slot % self.period)

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        sigma = self.activation_slot(wake_time)
        return self._cyclic.transmit_slots(station, sigma, start, stop)

    def activation_slots(self, wake_times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`activation_slot` for an array of wake times."""
        wake_times = np.asarray(wake_times, dtype=np.int64)
        z = self.period
        # Append z so that "wrap to the next period" falls out of searchsorted.
        boundaries = np.asarray(self._boundaries + (z,), dtype=np.int64)
        r = wake_times % z
        idx = np.searchsorted(boundaries, r, side="left")
        return wake_times + boundaries[idx] - r

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        sigmas = self.activation_slots(np.asarray(wakes, dtype=np.int64))
        return self._cyclic.batch_transmit_slots(stations, sigmas, start, stop)

    def describe(self) -> str:
        return f"{self.name}(n={self.n}, k={self.k}, period={self.period})"


class WakeupWithK(InterleavedProtocol):
    """Algorithm ``wakeup_with_k`` (Section 4): interleave round-robin with
    ``wait_and_go``.

    Worst-case latency ``Θ(min{n - k + 1, k + k log(n/k)}) = Θ(k log(n/k) + 1)``.
    """

    name = "wakeup-with-k"

    def __init__(
        self,
        n: int,
        k: int,
        families: Optional[Sequence[SetFamily]] = None,
        *,
        rng: RngLike = None,
    ) -> None:
        n = validate_positive_int(n, "n")
        self.k, _ = validate_k_n(k, n)
        self.round_robin_arm = RoundRobin(n)
        self.wait_and_go_arm = WaitAndGo(n, k, families, rng=rng)
        super().__init__([self.round_robin_arm, self.wait_and_go_arm])

    def family_boundaries_absolute(self, up_to: int) -> List[int]:
        """Absolute slots (on the interleaved timeline) at which families begin.

        Useful for constructing adversarial wake-up patterns: the wait-and-go
        arm owns component 1, so its virtual boundary ``v`` corresponds to
        absolute slot ``1 + 2v``.
        """
        virtual_up_to = max(0, (up_to - 1) // 2 + 1)
        return [1 + 2 * v for v in self.wait_and_go_arm.boundary_slots(virtual_up_to) if 1 + 2 * v < up_to]

    def describe(self) -> str:
        return (
            f"{self.name}(n={self.n}, k={self.k}, "
            f"period={self.wait_and_go_arm.period})"
        )
