"""The Komlós–Greenberg synchronized selective-family schedule.

Komlós & Greenberg (reference [25] of the paper) solve conflict resolution
when all ``k ≤ n`` contenders become active **simultaneously**: run the
concatenation of ``(n, 2^j)``-selective families for ``j = 1, 2, ...`` from
the (common) activation time; the family matching ``|X|`` isolates a station
within ``O(k + k log(n/k))`` slots.

On the non-synchronized workloads of this paper the schedule is exactly
"``wait_and_go`` without the waiting": stations start following the globally
anchored schedule as soon as they wake, so the contender set can change in the
middle of a family and the selectivity guarantee no longer applies.  The class
is used two ways:

* as the classical baseline for the synchronized experiments (E9), where it is
  correct and optimal; and
* as the ablation for the "why wait for a family boundary?" design question
  (E10), where its degradation on staggered wake-ups motivates the paper's
  waiting rule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro._util import RngLike, validate_k_n
from repro.channel.protocols import DeterministicProtocol
from repro.combinatorics.set_family import SetFamily
from repro.core.schedules import CyclicFamilySchedule
from repro.core.selective import concatenate_families, concatenated_families

__all__ = ["KomlosGreenberg"]


class KomlosGreenberg(DeterministicProtocol):
    """Globally anchored concatenation of selective families, no waiting rule.

    Parameters
    ----------
    n:
        Universe size.
    k:
        Bound used to size the concatenation (``⌈log k⌉`` families); pass
        ``n`` when no bound is known.
    families:
        Optional pre-built families (shared with a ``WaitAndGo`` instance to
        make ablation comparisons schedule-for-schedule identical).
    rng:
        Seed used when ``families`` is omitted.
    """

    name = "komlos-greenberg"

    def __init__(
        self,
        n: int,
        k: Optional[int] = None,
        families: Optional[Sequence[SetFamily]] = None,
        *,
        rng: RngLike = None,
    ) -> None:
        super().__init__(n)
        k = n if k is None else k
        self.k, _ = validate_k_n(k, n)
        if families is None:
            families = concatenated_families(n, self.k, rng=rng)
        self.families: List[SetFamily] = list(families)
        self._cyclic = CyclicFamilySchedule(concatenate_families(families))

    @property
    def period(self) -> int:
        """Length of one pass over the concatenated schedule."""
        return self._cyclic.family.length

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        return self._cyclic.transmits(station, wake_time, slot)

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        return self._cyclic.transmit_slots(station, wake_time, start, stop)

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._cyclic.batch_transmit_slots(stations, wakes, start, stop)

    def describe(self) -> str:
        return f"{self.name}(n={self.n}, k={self.k}, period={self.period})"
