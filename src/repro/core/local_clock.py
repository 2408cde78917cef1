"""Locally synchronous variants (extension; the paper's final open question).

The paper's algorithms all assume a **global clock**: every station reads the
same round number, which is what lets ``wait_and_go`` wait for a family
boundary and lets the Scenario C protocol align all operational stations on
the same matrix column.  The conclusions ask "whether global clock helps in
the wake-up task" and conjecture that the nearly-logarithmic gap to the best
known locally-synchronous solution cannot be removed.

This module provides the locally-synchronous counterparts used by the
extension experiment E11 to quantify that gap empirically:

* :class:`LocalClockWakeup` — each station runs the concatenation of
  ``(n, 2^j)``-selective families indexed by its **local** time (slots since
  its own wake-up).  With simultaneous wake-ups this is exactly the
  Komlós–Greenberg schedule; with staggered wake-ups the stations' schedules
  are mutually shifted, the contender set seen by a family execution is no
  longer fixed, and the selectivity guarantee degrades — which is precisely
  the failure mode the paper's waiting rule and waking matrix are designed to
  avoid.

* :class:`LocalClockScenarioC` — the Scenario C protocol driven by local time
  instead of the global clock: stations still descend the matrix rows, but
  each indexes the matrix columns by its own local time, so two stations in
  the same slot may read *different* columns.

Either protocol becomes correct in the eventual sense when interleaved with
round-robin, ``InterleavedProtocol([RoundRobin(n), LocalClockWakeup(n, k)])``,
whose round-robin arm guarantees a success within ``2n`` slots of the first
wake-up.  E11 runs both protocols bare: the point of the experiment is the
latency gap, not correctness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro._util import RngLike, validate_k_n, validate_positive_int
from repro.channel.protocols import DeterministicProtocol
from repro.combinatorics.set_family import SetFamily
from repro.core.schedules import cyclic_slots
from repro.core.selective import concatenate_families, concatenated_families
from repro.core.waking_matrix import (
    HashedTransmissionMatrix,
    TransmissionMatrix,
    matrix_batch_transmit_slots,
    matrix_parameters,
)

__all__ = ["LocalClockWakeup", "LocalClockScenarioC"]


class LocalClockWakeup(DeterministicProtocol):
    """Selective-family schedule indexed by each station's local clock.

    Parameters
    ----------
    n:
        Universe size.
    k:
        Bound used to size the concatenation (pass ``n`` when unknown).
    families:
        Optional pre-built families (shared with the globally-clocked
        protocols so comparisons are schedule-for-schedule identical).
    cyclic:
        Whether to repeat the concatenation once exhausted (default True, so
        the protocol never goes permanently silent).
    rng:
        Seed used when ``families`` is omitted.
    """

    name = "local-clock-wakeup"

    def __init__(
        self,
        n: int,
        k: Optional[int] = None,
        families: Optional[Sequence[SetFamily]] = None,
        *,
        cyclic: bool = True,
        rng: RngLike = None,
    ) -> None:
        super().__init__(n)
        k = n if k is None else k
        self.k, _ = validate_k_n(k, n)
        if families is None:
            families = concatenated_families(n, self.k, rng=rng)
        self.families: List[SetFamily] = list(families)
        for fam in self.families:
            if fam.n != n:
                raise ValueError(
                    f"selective family built for n={fam.n}, protocol expects n={n}"
                )
        self._combined: SetFamily = concatenate_families(families)
        self.cyclic = bool(cyclic)
        self._index = self._combined.station_index()

    @property
    def period(self) -> int:
        """Length of one pass over the concatenated schedule."""
        return self._combined.length

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        if slot < wake_time:
            return False
        local = slot - wake_time
        if not self.cyclic and local >= self.period:
            return False
        return self._combined.contains(station, local % self.period)

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        offsets = self._index.slots_of(station)
        lo = max(int(start), int(wake_time))
        hi = int(stop)
        if self.cyclic:
            return cyclic_slots(offsets, self.period, int(wake_time), lo, hi)
        slots = wake_time + offsets
        return slots[(slots >= lo) & (slots < hi)]

    def describe(self) -> str:
        return f"{self.name}(n={self.n}, k={self.k}, period={self.period}, cyclic={self.cyclic})"


class LocalClockScenarioC(DeterministicProtocol):
    """The Scenario C protocol with matrix columns indexed by local time.

    Identical row progression to :class:`repro.core.scenario_c.WakeupProtocol`
    (wait until the local window boundary, then spend ``m_i`` slots on row
    ``i``), but the column used at local time ``τ`` is ``τ mod ℓ`` instead of
    the global ``t mod ℓ`` — stations no longer read the same column, which
    removes the alignment the isolation analysis of Section 5.2 relies on.
    """

    name = "local-clock-scenario-c"

    def __init__(
        self,
        n: int,
        *,
        matrix: Optional[TransmissionMatrix] = None,
        c: int = 2,
        window: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        n = validate_positive_int(n, "n")
        super().__init__(n)
        if matrix is None:
            params = matrix_parameters(n, c=c, window=window)
            matrix = HashedTransmissionMatrix(params, seed=seed)
        elif matrix.n != n:
            raise ValueError(f"matrix built for n={matrix.n}, protocol expects n={n}")
        self.matrix = matrix

    @property
    def params(self):
        """The matrix parameters (shared shape with the global-clock protocol)."""
        return self.matrix.params

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        if slot < wake_time:
            return False
        params = self.params
        # On a local clock the station is operational immediately: its own local
        # time 0 is trivially a window boundary, so there is no waiting phase.
        local = slot - wake_time
        row = params.row_at_offset(local)
        if row is None:
            return False
        return self.matrix.contains(row, local % params.length, station)

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        lo = max(int(start), int(wake_time))
        hi = int(stop)
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        params = self.params
        pieces = []
        row_start = wake_time
        for row, span in enumerate(params.row_spans, start=1):
            row_stop = row_start + span
            seg_lo = max(lo, row_start)
            seg_hi = min(hi, row_stop)
            if seg_lo < seg_hi:
                slots = np.arange(seg_lo, seg_hi, dtype=np.int64)
                member = self.matrix.membership_for_station(
                    station, row, (slots - wake_time) % params.length
                )
                if member.any():
                    pieces.append(slots[member])
            row_start = row_stop
            if row_start >= hi:
                break
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        # Mirror of WakeupProtocol.batch_transmit_slots on the local
        # timeline: pair j is operational over [σ_j, σ_j + total_span) (no
        # waiting phase) and indexes rows and columns by slot - σ_j.
        return matrix_batch_transmit_slots(
            self.matrix, stations, wakes, start, stop, local_columns=True
        )

    def describe(self) -> str:
        p = self.params
        return f"{self.name}(n={self.n}, rows={p.rows}, window={p.window}, c={p.c})"
