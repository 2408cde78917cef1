"""Scenario C — neither ``s`` nor ``k`` is known (Section 5 of the paper).

The protocol ``wakeup(u, σ)`` (Section 5.1) run by a station ``u`` woken at
slot ``σ``:

1. wait until ``t' = µ(σ)``, the next window boundary (a multiple of the
   window length ``log log n``);
2. for rows ``i = 1, 2, ..., log n``: during the next ``m_i`` slots
   (``m_i = c · 2^i · log n · log log n``), at slot ``t`` transmit iff
   ``u ∈ M_{i, t mod ℓ}``;
3. stop after exhausting all rows.

The station therefore descends the rows of the transmission matrix, spending
exponentially more time on each; all currently-operational stations read the
*same column* ``t mod ℓ`` (they may be on different rows depending on their
wake-up time), which is what makes the isolation analysis of Section 5.2 work.

The theoretical guarantee (Theorem 5.3): with a waking matrix, wake-up is
solved within ``O(k log n log log n)`` slots of the first wake-up.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._util import validate_positive_int
from repro.channel.protocols import DeterministicProtocol
from repro.core.waking_matrix import (
    HashedTransmissionMatrix,
    MatrixParameters,
    TransmissionMatrix,
    matrix_batch_transmit_slots,
    matrix_parameters,
)

__all__ = ["WakeupProtocol"]


class WakeupProtocol(DeterministicProtocol):
    """Algorithm ``wakeup(n)`` (Section 5.4): the general Scenario C protocol.

    A native fast-path protocol of the batch engine: it overrides
    :meth:`batch_transmit_slots` with one vectorized computation
    (:func:`~repro.core.waking_matrix.matrix_batch_transmit_slots`).  A
    pair's transmit slots depend only on its station and its ``µ(σ)``, so
    the pairs are deduplicated into ``(station, µ)`` keys; each key's
    operational cells are split into row segments from the cumulative row
    spans and hashed from one station term per key, one row term per row
    and one column term per cell; the member cells are then expanded back
    to the pairs holding each key.  Hash work thus scales with distinct
    keys, not pairs — a batch of B patterns over one ``n`` repeats
    stations — and E3/E5/E7/E10 sweeps and the adversarial search run at
    engine speed instead of the generic pair-by-pair fallback.

    Parameters
    ----------
    n:
        Universe size (the only parameter the stations know).
    matrix:
        The transmission matrix to use.  Defaults to a fresh
        :class:`~repro.core.waking_matrix.HashedTransmissionMatrix` drawn from
        the paper's distribution with the given ``seed``.
    c:
        The constant in ``m_i`` and ``ℓ`` (only used when ``matrix`` is not
        supplied).
    window:
        Override of the window length (ablation E10; only used when ``matrix``
        is not supplied).
    seed:
        Seed of the default hashed matrix.

    Examples
    --------
    >>> from repro.channel import WakeupPattern, run_deterministic
    >>> protocol = WakeupProtocol(64, seed=7)
    >>> pattern = WakeupPattern(64, {3: 0, 17: 5, 40: 11})
    >>> run_deterministic(protocol, pattern).solved
    True
    """

    name = "wakeup-scenario-c"

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
    def params(self) -> MatrixParameters:
        """The matrix parameters (rows, window, row spans, length)."""
        return self.matrix.params

    # -- per-station geometry -------------------------------------------------

    def operational_start(self, wake_time: int) -> int:
        """``µ(σ)`` — when a station woken at ``wake_time`` starts executing rows."""
        return self.params.mu(wake_time)

    def row_at(self, wake_time: int, slot: int) -> Optional[int]:
        """Row the station is executing at ``slot`` (None while waiting / after exhaustion)."""
        mu = self.operational_start(wake_time)
        if slot < mu:
            return None
        return self.params.row_at_offset(slot - mu)

    # -- protocol --------------------------------------------------------------

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        if slot < wake_time:
            return False
        row = self.row_at(wake_time, slot)
        if row is None:
            return False
        return self.matrix.contains(row, slot % self.params.length, station)

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        lo = max(int(start), int(wake_time))
        hi = int(stop)
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        params = self.params
        mu = self.operational_start(wake_time)
        if mu >= hi:
            return np.empty(0, dtype=np.int64)
        pieces = []
        row_start = mu
        for row, span in enumerate(params.row_spans, start=1):
            row_stop = row_start + span
            seg_lo = max(lo, row_start)
            seg_hi = min(hi, row_stop)
            if seg_lo < seg_hi:
                slots = np.arange(seg_lo, seg_hi, dtype=np.int64)
                member = self.matrix.membership_for_station(
                    station, row, slots % params.length
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
        # Pair j is a candidate transmitter over [µ(σ_j), µ(σ_j) + total_span)
        # (µ(σ) >= σ, so the wake-time floor is implied); the shared helper
        # resolves the enumerated cells with batched hash evaluations.
        return matrix_batch_transmit_slots(
            self.matrix,
            stations,
            self.params.mu_array(np.asarray(wakes, dtype=np.int64)),
            start,
            stop,
        )

    def describe(self) -> str:
        p = self.params
        return (
            f"{self.name}(n={self.n}, rows={p.rows}, window={p.window}, "
            f"c={p.c}, length={p.length})"
        )
