"""The integer parameters of the Scenario C waking matrix (Section 5.2).

:class:`MatrixParameters` / :func:`matrix_parameters` fix ``log n``,
``log log n`` (the window length), the row spans ``m_i``, the matrix length
``ℓ``, ``µ`` and ``ρ`` for a universe size ``n``, with the floors and
ceilings the paper omits made explicit.  They live apart from the matrices
themselves (:mod:`repro.core.waking_matrix`, which re-exports both), so a
caller that needs only the parameters, such as the ``window-boundary``
workload's default window, does not load the matrix machinery.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Optional, Tuple

import numpy as np

from repro._util import ceil_log2, ragged_arange, validate_positive_int

__all__ = ["MatrixParameters", "matrix_parameters"]


@dataclass(frozen=True)
class MatrixParameters:
    """Integer parameters of the Scenario C construction for a given ``n``.

    Attributes
    ----------
    n:
        Universe size.
    c:
        The paper's "sufficiently large constant" — configurable so that the
        ablation experiment E10 can study its effect.
    rows:
        ``⌈log₂ n⌉`` (at least 1) — the number of matrix rows.
    window:
        The window length, the paper's ``log log n`` (at least 1).
    length:
        ``ℓ = 2 · c · n · rows · window`` — the number of matrix columns.
    row_spans:
        ``m_i = c · 2^i · rows · window`` for ``i = 1..rows`` — how many slots
        a station spends transmitting conditionally to row ``i``.
    """

    n: int
    c: int
    rows: int
    window: int
    length: int
    row_spans: Tuple[int, ...]

    @cached_property
    def cumulative_spans(self) -> Tuple[int, ...]:
        """Cumulative row spans ``(m_1, m_1+m_2, ..., m_1+...+m_rows)``.

        Entry ``i`` is the offset (since becoming operational) at which row
        ``i + 2`` would begin; the last entry equals :attr:`total_span`.
        Computed once so :meth:`row_at_offset` is a bisection, not an O(rows)
        scan per slot.
        """
        return tuple(accumulate(self.row_spans))

    @cached_property
    def _cumulative_spans_array(self) -> np.ndarray:
        return np.asarray(self.cumulative_spans, dtype=np.int64)

    @cached_property
    def _row_starts_array(self) -> np.ndarray:
        """Offset at which each row begins (entry ``i`` is row ``i + 1``'s)."""
        return self._cumulative_spans_array - np.asarray(self.row_spans, dtype=np.int64)

    @property
    def total_span(self) -> int:
        """``m_1 + ... + m_rows`` — slots a station spends before exhausting all rows."""
        return self.cumulative_spans[-1] if self.cumulative_spans else 0

    def rho(self, j: int) -> int:
        """``ρ(j) = j mod window`` (the within-window position of column ``j``)."""
        return int(j) % self.window

    def mu(self, sigma: int) -> int:
        """``µ(σ)`` — the first slot ``>= σ`` that is a window boundary.

        A station woken at ``σ`` stays silent during ``[σ, µ(σ))`` and becomes
        *operational* at ``µ(σ)``.
        """
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        w = self.window
        remainder = sigma % w
        return sigma if remainder == 0 else sigma + (w - remainder)

    def mu_array(self, sigmas) -> np.ndarray:
        """Vectorized :meth:`mu` over an int array of wake-up slots."""
        sigmas = np.asarray(sigmas, dtype=np.int64)
        if sigmas.size and int(sigmas.min()) < 0:
            raise ValueError("sigma must be >= 0")
        return sigmas + (-sigmas) % self.window

    def row_at_offset(self, offset: int) -> Optional[int]:
        """Row index (1-based) used ``offset`` slots after a station became operational.

        Returns ``None`` once the station has exhausted all rows
        (``offset >= total_span``) — per the protocol it then stops
        transmitting.
        """
        if offset < 0 or offset >= self.total_span:
            return None
        return bisect_right(self.cumulative_spans, offset) + 1

    def rows_at_offsets(self, offsets) -> np.ndarray:
        """Vectorized :meth:`row_at_offset`: 0 marks "no row" (waiting/exhausted).

        Returns an int64 array aligned with ``offsets`` whose entries are the
        1-based row indices, with 0 wherever :meth:`row_at_offset` would
        return ``None`` (negative offset or all rows exhausted).
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        rows = np.searchsorted(self._cumulative_spans_array, offsets, side="right") + 1
        rows[(offsets < 0) | (offsets >= self.total_span)] = 0
        return rows

    def operational_cells(
        self, starts, chunk_start: int, chunk_stop: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Enumerate every (pair, slot) cell executing a matrix row in a window.

        ``starts[j]`` is the slot at which pair ``j`` begins descending the
        rows — its ``µ(σ_j)`` on the global clock, its wake-up on a local
        clock — making it a candidate transmitter over ``[starts[j],
        starts[j] + total_span)``.  Returns aligned int64 arrays
        ``(pair_index, slots, offsets, rows)`` covering the intersection of
        every pair's operational interval with ``[chunk_start, chunk_stop)``;
        offsets lie in ``[0, total_span)`` by construction, so every cell
        maps to a real 1-based row.  This is the per-cell geometry behind
        :meth:`TransmissionMatrix.transmit_cells`' default and
        :func:`first_isolation`.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lo = np.maximum(starts, int(chunk_start))
        hi = np.minimum(starts + self.total_span, int(chunk_stop))
        counts = np.maximum(hi - lo, 0)
        pair_index = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
        slots = np.repeat(lo, counts) + ragged_arange(counts)
        offsets = slots - starts[pair_index]
        return pair_index, slots, offsets, self.rows_at_offsets(offsets)

    def row_start_offset(self, row: int) -> int:
        """Offset (since becoming operational) at which ``row`` begins."""
        if not 1 <= row <= self.rows:
            raise ValueError(f"row must be in [1, {self.rows}], got {row}")
        return sum(self.row_spans[: row - 1])

    def membership_probability(self, row: int, column: int) -> float:
        """``Pr[u ∈ M_{row, column}] = 2^{-(row + ρ(column))}``."""
        exponent = row + self.rho(column)
        return 2.0 ** (-exponent)


def matrix_parameters(n: int, *, c: int = 2, window: Optional[int] = None) -> MatrixParameters:
    """Compute the Scenario C parameters for universe size ``n``.

    The paper works with real-valued ``log n`` and ``log log n`` and
    "omits all the floor and ceiling signs"; we fix the discretization as
    ``rows = max(1, ⌈log₂ n⌉)`` and ``window = max(1, ⌈log₂ rows⌉)``
    (overridable via ``window`` for ablation E10).
    """
    n = validate_positive_int(n, "n")
    c = validate_positive_int(c, "c")
    rows = max(1, ceil_log2(max(2, n)))
    if window is None:
        window = max(1, ceil_log2(max(2, rows)))
    else:
        window = validate_positive_int(window, "window")
    row_spans = tuple(c * (2**i) * rows * window for i in range(1, rows + 1))
    length = 2 * c * n * rows * window
    return MatrixParameters(
        n=n, c=c, rows=rows, window=window, length=length, row_spans=row_spans
    )
