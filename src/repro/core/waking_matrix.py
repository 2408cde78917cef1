"""Transmission matrices and waking matrices (Section 5.2–5.3 of the paper).

The Scenario C algorithm is driven by a ``(log n × ℓ)`` *transmission matrix*
``M`` whose entries ``M_{i,j}`` are subsets of stations.  Row ``i`` plays the
role of an ``(n, 2^i)``-selective family; column ``j`` corresponds to global
time slot ``j`` (the matrix is scanned circularly, so slot ``t`` uses column
``t mod ℓ``).  The paper proves by the probabilistic method that a matrix
drawn with

    ``Pr[u ∈ M_{i,j}] = 2^{-(i + ρ(j))}``,    ``ρ(j) = j mod log log n``

is, with positive probability, a *waking matrix*: for every well-balanced set
of awake stations some station gets isolated (Definition 5.3).

This module provides:

* :class:`MatrixParameters` / :func:`matrix_parameters` — the integer
  parameters ``log n``, ``log log n`` (window length), ``m_i`` (row spans),
  ``ℓ`` (matrix length), ``µ``, ``ρ`` — with the floors/ceilings the paper
  omits made explicit;
* :class:`HashedTransmissionMatrix` — the random matrix of Section 5.3,
  realized *implicitly* through a seeded 64-bit mixing function so that
  membership queries are O(1) and vectorizable without materializing the
  ``log n × ℓ × n`` tensor;
* :class:`ExplicitTransmissionMatrix` — a small dense matrix with arbitrary
  entries, used in unit tests and for rendering the paper's Figures 1–2;
* :func:`matrix_batch_transmit_slots` — the batch engine's transmit query
  for the matrix-driven protocols, resolving each distinct
  ``(station, start)`` key once;
* the analysis helpers of Section 5.2: the operational sets ``S_{i,j}``,
  the well-balancedness conditions S1/S2, and isolation checks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro._util import (
    MAX_CELLS_PER_CHUNK,
    RngLike,
    as_generator,
    ceil_log2,
    ragged_arange,
    validate_positive_int,
)
from repro.channel.wakeup import WakeupPattern

__all__ = [
    "MatrixParameters",
    "matrix_parameters",
    "TransmissionMatrix",
    "HashedTransmissionMatrix",
    "ExplicitTransmissionMatrix",
    "matrix_batch_transmit_slots",
    "operational_sets",
    "is_well_balanced_slot",
    "isolated_station_at",
    "first_isolation",
]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class TransmissionMatrix(ABC):
    """Abstract interface: a ``rows × length`` matrix of station subsets."""

    def __init__(self, params: MatrixParameters) -> None:
        self.params = params

    @property
    def n(self) -> int:
        """Universe size."""
        return self.params.n

    @abstractmethod
    def contains(self, row: int, column: int, station: int) -> bool:
        """True iff ``station ∈ M_{row, column}`` (column taken modulo ``length``)."""

    def membership_for_station(
        self, station: int, row: int, columns: np.ndarray
    ) -> np.ndarray:
        """Vectorized membership of one station across many columns of one row.

        The default implementation loops over :meth:`contains`; subclasses
        override with a vectorized version.
        """
        return np.fromiter(
            (self.contains(row, int(j), station) for j in columns),
            dtype=bool,
            count=len(columns),
        )

    def membership_for_pairs(
        self, stations: np.ndarray, rows: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        """Batched membership over aligned ``(station, row, column)`` triples.

        The query the batch engine's Scenario C fast path issues once per
        chunk: entry ``i`` of the returned boolean array is
        ``stations[i] ∈ M_{rows[i], columns[i]}`` (columns taken modulo
        ``length``).  Inputs broadcast against each other, so scalars may be
        mixed with arrays.  The default loops over :meth:`contains`;
        :class:`HashedTransmissionMatrix` overrides it with one broadcasted
        hash evaluation.
        """
        stations, rows, columns = np.broadcast_arrays(
            np.asarray(stations, dtype=np.int64),
            np.asarray(rows, dtype=np.int64),
            np.asarray(columns, dtype=np.int64),
        )
        return np.fromiter(
            (
                self.contains(int(r), int(j), int(u))
                for u, r, j in zip(stations.ravel(), rows.ravel(), columns.ravel())
            ),
            dtype=bool,
            count=stations.size,
        ).reshape(stations.shape)

    def transmit_cells(
        self,
        stations: np.ndarray,
        starts: np.ndarray,
        start: int,
        stop: int,
        *,
        local_columns: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Transmit cells of aligned ``(station, start)`` keys within ``[start, stop)``.

        Key ``j`` executes the matrix rows over ``[starts[j], starts[j] +
        total_span)`` and reads column ``slot mod ℓ`` (or ``(slot - starts[j])
        mod ℓ`` with ``local_columns``).  Returns aligned int64 arrays
        ``(key_index, slots)`` listing every operational cell whose entry
        contains the key's station, each at most once.  Stations must lie in
        ``[1, n]``.

        The default enumerates every operational cell
        (:meth:`MatrixParameters.operational_cells`) and resolves it with one
        :meth:`membership_for_pairs` call;
        :class:`HashedTransmissionMatrix` overrides it with a kernel that
        hashes each key's cells from precomputed per-key, per-row and
        per-column terms.
        """
        params = self.params
        key_index, slots, offsets, rows = params.operational_cells(starts, start, stop)
        if not slots.size:
            return key_index, slots
        columns = (offsets if local_columns else slots) % params.length
        member = self.membership_for_pairs(
            np.asarray(stations, dtype=np.int64)[key_index], rows, columns
        )
        return key_index[member], slots[member]

    def column_set(self, row: int, column: int) -> FrozenSet[int]:
        """The full transmission set ``M_{row, column}`` (O(n); diagnostics only)."""
        return frozenset(
            u for u in range(1, self.n + 1) if self.contains(row, column, u)
        )

    def describe(self) -> str:
        """One-line description for reports."""
        p = self.params
        return (
            f"{type(self).__name__}(n={p.n}, rows={p.rows}, window={p.window}, "
            f"length={p.length}, c={p.c})"
        )


# 64-bit mixing constants: the splitmix64 finalizer's, then the multipliers
# that spread a cell's station, row and column over 64 bits before mixing.
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_STATION_MIX = np.uint64(0xA24BAED4963EE407)
_ROW_MIX = np.uint64(0x9FB21C651E98DF25)
_COLUMN_MIX = np.uint64(0xD6E8FEB86659FD93)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer, in place over a uint64 array (returned)."""
    tmp = np.empty_like(x)
    with np.errstate(over="ignore"):
        x += _GOLDEN
        x ^= np.right_shift(x, np.uint64(30), out=tmp)
        x *= _MIX1
        x ^= np.right_shift(x, np.uint64(27), out=tmp)
        x *= _MIX2
        x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def _row_terms(rows: np.ndarray) -> np.ndarray:
    """Row term of the hash input: ``row · _ROW_MIX`` (mod 2^64), a fresh array."""
    terms = np.asarray(rows).astype(np.uint64)
    terms *= _ROW_MIX
    return terms


def _column_terms(columns: np.ndarray) -> np.ndarray:
    """Column term of the hash input: ``column · _COLUMN_MIX`` (mod 2^64), a fresh array."""
    terms = np.asarray(columns).astype(np.uint64)
    terms *= _COLUMN_MIX
    return terms


class HashedTransmissionMatrix(TransmissionMatrix):
    """The random transmission matrix of Section 5.3, realized via hashing.

    Entry membership ``u ∈ M_{i,j}`` is decided by a seeded 64-bit mix of
    ``(seed, i, j, u)``: the station is a member iff the top ``i + ρ(j)`` bits
    of the hash are all zero, which happens with probability exactly
    ``2^{-(i + ρ(j))}`` — the distribution prescribed by the paper.  The
    matrix is therefore never materialized; membership queries are O(1),
    deterministic given the seed, and independent across entries to the
    quality of the mixing function.

    The paper's existence proof (Theorem 5.2) shows a random matrix of this
    distribution is a *waking* matrix with positive probability; the library
    treats the hash-based matrix as one sample from that distribution and the
    experiment harness verifies the isolation property empirically on the
    workloads it runs (see :func:`first_isolation` and experiment E7).
    """

    def __init__(self, params: MatrixParameters, *, seed: int = 0) -> None:
        super().__init__(params)
        self.seed = int(seed)
        self._seed64 = np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
        # Membership threshold per (row, ρ) class, exponent-clamped: the
        # batched queries gather from this table instead of recomputing the
        # shift per cell.
        exponents = (
            np.arange(1, params.rows + 1, dtype=np.int64)[:, None]
            + np.arange(params.window, dtype=np.int64)[None, :]
        )
        self._threshold_by_row_rho = self._thresholds(exponents)
        # Row term per 1-based row (entry 0 unused).
        self._row_term_by_row = _row_terms(np.arange(params.rows + 1, dtype=np.int64))

    def _station_terms(self, stations: np.ndarray) -> np.ndarray:
        """Station term of the hash input, salted with the seed: ``u · _STATION_MIX ^ seed``."""
        terms = np.asarray(stations).astype(np.uint64)
        terms *= _STATION_MIX
        terms ^= self._seed64
        return terms

    def _hash_cells(
        self, rows: np.ndarray, columns: np.ndarray, stations: np.ndarray
    ) -> np.ndarray:
        """Broadcasted splitmix64 over aligned ``(row, column, station)`` cells.

        ``columns`` must already be reduced modulo ``length``.  The hash input
        is the XOR of a station term, a row term and a column term; the
        batched kernel (:meth:`transmit_cells`) builds the same three terms,
        once per key, per row and per column instead of once per cell.  All
        uint64 arithmetic wraps modulo 2^64.
        """
        x = self._station_terms(stations) ^ _row_terms(rows)
        x ^= _column_terms(columns)
        return _splitmix64(x)

    @staticmethod
    def _thresholds(exponents: np.ndarray) -> np.ndarray:
        """``2^(64 - exponent)`` as uint64, with the exponent clamped.

        A cell is a member iff its hash is below the threshold, which happens
        with probability ``2^-exponent``.  ``exponent > 64`` would make the
        shift count negative — undefined in uint64 and silently corrupting on
        common hardware (the shift wraps modulo 64, turning a
        probability-~0 cell into probability ~1/2).  The clamp maps every
        ``exponent >= 64`` to threshold 0 — probability exactly 0, trading
        the one representable-but-negligible case (``exponent == 64``,
        probability ``2^-64``: member iff the hash is exactly 0) for a
        uniform boundary.
        """
        exponents = np.asarray(exponents, dtype=np.int64)
        shift = (np.int64(64) - np.minimum(exponents, np.int64(64))).astype(np.uint64)
        return np.where(
            exponents >= 64,
            np.uint64(0),
            np.left_shift(np.uint64(1), shift),
        )

    def transmit_cells(
        self,
        stations: np.ndarray,
        starts: np.ndarray,
        start: int,
        stop: int,
        *,
        local_columns: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        # A key's operational cells in the window split into segments, one
        # per (key, row) and never wrapping modulo ℓ, so that along a
        # segment the column is the segment's first column plus the
        # position.  Each segment carries its key's station term XOR its
        # row's term; a cell then costs one column term, one XOR, the
        # finalizer and one threshold lookup.  Cells before a key's start or
        # past its last row are never enumerated.
        stations = np.asarray(stations, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        params = self.params
        length, window = params.length, params.window
        row_ends = params._cumulative_spans_array
        lo = np.maximum(starts, start)
        hi = np.minimum(starts + params.total_span, stop)
        live = np.flatnonzero(lo < hi)
        empty = np.empty(0, dtype=np.int64)
        if not live.size:
            return empty, empty
        origin = starts[live]
        lo, hi = lo[live], hi[live]
        first_row = np.searchsorted(row_ends, lo - origin, side="right")
        row_count = np.searchsorted(row_ends, hi - 1 - origin, side="right") - first_row + 1
        seg_key = np.repeat(live, row_count)
        seg_row = np.repeat(first_row, row_count) + ragged_arange(row_count)
        origin = np.repeat(origin, row_count)
        lo = np.maximum(np.repeat(lo, row_count), origin + params._row_starts_array[seg_row])
        hi = np.minimum(np.repeat(hi, row_count), origin + row_ends[seg_row])
        counts = hi - lo
        first_column = (lo - origin if local_columns else lo) % length
        overflow = first_column + counts - length
        wraps = np.flatnonzero(overflow > 0)
        if wraps.size:
            # A row spans at most ℓ slots (m_i <= ℓ for every row
            # matrix_parameters builds), so a segment wraps at most once:
            # its tail restarts at column 0.
            counts[wraps] -= overflow[wraps]
            seg_key = np.concatenate((seg_key, seg_key[wraps]))
            seg_row = np.concatenate((seg_row, seg_row[wraps]))
            lo = np.concatenate((lo, lo[wraps] + counts[wraps]))
            first_column = np.concatenate((first_column, np.zeros(wraps.size, np.int64)))
            counts = np.concatenate((counts, overflow[wraps]))

        seg_salt = self._station_terms(stations[seg_key])
        seg_salt ^= self._row_term_by_row[seg_row + 1]
        ends = np.cumsum(counts)
        seg_first_cell = ends - counts
        columns = np.arange(int(ends[-1]), dtype=np.int64)
        columns -= np.repeat(seg_first_cell - first_column, counts)
        # ρ = column mod window, via floor division (much faster than
        # NumPy's integer remainder).
        threshold_index = columns // window
        threshold_index *= -window
        threshold_index += columns
        threshold_index += np.repeat(seg_row * window, counts)
        hashes = _column_terms(columns)
        del columns
        hashes ^= np.repeat(seg_salt, counts)
        member = _splitmix64(hashes) < self._threshold_by_row_rho.ravel()[threshold_index]
        cells = np.flatnonzero(member)
        seg_members = np.add.reduceat(member, seg_first_cell, dtype=np.int64)
        seg = np.repeat(np.arange(counts.size, dtype=np.int64), seg_members)
        return seg_key[seg], lo[seg] + (cells - seg_first_cell[seg])

    def contains(self, row: int, column: int, station: int) -> bool:
        return bool(
            self.membership_for_station(station, row, np.asarray([column], dtype=np.int64))[0]
        )

    def membership_for_station(
        self, station: int, row: int, columns: np.ndarray
    ) -> np.ndarray:
        if not 1 <= row <= self.params.rows:
            raise ValueError(f"row must be in [1, {self.params.rows}], got {row}")
        if not 1 <= station <= self.n:
            raise ValueError(f"station must be in [1, {self.n}], got {station}")
        columns = np.asarray(columns, dtype=np.int64)
        if columns.size == 0:
            return np.empty(0, dtype=bool)
        return self._membership(
            np.full(columns.shape, station, dtype=np.int64),
            np.full(columns.shape, row, dtype=np.int64),
            columns,
        )

    def membership_for_pairs(
        self, stations: np.ndarray, rows: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        stations, rows, columns = np.broadcast_arrays(
            np.asarray(stations, dtype=np.int64),
            np.asarray(rows, dtype=np.int64),
            np.asarray(columns, dtype=np.int64),
        )
        if stations.size == 0:
            return np.empty(stations.shape, dtype=bool)
        if int(rows.min()) < 1 or int(rows.max()) > self.params.rows:
            raise ValueError(f"rows must be in [1, {self.params.rows}]")
        if int(stations.min()) < 1 or int(stations.max()) > self.n:
            raise ValueError(f"stations must be in [1, {self.n}]")
        return self._membership(stations, rows, columns)

    def _membership(
        self, stations: np.ndarray, rows: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        cols = columns % self.params.length
        hashes = self._hash_cells(rows, cols, stations)
        # Member iff the top `row + rho` bits of the hash are zero:
        # hash < 2^(64 - (row + rho)), with the exponent clamped (see
        # _thresholds, which built this table).
        return hashes < self._threshold_by_row_rho[rows - 1, cols % self.params.window]


class ExplicitTransmissionMatrix(TransmissionMatrix):
    """A dense, explicitly stored transmission matrix (small universes only).

    Parameters
    ----------
    params:
        Matrix parameters (``rows`` and ``length`` must match the entries).
    entries:
        Mapping ``(row, column) -> set of stations``; missing entries are empty.
    """

    def __init__(
        self,
        params: MatrixParameters,
        entries: Mapping[Tuple[int, int], Iterable[int]],
    ) -> None:
        super().__init__(params)
        cleaned: Dict[Tuple[int, int], FrozenSet[int]] = {}
        for (row, column), stations in entries.items():
            if not 1 <= row <= params.rows:
                raise ValueError(f"row {row} outside [1, {params.rows}]")
            if not 0 <= column < params.length:
                raise ValueError(f"column {column} outside [0, {params.length})")
            members = frozenset(int(u) for u in stations)
            for u in members:
                if not 1 <= u <= params.n:
                    raise ValueError(f"station {u} outside [1, {params.n}]")
            cleaned[(row, column)] = members
        self._entries = cleaned

    @classmethod
    def sample(
        cls, params: MatrixParameters, *, rng: RngLike = None
    ) -> "ExplicitTransmissionMatrix":
        """Draw a dense matrix from the paper's distribution (tiny ``n`` only)."""
        gen = as_generator(rng)
        entries: Dict[Tuple[int, int], List[int]] = {}
        for row in range(1, params.rows + 1):
            for column in range(params.length):
                p = params.membership_probability(row, column)
                members = np.flatnonzero(gen.random(params.n) < p)
                if members.size:
                    entries[(row, column)] = [int(u) + 1 for u in members]
        return cls(params, entries)

    def contains(self, row: int, column: int, station: int) -> bool:
        column = int(column) % self.params.length
        return station in self._entries.get((row, column), frozenset())

    def column_set(self, row: int, column: int) -> FrozenSet[int]:
        column = int(column) % self.params.length
        return self._entries.get((row, column), frozenset())


def matrix_batch_transmit_slots(
    matrix: TransmissionMatrix,
    stations: np.ndarray,
    starts: np.ndarray,
    start: int,
    stop: int,
    *,
    local_columns: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared ``batch_transmit_slots`` body for matrix-driven protocols.

    Pair ``j`` (station ``stations[j]``) descends the matrix rows over
    ``[starts[j], starts[j] + total_span)``; within the window
    ``[start, stop)`` its transmit slots are the operational cells whose
    matrix entry contains the station.  ``local_columns`` selects the column
    index: the global clock reads column ``slot mod ℓ``
    (:class:`~repro.core.scenario_c.WakeupProtocol`), a local clock reads
    ``(slot - starts[j]) mod ℓ``
    (:class:`~repro.core.local_clock.LocalClockScenarioC`).

    Either way a pair's transmit slots depend only on its ``(station,
    start)`` *key*, and a batch over one ``n`` repeats keys across its
    patterns, so the pairs are deduplicated into keys first;
    :meth:`TransmissionMatrix.transmit_cells` resolves the keys and every
    member ``(key, slot)`` entry is then expanded to the pairs holding that
    key.  Stations must lie in ``[1, n]``.

    The window is processed in slices of ``max(16, MAX_CELLS_PER_CHUNK //
    pairs)`` slots.  Per slice, the keys' operational cells (at most keys ×
    slice length) and the expanded entries (at most pairs × slice length)
    both stay within the engine's cells-per-chunk budget: the engine caps
    its chunk length by active *patterns*, so without the slicing a k-heavy
    unsolved batch could materialize k-fold more cells than the engine's
    documented working-set bound.  Returns the aligned ``(pair_index,
    slots)`` arrays of the ``batch_transmit_slots`` contract, each (pair,
    slot) at most once.
    """
    stations = np.asarray(stations, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    start, stop = int(start), int(stop)
    pairs = len(stations)
    empty = np.empty(0, dtype=np.int64)
    if not pairs or stop <= start:
        return empty, empty
    if int(stations.min()) < 1 or int(stations.max()) > matrix.n:
        raise ValueError(f"stations must be in [1, {matrix.n}]")
    # Group the pairs by key: pairs order[first[q]:first[q] + holders[q]]
    # hold key q.  The int64 key code is exact while the starts' spread
    # times n stays below 2^63 (slots of one scan are far closer).
    low = int(starts.min())
    if (int(starts.max()) - low + 1) * matrix.n >= 1 << 63:
        raise ValueError("starts spread too wide to key by (station, start)")
    code = (starts - low) * matrix.n + (stations - 1)
    order = np.argsort(code)
    sorted_code = code[order]
    first = np.flatnonzero(np.concatenate(([True], sorted_code[1:] != sorted_code[:-1])))
    key_stations = stations[order[first]]
    key_starts = starts[order[first]]
    holders = np.diff(np.append(first, pairs))

    step = max(16, MAX_CELLS_PER_CHUNK // pairs)
    idx_pieces: List[np.ndarray] = []
    slot_pieces: List[np.ndarray] = []
    for lo in range(start, stop, step):
        key_index, slots = matrix.transmit_cells(
            key_stations, key_starts, lo, min(stop, lo + step), local_columns=local_columns
        )
        if not slots.size:
            continue
        counts = holders[key_index]
        ends = np.cumsum(counts)
        positions = np.arange(int(ends[-1]), dtype=np.int64)
        positions -= np.repeat(ends - counts - first[key_index], counts)
        idx_pieces.append(order[positions])
        slot_pieces.append(np.repeat(slots, counts))
    if not slot_pieces:
        return empty, empty
    return np.concatenate(idx_pieces), np.concatenate(slot_pieces)


# ---------------------------------------------------------------------------
# Section 5.2 analysis: operational sets, well-balancedness, isolation
# ---------------------------------------------------------------------------


def operational_sets(
    params: MatrixParameters, pattern: WakeupPattern, slot: int
) -> Dict[int, FrozenSet[int]]:
    """Compute the partition ``{i: S_{i,slot}}`` of the operational stations.

    ``S_{i,j}`` is the set of stations that, at slot ``j``, transmit
    conditionally to row ``i`` of the matrix — i.e. stations ``u`` with
    ``µ(σ_u) <= j`` whose per-protocol row pointer is at ``i`` (stations that
    have exhausted all rows are omitted).
    """
    result: Dict[int, set] = {}
    for station, sigma in pattern.wake_times.items():
        mu = params.mu(sigma)
        if mu > slot:
            continue
        row = params.row_at_offset(slot - mu)
        if row is None:
            continue
        result.setdefault(row, set()).add(station)
    return {i: frozenset(s) for i, s in result.items()}


def is_well_balanced_slot(
    params: MatrixParameters, pattern: WakeupPattern, slot: int
) -> bool:
    """Check conditions S1 and S2 of the paper's well-balancedness definition at one slot.

    * S1: ``Σ_i |S_{i,slot}| / 2^i <= rows`` (the paper's ``log n``).
    * S2: ``|S_{i,slot}| >= 2^{i-3}`` for some row ``i``.
    """
    sets = operational_sets(params, pattern, slot)
    if not sets:
        return False
    weighted = sum(len(s) / (2.0**i) for i, s in sets.items())
    s1 = weighted <= params.rows
    s2 = any(len(s) >= 2 ** (i - 3) for i, s in sets.items())
    return s1 and s2


def isolated_station_at(
    matrix: TransmissionMatrix, pattern: WakeupPattern, slot: int
) -> Optional[int]:
    """Return the isolated station at ``slot``, if exactly one operational station transmits.

    A station ``w ∈ S_{i,j}`` is *isolated* at ``j`` iff
    ``⋃_i (S_{i,j} ∩ M_{i,j}) = {w}`` — i.e. across all rows, exactly one
    operational station is granted the slot.  This is precisely a successful
    transmission of the Scenario C protocol.
    """
    params = matrix.params
    column = slot % params.length
    transmitters: List[int] = []
    for row, stations in operational_sets(params, pattern, slot).items():
        for u in stations:
            if matrix.contains(row, column, u):
                transmitters.append(u)
                if len(transmitters) > 1:
                    return None
    if len(transmitters) == 1:
        return transmitters[0]
    return None


def first_isolation(
    matrix: TransmissionMatrix,
    pattern: WakeupPattern,
    *,
    max_slots: int = 500_000,
    chunk: int = 2048,
) -> Optional[Tuple[int, int]]:
    """Scan forward from the first wake-up for the first isolating slot.

    Returns ``(slot, station)`` or ``None`` if no isolation occurs within
    ``max_slots`` slots of the first wake-up.  This is the matrix-level view
    of the Scenario C protocol's success; the protocol object in
    :mod:`repro.core.scenario_c` must agree with it (tested).

    The scan is chunked and vectorized with the batch engine's
    transmit-count idiom: per chunk, every operational ``(station, slot)``
    cell is enumerated at once, membership is resolved through
    :meth:`TransmissionMatrix.membership_for_pairs`, and per-slot transmitter
    counts come from one :func:`numpy.bincount`; a slot isolates a station
    iff its count is exactly 1.  Results are identical to probing
    :func:`isolated_station_at` slot by slot (the chunk layout never affects
    the outcome); the scan also stops early once every station has exhausted
    all matrix rows, after which no slot can isolate.
    """
    params = matrix.params
    k = pattern.k
    stations = np.fromiter(pattern.wake_times.keys(), np.int64, count=k)
    mus = params.mu_array(np.fromiter(pattern.wake_times.values(), np.int64, count=k))
    start = pattern.first_wake
    horizon = start + int(max_slots)
    last_activity = int(mus.max()) + params.total_span

    chunk_start = start
    chunk_len = max(16, int(chunk))
    while chunk_start < min(horizon, last_activity):
        # Keep the per-chunk working set bounded regardless of pattern size
        # (the engine's cells-per-chunk cap).
        length = min(chunk_len, max(16, MAX_CELLS_PER_CHUNK // k))
        chunk_stop = min(horizon, chunk_start + length)
        cell_pair, cell_slot, _, rows = params.operational_cells(
            mus, chunk_start, chunk_stop
        )
        if cell_slot.size:
            member = matrix.membership_for_pairs(
                stations[cell_pair], rows, cell_slot % params.length
            )
            transmit_counts = np.bincount(
                cell_slot[member] - chunk_start, minlength=chunk_stop - chunk_start
            )
            singles = np.flatnonzero(transmit_counts == 1)
            if singles.size:
                slot = chunk_start + int(singles[0])
                winners = cell_pair[member & (cell_slot == slot)]
                return slot, int(stations[winners[0]])
        chunk_start = chunk_stop
        chunk_len = min(chunk_len * 2, 1 << 17)
    return None
