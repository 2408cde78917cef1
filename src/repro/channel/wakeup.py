"""Wake-up patterns: which stations wake up, and when.

A *wake-up pattern* is the adversary's move in the paper's model: an
assignment of wake-up slots to a subset of at most ``k`` stations out of the
universe ``[1, n]``.  The pattern determines

* ``s`` — the first slot at which some station is awake (the paper measures
  latency from ``s``), and
* the contender set available at every subsequent slot.

Patterns are immutable value objects; the generators that build interesting
patterns (adversarial, random, bursty, ...) live in
:mod:`repro.channel.adversary`.  Generators draw whole rows as aligned
``(stations, wake_times)`` arrays.  One row becomes a :class:`WakeupPattern`
through :meth:`WakeupPattern.from_arrays`; a batch of rows becomes one
:class:`PatternBatch`, the flat columnar form the batch engines scan, checked
in one vectorized pass with no per-row object.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro._util import validate_positive_int, validate_station_id

__all__ = ["WakeupPattern", "PatternBatch", "encode_wake_times", "decode_wake_times"]


def encode_wake_times(wake_times: Mapping[int, int]) -> str:
    """Encode a ``station -> wake slot`` mapping as a compact sortable string.

    The format is ``"station@slot"`` pairs joined by ``";"``, sorted by
    station ID — e.g. ``"3@0;5@2;7@2"``.  It is the canonical flat form used
    wherever a wake-up pattern has to survive a CSV/JSON round trip (worst-case
    grid exports, adversarial-search certificates and checkpoints):
    :func:`decode_wake_times` inverts it exactly, so an exported row can be
    replayed bit for bit.
    """
    return ";".join(f"{int(u)}@{int(t)}" for u, t in sorted(wake_times.items()))


def decode_wake_times(text: str) -> Dict[int, int]:
    """Inverse of :func:`encode_wake_times`.

    Raises :class:`ValueError` for anything that is not a well-formed
    encoding, so corrupted export rows fail loudly instead of replaying a
    different pattern.
    """
    if not isinstance(text, str) or not text:
        raise ValueError(f"not a wake-times encoding: {text!r}")
    out: Dict[int, int] = {}
    for part in text.split(";"):
        station_text, sep, slot_text = part.partition("@")
        if not sep:
            raise ValueError(f"malformed wake-times entry {part!r} in {text!r}")
        try:
            station, slot = int(station_text), int(slot_text)
        except ValueError:
            raise ValueError(f"malformed wake-times entry {part!r} in {text!r}") from None
        if station in out:
            raise ValueError(f"station {station} appears twice in {text!r}")
        out[station] = slot
    return out


@dataclass(frozen=True)
class WakeupPattern:
    """An immutable assignment of wake-up slots to stations.

    Parameters
    ----------
    n:
        Universe size; station IDs are ``1..n``.
    wake_times:
        Mapping ``station -> wake slot`` (absolute global slots, ``>= 0``).
        Only awakened stations appear; stations not in the mapping sleep
        forever and never transmit.

    Examples
    --------
    >>> p = WakeupPattern(8, {3: 0, 5: 2, 7: 2})
    >>> p.first_wake, p.k
    (0, 3)
    >>> p.awake_count_at(1)
    1
    >>> p.awake_count_at(2)
    3
    """

    n: int
    wake_times: Mapping[int, int]

    def __post_init__(self) -> None:
        validate_positive_int(self.n, "n")
        cleaned: Dict[int, int] = {}
        for station, t in self.wake_times.items():
            station = validate_station_id(station, self.n)
            t = int(t)
            if t < 0:
                raise ValueError(f"wake time must be >= 0, got {t} for station {station}")
            cleaned[station] = t
        if not cleaned:
            raise ValueError("a wake-up pattern must awaken at least one station")
        object.__setattr__(self, "wake_times", dict(cleaned))

    @classmethod
    def from_arrays(cls, n: int, stations: Any, wake_times: Any) -> "WakeupPattern":
        """Build a pattern from aligned station and wake-time arrays.

        ``stations[i]`` wakes at ``wake_times[i]``; the pattern's
        ``wake_times`` mapping keeps this order, which is the order the
        randomized engines draw in.  Validation is vectorized but raises what
        the mapping constructor raises: :class:`TypeError` for non-integer
        (or bool) input, :class:`ValueError` for an empty pattern, a station
        outside ``[1, n]``, a negative wake time or a repeated station.  The
        arrays are copied to read-only ``int64`` and served by
        :meth:`pair_arrays` without touching the mapping.

        >>> p = WakeupPattern.from_arrays(8, [3, 5, 7], [0, 2, 2])
        >>> p == WakeupPattern(8, {3: 0, 5: 2, 7: 2})
        True
        """
        n = validate_positive_int(n, "n")
        stations = np.asarray(stations)
        times = np.asarray(wake_times)
        if stations.ndim != 1 or stations.shape != times.shape:
            raise ValueError(
                "stations and wake_times must be 1-D and aligned, got shapes "
                f"{stations.shape} and {times.shape}"
            )
        if stations.size == 0:
            raise ValueError("a wake-up pattern must awaken at least one station")
        for values, name in ((stations, "station ID"), (times, "wake time")):
            if values.dtype.kind not in "iu":
                raise TypeError(f"{name} must be an integer, got dtype {values.dtype}")
        low = int(np.minimum.reduce(stations))
        high = int(np.maximum.reduce(stations))
        if low < 1 or high > n:
            raise ValueError(f"station ID must be in [1, {n}], got {low if low < 1 else high}")
        if int(np.minimum.reduce(times)) < 0:
            bad = int(np.argmax(times < 0))
            raise ValueError(
                f"wake time must be >= 0, got {int(times[bad])} for station {int(stations[bad])}"
            )
        if times.dtype == np.uint64 and int(np.maximum.reduce(times)) > np.iinfo(np.int64).max:
            raise ValueError(f"wake time must fit in int64, got {int(np.maximum.reduce(times))}")
        stations = stations.astype(np.int64)
        times = times.astype(np.int64)
        mapping = dict(zip(stations.tolist(), times.tolist()))
        if len(mapping) != stations.size:
            raise ValueError("station IDs must be distinct")
        stations.flags.writeable = False
        times.flags.writeable = False
        pattern = cls.__new__(cls)
        object.__setattr__(pattern, "n", n)
        object.__setattr__(pattern, "wake_times", mapping)
        object.__setattr__(pattern, "_pair_cache", (stations, times))
        return pattern

    def __getstate__(self) -> Dict[str, Any]:
        # The pair arrays are derived data; a pickle carries the fields alone,
        # identical whichever constructor built the pattern.
        state = dict(self.__dict__)
        state.pop("_pair_cache", None)
        return state

    def pair_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(stations, wake_times)`` as aligned read-only ``int64`` arrays.

        Pairs come in ``wake_times`` insertion order.  Patterns built by
        :meth:`from_arrays` return their own arrays; a mapping-built pattern
        derives them once and keeps them.
        """
        cached = self.__dict__.get("_pair_cache")
        if cached is None:
            stations = np.fromiter(self.wake_times.keys(), np.int64, len(self.wake_times))
            times = np.fromiter(self.wake_times.values(), np.int64, len(self.wake_times))
            stations.flags.writeable = False
            times.flags.writeable = False
            cached = (stations, times)
            object.__setattr__(self, "_pair_cache", cached)
        return cached

    # -- basic accessors ---------------------------------------------------

    @property
    def k(self) -> int:
        """Number of awakened stations."""
        return len(self.wake_times)

    @property
    def stations(self) -> Tuple[int, ...]:
        """Awakened stations, sorted by ID."""
        return tuple(sorted(self.wake_times))

    @property
    def first_wake(self) -> int:
        """``s`` — the first slot with at least one awake station."""
        return min(self.wake_times.values())

    @property
    def last_wake(self) -> int:
        """The latest wake-up slot in the pattern."""
        return max(self.wake_times.values())

    def wake_time(self, station: int) -> Optional[int]:
        """Wake slot of ``station``, or ``None`` if it never wakes."""
        return self.wake_times.get(station)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(station, wake_time)`` pairs sorted by wake time then ID."""
        return iter(sorted(self.wake_times.items(), key=lambda kv: (kv[1], kv[0])))

    def __len__(self) -> int:
        return len(self.wake_times)

    # -- derived views -----------------------------------------------------

    def awake_count_at(self, slot: int) -> int:
        """Number of stations awake at ``slot``."""
        return sum(1 for t in self.wake_times.values() if t <= slot)

    def shifted(self, offset: int) -> "WakeupPattern":
        """Return a copy with every wake time shifted by ``offset`` slots."""
        if self.first_wake + offset < 0:
            raise ValueError("shift would produce a negative wake time")
        return WakeupPattern(self.n, {u: t + offset for u, t in self.wake_times.items()})

    def describe(self) -> str:
        """One-line human-readable summary used in traces and reports."""
        spread = self.last_wake - self.first_wake
        return (
            f"WakeupPattern(n={self.n}, k={self.k}, s={self.first_wake}, "
            f"spread={spread})"
        )


def _concat(columns: Sequence[Any]) -> np.ndarray:
    return np.concatenate(columns) if len(columns) else np.empty(0, dtype=np.int64)


def _split(rows: Sequence[Tuple[Any, Any]]) -> Tuple[np.ndarray, list, list]:
    """``(k, station columns, wake columns)`` of ``(stations, wake_times)`` rows."""
    stations = [row[0] for row in rows]
    k = np.fromiter(map(len, stations), dtype=np.int64, count=len(stations))
    return k, stations, [row[1] for row in rows]


def _layout(k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets, pair_row)`` of rows with ``k`` pairs each."""
    offsets = np.zeros(k.size + 1, dtype=np.int64)
    np.cumsum(k, out=offsets[1:])
    return offsets, np.repeat(np.arange(k.size, dtype=np.int64), k)


def _rows_with_repeats(stations: np.ndarray, pair_row: np.ndarray) -> np.ndarray:
    """Rows (with multiplicity) in which some station appears twice.

    Rows are contiguous runs of ``pair_row``, so a batch whose every row is
    strictly ascending (every generator's ``row_stations`` draw) is cleared
    by one comparison of neighbours; otherwise one lexsort groups equal
    ``(row, station)`` pairs.
    """
    same_row = pair_row[1:] == pair_row[:-1]
    if not np.any(stations[1:][same_row] <= stations[:-1][same_row]):
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((stations, pair_row))
    ordered, rows = stations[order], pair_row[order]
    return rows[1:][(ordered[1:] == ordered[:-1]) & (rows[1:] == rows[:-1])]


@dataclass(frozen=True, eq=False, repr=False)
class PatternBatch:
    """B wake-up patterns over one universe, stored as flat columns.

    Row ``i`` owns the pairs ``offsets[i]:offsets[i + 1]`` of the aligned
    ``stations`` and ``wake_times`` arrays, in the row's own pair order (the
    order the randomized engines draw in).  Every column is a read-only
    ``int64`` array; ``pair_row`` (the row of every pair) and ``first_wake``
    (every row's first wake slot) are derived once, for the engines.

    The constructor checks the whole batch in one vectorized pass and raises
    exactly what :meth:`WakeupPattern.from_arrays` raises on the first bad
    row: :class:`TypeError` for a non-integer (or bool) dtype,
    :class:`ValueError` for an empty row, a station outside ``[1, n]``, a
    negative wake time (or a ``uint64`` one past the ``int64`` range) or a
    station repeated within a row.  A station may repeat across rows.

    Indexing is the :class:`WakeupPattern` edge: ``batch[i]`` is row ``i``
    as a pattern and iteration yields every row as one, while ``batch[a:b]``
    is a batch over views of the same columns and ``batch.row(i)`` is row
    ``i``'s ``(stations, wake_times)`` views.

    >>> batch = PatternBatch(8, [2, 1], [3, 5, 3], [0, 2, 4])
    >>> len(batch), batch.first_wake.tolist(), batch.pair_row.tolist()
    (2, [0, 4], [0, 0, 1])
    >>> batch[0] == WakeupPattern(8, {3: 0, 5: 2})
    True
    >>> [column.tolist() for column in batch.row(1)]
    [[3], [4]]
    >>> PatternBatch(8, [2, 1], [3, 3, 5], [0, 2, 4])
    Traceback (most recent call last):
    ...
    ValueError: station IDs must be distinct
    """

    n: int
    k: np.ndarray
    stations: np.ndarray
    wake_times: np.ndarray
    offsets: np.ndarray = field(init=False)
    pair_row: np.ndarray = field(init=False)
    first_wake: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = validate_positive_int(self.n, "n")
        k = np.asarray(self.k)
        stations = np.asarray(self.stations)
        times = np.asarray(self.wake_times)
        if k.ndim != 1 or (k.size and (k.dtype.kind not in "iu" or int(k.min()) < 0)):
            raise ValueError("k must be a 1-D array of non-negative row lengths")
        if stations.ndim != 1 or stations.shape != times.shape:
            raise ValueError(
                "stations and wake_times must be 1-D and aligned, got shapes "
                f"{stations.shape} and {times.shape}"
            )
        if int(k.sum()) != stations.size:
            raise ValueError(f"row lengths k sum to {int(k.sum())}, not {stations.size} pairs")
        k = k.astype(np.int64)
        offsets, pair_row = _layout(k)
        if stations.dtype.kind in "iu" and times.dtype.kind in "iu":
            # The int64 casts wrap a uint64 past the int64 range to a
            # negative value, which the range and sign checks then reject.
            station64 = stations.astype(np.int64)
            time64 = times.astype(np.int64)
            outside = (station64 < 1) | (station64 > n)
            bad_row = k == 0
            bad_row[pair_row[outside | (time64 < 0)]] = True
            bad_row[_rows_with_repeats(np.where(outside, 0, station64), pair_row)] = True
        else:
            # Every row fails from_arrays' dtype check (an empty batch has none).
            station64 = time64 = np.empty(0, dtype=np.int64)
            bad_row = np.ones(k.size, dtype=bool)
        if bad_row.any():
            row = int(np.argmax(bad_row))
            lo, hi = int(offsets[row]), int(offsets[row + 1])
            WakeupPattern.from_arrays(n, stations[lo:hi], times[lo:hi])
            raise RuntimeError(f"internal inconsistency: row {row} was flagged but is valid")
        self._assign(n, k, station64, time64, offsets, pair_row)

    def _assign(
        self,
        n: int,
        k: np.ndarray,
        stations: np.ndarray,
        times: np.ndarray,
        offsets: np.ndarray,
        pair_row: np.ndarray,
        first_wake: Optional[np.ndarray] = None,
    ) -> None:
        """Set every column (deriving ``first_wake`` if not given) and freeze them."""
        if first_wake is None:
            first_wake = (
                np.minimum.reduceat(times, offsets[:-1]) if k.size else np.empty(0, np.int64)
            )
        columns = {
            "k": k,
            "stations": stations,
            "wake_times": times,
            "offsets": offsets,
            "pair_row": pair_row,
            "first_wake": first_wake,
        }
        object.__setattr__(self, "n", n)
        for name, values in columns.items():
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[Tuple[Any, Any]]) -> "PatternBatch":
        """A checked batch from ``(stations, wake_times)`` rows, in order.

        This is how :meth:`~repro.workloads.WorkloadSuite.generate` assembles
        the rows its workload's drawer returns: the rows are concatenated
        once and checked as one batch.
        """
        rows = list(rows)
        k, stations, times = _split(rows)
        misaligned = np.flatnonzero(k != np.fromiter(map(len, times), np.int64, len(rows)))
        if misaligned.size:
            WakeupPattern.from_arrays(n, *rows[int(misaligned[0])])
        return cls(n, k, _concat(stations), _concat(times))

    @classmethod
    def from_patterns(cls, n: int, patterns: Iterable[WakeupPattern]) -> "PatternBatch":
        """The batch of already-built patterns over universe ``n``, in order.

        Each pattern's own pair arrays are concatenated as they are: a
        :class:`WakeupPattern` is valid by construction, so nothing is
        checked again except that every pattern lives in ``n``.
        """
        n = validate_positive_int(n, "n")
        rows = []
        for pattern in patterns:
            if pattern.n != n:
                raise ValueError(f"batch universe n={n} does not match pattern n={pattern.n}")
            rows.append(pattern.pair_arrays())
        k, stations, times = _split(rows)
        batch = cls.__new__(cls)
        batch._assign(n, k, _concat(stations), _concat(times), *_layout(k))
        return batch

    # -- container behaviour -------------------------------------------------

    def __len__(self) -> int:
        return int(self.k.size)

    def __getitem__(self, index: Union[int, slice]) -> Union[WakeupPattern, "PatternBatch"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("a PatternBatch slice must be contiguous (step 1)")
            stop = max(start, stop)
            lo, hi = int(self.offsets[start]), int(self.offsets[stop])
            part = PatternBatch.__new__(PatternBatch)
            part._assign(
                self.n,
                self.k[start:stop],
                self.stations[lo:hi],
                self.wake_times[lo:hi],
                offsets=self.offsets[start : stop + 1] - lo,
                pair_row=self.pair_row[lo:hi] - start,
                first_wake=self.first_wake[start:stop],
            )
            return part
        return WakeupPattern.from_arrays(self.n, *self.row(index))

    def row(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``index`` as aligned ``(stations, wake_times)`` views, in pair order."""
        row = operator.index(index)
        if not -len(self) <= row < len(self):
            raise IndexError(f"row {row} out of range for batch of {len(self)}")
        row %= len(self)
        lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
        return self.stations[lo:hi], self.wake_times[lo:hi]

    def __iter__(self) -> Iterator[WakeupPattern]:
        return (self[i] for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternBatch):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.k, other.k)
            and np.array_equal(self.stations, other.stations)
            and np.array_equal(self.wake_times, other.wake_times)
        )

    def __repr__(self) -> str:
        return f"PatternBatch(n={self.n}, rows={len(self)}, pairs={self.stations.size})"
