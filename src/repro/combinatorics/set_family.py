"""The set-family container every schedule and construction shares.

A *set family* over the universe ``[n] = {1..n}`` is an ordered list of
subsets; each subset is a *transmission set*: the stations allowed to
transmit in the corresponding time slot.  :class:`SetFamily` stores it in
CSR form (read-only ``offsets``/``flat`` arrays) and answers slot lookups by
station through its :class:`StationIndex`.  The explicit constructions of
:mod:`repro.combinatorics.selectors` and
:mod:`repro.combinatorics.superimposed` both build it, so it lives apart
from either.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro._util import validate_positive_int

__all__ = ["SetFamily", "StationIndex"]


class StationIndex(NamedTuple):
    """Station-major view of a family, for slot lookups by station.

    ``slots[ptr[u]:ptr[u + 1]]`` lists, ascending, the indices of the sets
    containing station ``u``; ``keys[i] = station_of(i) * length + slots[i]``
    is globally ascending, so one :func:`numpy.searchsorted` against ``keys``
    answers "how many slots of station ``u`` lie in ``[a, b)``" for many
    stations at once.
    """

    ptr: np.ndarray
    slots: np.ndarray
    keys: np.ndarray

    def slots_of(self, station: int) -> np.ndarray:
        """Ascending indices of the sets containing ``station`` (empty outside ``[1, n]``)."""
        if not 1 <= station < self.ptr.size - 1:
            return np.empty(0, dtype=np.int64)
        return self.slots[self.ptr[station] : self.ptr[station + 1]]


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


class SetFamily:
    """An ordered family of subsets of the station universe ``[1, n]``.

    Parameters
    ----------
    n:
        Size of the universe; station IDs are ``1..n``.
    sets:
        The ordered transmission sets, any iterables of station IDs
        (duplicates are dropped).
    label:
        Optional human-readable description (e.g. ``"(1024, 8)-selective"``).

    Notes
    -----
    The sets are stored in CSR form: set ``j`` is
    ``flat[offsets[j]:offsets[j + 1]]``, ascending and duplicate-free, so a
    family is two read-only ``int64`` arrays whatever its length.
    :attr:`sets`, indexing and iteration still hand out ``frozenset`` values,
    built on demand.

    The family doubles as a transmission schedule fragment: station ``u``
    transmits in local slot ``j`` (0-based) iff ``u in sets[j]``.
    :class:`repro.core.schedules.FamilySchedule` wraps a family into a full
    :class:`~repro.core.schedules.TransmissionSchedule`.
    """

    __slots__ = ("n", "label", "offsets", "flat", "_index", "_hash")

    def __init__(self, n: int, sets: Iterable[Iterable[int]], label: str = "") -> None:
        n = validate_positive_int(n, "n")
        offsets = [0]
        flat: List[int] = []
        for idx, members in enumerate(sets):
            row = sorted({int(x) for x in members})
            if row and (row[0] < 1 or row[-1] > n):
                # Checked here too: IDs past int64 never reach the arrays.
                station = row[0] if row[0] < 1 else row[-1]
                raise ValueError(f"set #{idx} contains station {station} outside [1, {n}]")
            flat.extend(row)
            offsets.append(len(flat))
        offsets_array = np.asarray(offsets, dtype=np.int64)
        self._init(n, offsets_array, np.asarray(flat, dtype=np.int64), label)

    def _init(self, n: int, offsets: np.ndarray, flat: np.ndarray, label: str) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "n", n)
        setattr_(self, "label", label)
        setattr_(self, "offsets", _frozen(offsets))
        setattr_(self, "flat", _frozen(flat))
        setattr_(self, "_index", None)
        setattr_(self, "_hash", None)
        if flat.size and (flat.min() < 1 or flat.max() > n):
            bad = int(np.flatnonzero((flat < 1) | (flat > n))[0])
            idx = int(np.searchsorted(offsets, bad, side="right")) - 1
            raise ValueError(
                f"set #{idx} contains station {int(flat[bad])} outside [1, {n}]"
            )

    @classmethod
    def from_csr(
        cls, n: int, offsets: np.ndarray, flat: np.ndarray, label: str = ""
    ) -> "SetFamily":
        """Build a family straight from CSR arrays (no per-element Python work).

        ``offsets`` (length ``L + 1``, starting at 0, non-decreasing, ending
        at ``len(flat)``) delimits the sets in ``flat``; each set's members
        must be ascending and distinct.  Raises :class:`ValueError` otherwise,
        and for stations outside ``[1, n]``.
        """
        n = validate_positive_int(n, "n")
        offsets = np.array(offsets, dtype=np.int64)
        flat = np.array(flat, dtype=np.int64)
        if (
            offsets.ndim != 1
            or flat.ndim != 1
            or not offsets.size
            or offsets[0] != 0
            or offsets[-1] != flat.size
            or np.any(np.diff(offsets) < 0)
        ):
            raise ValueError("offsets must rise from 0 to len(flat)")
        family = cls._trusted(n, offsets, flat, label)
        # Within a set, members strictly ascend; across a boundary anything goes.
        rises = np.diff(family._set_of() * (n + 1) + flat) > 0
        if not rises.all():
            raise ValueError("each set's members must be ascending and distinct")
        return family

    @classmethod
    def _trusted(cls, n: int, offsets: np.ndarray, flat: np.ndarray, label: str) -> "SetFamily":
        family = cls.__new__(cls)
        family._init(n, offsets, flat, label)
        return family

    @classmethod
    def concatenated(cls, families: Sequence["SetFamily"]) -> "SetFamily":
        """Run ``families`` back to back: one array concat, offsets shifted.

        The label joins the non-empty labels with ``+``.
        """
        if not families:
            raise ValueError("need at least one family to concatenate")
        n = families[0].n
        label = families[0].label
        for other in families[1:]:
            if other.n != n:
                raise ValueError(
                    f"cannot concatenate families over different universes ({n} vs {other.n})"
                )
            label = f"{label}+{other.label}" if label or other.label else ""
        if len(families) == 1:
            return families[0]
        shifts = np.cumsum([0] + [f.flat.size for f in families[:-1]])
        offsets = np.concatenate(
            [families[0].offsets[:1]]
            + [f.offsets[1:] + shift for f, shift in zip(families, shifts)]
        )
        flat = np.concatenate([f.flat for f in families])
        return cls._trusted(n, offsets, flat, label)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"SetFamily is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (_rebuild_family, (self.n, self.offsets, self.flat, self.label))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return (
            self.n == other.n
            and self.label == other.label
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.flat, other.flat)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            digest = (self.n, self.label, self.offsets.tobytes(), self.flat.tobytes())
            object.__setattr__(self, "_hash", hash(digest))
        return self._hash

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, length={self.length}, label={self.label!r})"

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        for j in range(len(self)):
            yield self[j]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[j] for j in range(*index.indices(len(self))))
        length = len(self)
        if not -length <= index < length:
            raise IndexError(f"set index {index} out of range for length {length}")
        index %= length
        lo, hi = self.offsets[index], self.offsets[index + 1]
        return frozenset(self.flat[lo:hi].tolist())

    @property
    def sets(self) -> Tuple[FrozenSet[int], ...]:
        """The ordered transmission sets as frozensets (built on each access)."""
        return tuple(self)

    @property
    def length(self) -> int:
        """Number of transmission sets (= number of time slots consumed)."""
        return len(self)

    def _set_of(self) -> np.ndarray:
        """Set index of every entry of :attr:`flat` (non-decreasing)."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.offsets))

    def station_index(self) -> StationIndex:
        """The :class:`StationIndex` of this family, built once and kept."""
        if self._index is None:
            length = len(self)
            keys = np.sort(self.flat * length + self._set_of())
            ptr = np.zeros(self.n + 2, dtype=np.int64)
            np.cumsum(np.bincount(self.flat, minlength=self.n + 1), out=ptr[1:])
            slots = keys % max(length, 1)
            index = StationIndex(_frozen(ptr), _frozen(slots), _frozen(keys))
            object.__setattr__(self, "_index", index)
        return self._index

    def contains(self, station: int, index: int) -> bool:
        """Return True iff ``station`` transmits in local slot ``index``."""
        if index < 0:
            index += len(self)
        lo, hi = int(self.offsets[index]), int(self.offsets[index + 1])
        pos = lo + int(np.searchsorted(self.flat[lo:hi], station))
        return pos < hi and int(self.flat[pos]) == station

    def membership_matrix(self) -> np.ndarray:
        """Return a boolean matrix ``B`` with ``B[j, u-1] = (u in sets[j])``.

        Shape is ``(length, n)``.  Useful for vectorized simulation: a slot's
        transmitter count over an awake-set bitmask is a single matrix-vector
        product.
        """
        mat = np.zeros((len(self), self.n), dtype=bool)
        mat[self._set_of(), self.flat - 1] = True
        return mat


def _rebuild_family(n: int, offsets: np.ndarray, flat: np.ndarray, label: str) -> SetFamily:
    """Unpickle a :class:`SetFamily` without re-validating its arrays."""
    return SetFamily._trusted(n, offsets, flat, label)
