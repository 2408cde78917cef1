"""Wake-up patterns: which stations wake up, and when.

A *wake-up pattern* is the adversary's move in the paper's model: an
assignment of wake-up slots to a subset of at most ``k`` stations out of the
universe ``[1, n]``.  The pattern determines

* ``s`` — the first slot at which some station is awake (the paper measures
  latency from ``s``), and
* the contender set available at every subsequent slot.

Patterns are immutable value objects; the generators that build interesting
patterns (adversarial, random, bursty, ...) live in
:mod:`repro.channel.adversary`.  Generators draw whole rows as arrays and
build their patterns with :meth:`WakeupPattern.from_arrays`, which keeps the
aligned ``int64`` station/wake arrays on the instance; the batch engines read
those arrays directly (:meth:`WakeupPattern.pair_arrays`) instead of walking
the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro._util import validate_positive_int, validate_station_id

__all__ = ["WakeupPattern", "encode_wake_times", "decode_wake_times"]


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
