"""Schedule building blocks shared by every scenario.

The paper composes its algorithms out of a small number of schedule-level
operations:

* running a *family of transmission sets* slot by slot from some origin
  (:class:`FamilySchedule`), possibly cyclically (:class:`CyclicFamilySchedule`,
  used by ``wait_and_go`` which scans its concatenated schedule "in a circular
  way");
* **interleaving** two (or more) schedules — "execute round-robin in odd
  rounds and the other algorithm in even rounds" (:class:`InterleavedProtocol`);
* staying silent (:class:`SilentProtocol`, the behaviour of non-participants
  in ``select_among_the_first``).

Interleaving translates between *absolute* slots and each component's
*virtual* timeline: component ``c`` of an ``m``-way interleave owns absolute
slots ``{c, c+m, c+2m, ...}`` and sees them as virtual slots ``0, 1, 2, ...``.
A station that wakes at absolute slot ``w`` appears to component ``c`` as
waking at the virtual slot of the first owned absolute slot ``>= w``
(:func:`virtual_wake_time`), which preserves the invariant "a station never
transmits before it is awake".
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro._util import ceil_div, ragged_arange
from repro.channel.protocols import DeterministicProtocol
from repro.combinatorics.selectors import SetFamily

__all__ = [
    "virtual_wake_time",
    "FamilySchedule",
    "CyclicFamilySchedule",
    "InterleavedProtocol",
    "SilentProtocol",
]


def virtual_wake_time(wake_time: int, component: int, arity: int) -> int:
    """Virtual wake slot of a station inside one component of an interleave.

    Returns the smallest ``v >= 0`` such that ``component + v * arity >= wake_time``
    — i.e. the index, on the component's own timeline, of the first absolute
    slot owned by the component at which the station is already awake.
    """
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if not 0 <= component < arity:
        raise ValueError(f"component must be in [0, {arity}), got {component}")
    if wake_time <= component:
        return 0
    return ceil_div(wake_time - component, arity)


def cyclic_slots(offsets: np.ndarray, period: int, anchor: int, lo: int, hi: int) -> np.ndarray:
    """Slots in ``[lo, hi)`` of ``anchor + c * period + offset`` for cycles ``c >= 0``.

    ``offsets`` are one period's ascending slot offsets; the result is
    ascending.  The periodic scans (global- and local-clock) share it.
    """
    if hi <= lo or not offsets.size:
        return np.empty(0, dtype=np.int64)
    first_cycle = max(0, (lo - anchor) // period)
    last_cycle = (hi - 1 - anchor) // period
    cycles = np.arange(first_cycle, last_cycle + 1, dtype=np.int64)
    slots = (anchor + cycles[:, None] * period + offsets[None, :]).ravel()
    return slots[(slots >= lo) & (slots < hi)]


class SilentProtocol(DeterministicProtocol):
    """A protocol that never transmits (used for non-participating stations)."""

    name = "silent"

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        return False

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty


class FamilySchedule(DeterministicProtocol):
    """Run a :class:`~repro.combinatorics.set_family.SetFamily` from a fixed origin.

    Station ``u`` transmits at slot ``t`` iff it is awake, ``origin <= t <
    origin + len(family)`` and ``u`` belongs to transmission set number
    ``t - origin``.  Slots outside the family's span are silent.

    Parameters
    ----------
    family:
        The ordered transmission sets.
    origin:
        Absolute (or virtual, when nested inside an interleave) slot at which
        set number 0 is scheduled.
    """

    name = "family-schedule"

    def __init__(self, family: SetFamily, origin: int = 0) -> None:
        super().__init__(family.n)
        if origin < 0:
            raise ValueError(f"origin must be >= 0, got {origin}")
        self.family = family
        self.origin = int(origin)
        # The family's station-major index (built once per family, shared by
        # every schedule over it) backs both the scalar and the batch path.
        self._index = family.station_index()

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        if slot < wake_time or slot < self.origin:
            return False
        index = slot - self.origin
        if index >= self.family.length:
            return False
        return self.family.contains(station, index)

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        slots = self._index.slots_of(station) + self.origin
        lo = max(int(start), int(wake_time), self.origin)
        mask = (slots >= lo) & (slots < int(stop))
        return slots[mask]

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        stations = np.asarray(stations, dtype=np.int64)
        wakes = np.asarray(wakes, dtype=np.int64)
        L = self.family.length
        # Per-pair offset window [lo_rel, hi_rel) inside the family's span;
        # pairs waking at or past the window end get an empty range.
        hi_rel = max(0, min(int(stop) - self.origin, L))
        lo_rel = np.clip(np.maximum(wakes, int(start)) - self.origin, 0, hi_rel)
        # Two searchsorted calls against the composed keys count, per pair,
        # the offsets of its station falling inside its window — exact output
        # size, no over-enumeration.
        keys = self._index.keys
        left = np.searchsorted(keys, stations * L + lo_rel, side="left")
        right = np.searchsorted(keys, stations * L + hi_rel, side="left")
        counts = right - left
        pair_index = np.repeat(np.arange(len(stations), dtype=np.int64), counts)
        flat_pos = np.repeat(left, counts) + ragged_arange(counts)
        return pair_index, self._index.slots[flat_pos] + self.origin

    def describe(self) -> str:
        return f"{self.name}({self.family.label or 'family'}, origin={self.origin})"


class CyclicFamilySchedule(DeterministicProtocol):
    """Run a family cyclically: set number ``t mod length`` is used at slot ``t``.

    This matches the paper's convention for ``wait_and_go`` and for the
    transmission matrix ("the matrix is scanned in a circular way"): the
    schedule is anchored at the *global* clock, not at the station's wake-up.
    """

    name = "cyclic-family-schedule"

    def __init__(self, family: SetFamily) -> None:
        super().__init__(family.n)
        if family.length == 0:
            raise ValueError("cannot build a cyclic schedule from an empty family")
        self.family = family
        self._index = family.station_index()

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        if slot < wake_time:
            return False
        return self.family.contains(station, slot % self.family.length)

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        lo = max(int(start), int(wake_time))
        return cyclic_slots(
            self._index.slots_of(station), self.family.length, 0, lo, int(stop)
        )

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        stations = np.asarray(stations, dtype=np.int64)
        wakes = np.asarray(wakes, dtype=np.int64)
        z = self.family.length
        hi = int(stop)
        lo = np.maximum(wakes, int(start))
        # Expand each pair into its overlapped cycles of the period.
        first_cycle = lo // z
        ncycles = np.where(lo < hi, (hi - 1) // z - first_cycle + 1, 0)
        cyc_pair = np.repeat(np.arange(len(stations), dtype=np.int64), ncycles)
        cycle = np.repeat(first_cycle, ncycles) + ragged_arange(ncycles)
        base = cycle * z
        # Per (pair, cycle) offset window inside [0, z), then searchsorted
        # against the composed keys — exact output size, no over-enumeration.
        cycle_lo = np.maximum(lo[cyc_pair] - base, 0)
        cycle_hi = np.minimum(hi - base, z)
        st = stations[cyc_pair]
        keys = self._index.keys
        left = np.searchsorted(keys, st * z + cycle_lo, side="left")
        right = np.searchsorted(keys, st * z + cycle_hi, side="left")
        counts = right - left
        pair_index = np.repeat(cyc_pair, counts)
        flat_pos = np.repeat(left, counts) + ragged_arange(counts)
        return pair_index, np.repeat(base, counts) + self._index.slots[flat_pos]

    def describe(self) -> str:
        return f"{self.name}({self.family.label or 'family'}, period={self.family.length})"


class InterleavedProtocol(DeterministicProtocol):
    """Round-robin interleaving of several protocols over the global timeline.

    Absolute slot ``t`` is owned by component ``t mod m`` (``m`` = number of
    components) and corresponds to that component's virtual slot ``t // m``.
    Wake-up times are translated with :func:`virtual_wake_time`.

    The paper uses 2-way interleaving ("one can execute round-robin in odd
    rounds and the other algorithm in even rounds"); the combinator is n-way
    because ablation experiments also interleave three arms.
    """

    name = "interleave"

    def __init__(self, components: Sequence[DeterministicProtocol]) -> None:
        if not components:
            raise ValueError("InterleavedProtocol needs at least one component")
        n = components[0].n
        for comp in components:
            if comp.n != n:
                raise ValueError(
                    "all interleaved components must share the same universe size; "
                    f"got {[c.n for c in components]}"
                )
        super().__init__(n)
        self.components: List[DeterministicProtocol] = list(components)
        self.arity = len(self.components)

    def transmits(self, station: int, wake_time: int, slot: int) -> bool:
        if slot < wake_time:
            return False
        component = slot % self.arity
        virtual_slot = slot // self.arity
        v_wake = virtual_wake_time(wake_time, component, self.arity)
        if virtual_slot < v_wake:
            return False
        return self.components[component].transmits(station, v_wake, virtual_slot)

    def transmit_slots(self, station: int, wake_time: int, start: int, stop: int) -> np.ndarray:
        lo = max(int(start), int(wake_time))
        hi = int(stop)
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        pieces = []
        for component, protocol in enumerate(self.components):
            v_wake = virtual_wake_time(wake_time, component, self.arity)
            # Virtual slots whose absolute counterpart falls in [lo, hi).
            v_start = ceil_div(lo - component, self.arity) if lo > component else 0
            v_stop = ceil_div(hi - component, self.arity) if hi > component else 0
            if v_stop <= v_start:
                continue
            virtual = protocol.transmit_slots(station, v_wake, v_start, v_stop)
            if virtual.size:
                pieces.append(virtual * self.arity + component)
        if not pieces:
            return np.empty(0, dtype=np.int64)
        slots = np.concatenate(pieces)
        slots = slots[(slots >= lo) & (slots < hi)]
        slots.sort()
        return slots

    def batch_transmit_slots(
        self, stations: np.ndarray, wakes: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        stations = np.asarray(stations, dtype=np.int64)
        wakes = np.asarray(wakes, dtype=np.int64)
        lo = np.maximum(wakes, int(start))
        hi = int(stop)
        m = self.arity
        idx_pieces = []
        slot_pieces = []
        for component, protocol in enumerate(self.components):
            v_wakes = np.where(
                wakes <= component, 0, (wakes - component + m - 1) // m
            )
            v_start = ceil_div(int(start) - component, m) if int(start) > component else 0
            v_stop = ceil_div(hi - component, m) if hi > component else 0
            if v_stop <= v_start:
                continue
            pidx, virtual = protocol.batch_transmit_slots(stations, v_wakes, v_start, v_stop)
            if not pidx.size:
                continue
            slots = virtual * m + component
            keep = (slots >= lo[pidx]) & (slots < hi)
            idx_pieces.append(pidx[keep])
            slot_pieces.append(slots[keep])
        if not slot_pieces:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(idx_pieces), np.concatenate(slot_pieces)

    def describe(self) -> str:
        inner = ", ".join(c.describe() for c in self.components)
        return f"{self.name}[{inner}]"
