"""Property-based tests on protocol invariants (hypothesis).

Two invariants are enforced for *every* deterministic protocol in the library:

1. **No early transmission** — a station never transmits before its wake-up
   slot (the model forbids it, and the simulator's correctness depends on it).
2. **Vectorized/scalar agreement** — ``transmit_slots`` must return exactly
   the slots at which ``transmits`` says True, because the fast simulation
   path trusts the vectorized answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import TDMA, KomlosGreenberg
from repro.core.local_clock import LocalClockScenarioC, LocalClockWakeup
from repro.core.round_robin import RoundRobin
from repro.core.scenario_a import SelectAmongTheFirst, WakeupWithS
from repro.core.scenario_b import WaitAndGo, WakeupWithK
from repro.core.scenario_c import WakeupProtocol
from repro.core.schedules import InterleavedProtocol, SilentProtocol
from repro.core.selective import concatenated_families

N = 16
_FAMILIES = concatenated_families(N, N, rng=99)
_FAMILIES_K4 = _FAMILIES[:2]
_EXPLICIT_K4 = concatenated_families(N, 4, method="explicit")

#: Every deterministic protocol in the library, instantiated on the same universe.
PROTOCOLS = [
    RoundRobin(N),
    TDMA(N, frame=N + 3),
    SilentProtocol(N),
    SelectAmongTheFirst(N, s=0, families=_FAMILIES),
    WakeupWithS(N, s=0, families=_FAMILIES),
    WaitAndGo(N, 4, families=_FAMILIES_K4),
    WakeupWithK(N, 4, families=_FAMILIES_K4),
    KomlosGreenberg(N, 4, families=_FAMILIES_K4),
    WakeupProtocol(N, seed=5),
    InterleavedProtocol([RoundRobin(N), WakeupProtocol(N, seed=5)]),
    LocalClockWakeup(N, 4, families=_FAMILIES_K4),
    LocalClockScenarioC(N, seed=5),
    # Variants of the above: a known first slot s > 0, the explicit
    # construction, the non-cyclic local schedule, the round-robin +
    # local-clock hybrid and a non-default Scenario C matrix (the E10 window
    # ablation).
    SelectAmongTheFirst(N, s=7, families=_FAMILIES),
    WakeupWithS(N, s=7, families=_FAMILIES),
    WakeupWithK(N, 4, families=_EXPLICIT_K4),
    LocalClockWakeup(N, 4, families=_FAMILIES_K4, cyclic=False),
    InterleavedProtocol([RoundRobin(N), LocalClockWakeup(N, 4, families=_FAMILIES_K4)]),
    WakeupProtocol(N, c=3, window=4, seed=5),
]

#: Protocols whose schedule is indexed by the station's own clock (rounds
#: since its wake-up), and protocols indexed by the global slot number.
LOCAL_CLOCK_PROTOCOLS = [
    LocalClockWakeup(N, 4, families=_FAMILIES_K4),
    LocalClockWakeup(N, 4, families=_FAMILIES_K4, cyclic=False),
    LocalClockScenarioC(N, seed=5),
]
GLOBAL_CLOCK_PROTOCOLS = [
    RoundRobin(N),
    TDMA(N, frame=N + 3),
    KomlosGreenberg(N, 4, families=_FAMILIES_K4),
]

station_strategy = st.integers(min_value=1, max_value=N)
wake_strategy = st.integers(min_value=0, max_value=40)
window_strategy = st.tuples(
    st.integers(min_value=0, max_value=120), st.integers(min_value=1, max_value=80)
)


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.describe())
class TestProtocolInvariants:
    @given(station=station_strategy, wake=wake_strategy)
    @settings(max_examples=25, deadline=None)
    def test_never_transmits_before_wake(self, protocol, station, wake):
        for slot in range(0, wake):
            assert not protocol.transmits(station, wake, slot)

    @given(station=station_strategy, wake=wake_strategy, window=window_strategy)
    @settings(max_examples=25, deadline=None)
    def test_transmit_slots_matches_transmits(self, protocol, station, wake, window):
        start, length = window
        stop = start + length
        expected = [t for t in range(start, stop) if protocol.transmits(station, wake, t)]
        got = protocol.transmit_slots(station, wake, start, stop)
        assert got.tolist() == expected

    @given(station=station_strategy, wake=wake_strategy, window=window_strategy)
    @settings(max_examples=10, deadline=None)
    def test_transmit_slots_sorted_and_in_range(self, protocol, station, wake, window):
        start, length = window
        stop = start + length
        slots = protocol.transmit_slots(station, wake, start, stop)
        assert np.all(np.diff(slots) > 0) if slots.size > 1 else True
        if slots.size:
            assert slots.min() >= max(start, wake)
            assert slots.max() < stop


@pytest.mark.parametrize("protocol", LOCAL_CLOCK_PROTOCOLS, ids=lambda p: p.describe())
@given(station=station_strategy, wake=wake_strategy, window=window_strategy)
@settings(max_examples=25, deadline=None)
def test_local_clock_schedule_counts_from_wakeup(protocol, station, wake, window):
    # Waking later shifts the whole schedule: the station transmits in its
    # local round r whatever the global slot of its wake-up.
    start, length = window
    shifted = protocol.transmit_slots(station, wake, wake + start, wake + start + length)
    anchored = protocol.transmit_slots(station, 0, start, start + length)
    assert shifted.tolist() == (anchored + wake).tolist()


@pytest.mark.parametrize("protocol", GLOBAL_CLOCK_PROTOCOLS, ids=lambda p: p.describe())
@given(
    station=station_strategy,
    wakes=st.tuples(wake_strategy, wake_strategy),
    length=st.integers(min_value=1, max_value=120),
)
@settings(max_examples=25, deadline=None)
def test_global_clock_schedule_ignores_wakeup(protocol, station, wakes, length):
    # Once awake, a station follows the global slot number: two wake-ups
    # of one station agree on every slot after the later of them.
    early, late = sorted(wakes)
    a = protocol.transmit_slots(station, early, late, late + length)
    b = protocol.transmit_slots(station, late, late, late + length)
    assert a.tolist() == b.tolist()
