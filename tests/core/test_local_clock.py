"""Tests for repro.core.local_clock (locally synchronous extension)."""

from __future__ import annotations

import pytest

from repro.channel.adversary import simultaneous_pattern, staggered_pattern
from repro.channel.simulator import run_deterministic
from repro.channel.wakeup import WakeupPattern
from repro.core.local_clock import LocalClockScenarioC, LocalClockWakeup
from repro.core.round_robin import RoundRobin
from repro.core.schedules import InterleavedProtocol
from repro.core.selective import concatenated_families
from repro.baselines import KomlosGreenberg


@pytest.fixture(scope="module")
def families_32_k8():
    return concatenated_families(32, 8, rng=17)


class TestLocalClockWakeup:
    def test_schedule_indexed_by_local_time(self, families_32_k8):
        protocol = LocalClockWakeup(32, 8, families=families_32_k8)
        # A station's transmission pattern is identical up to a time shift.
        slots_from_0 = protocol.transmit_slots(5, 0, 0, protocol.period).tolist()
        slots_from_7 = protocol.transmit_slots(5, 7, 7, 7 + protocol.period).tolist()
        assert [s + 7 for s in slots_from_0] == slots_from_7

    def test_transmit_slots_matches_transmits(self, families_32_k8):
        protocol = LocalClockWakeup(32, 8, families=families_32_k8)
        for station in (1, 13, 32):
            for wake in (0, 3, 11):
                expected = [t for t in range(150) if protocol.transmits(station, wake, t)]
                got = protocol.transmit_slots(station, wake, 0, 150).tolist()
                assert got == expected

    def test_equals_komlos_greenberg_for_simultaneous_start(self, families_32_k8):
        # With every contender waking at slot 0, local time == global time, so the
        # protocol behaves exactly like the globally-anchored schedule.
        local = LocalClockWakeup(32, 8, families=families_32_k8)
        kg = KomlosGreenberg(32, 8, families=families_32_k8)
        pattern = simultaneous_pattern(32, 5, rng=3, start=0)
        a = run_deterministic(local, pattern, max_slots=50_000)
        b = run_deterministic(kg, pattern, max_slots=50_000)
        assert (a.success_slot, a.winner) == (b.success_slot, b.winner)

    def test_non_cyclic_variant_goes_silent(self, families_32_k8):
        protocol = LocalClockWakeup(32, 8, families=families_32_k8, cyclic=False)
        wake = 2
        beyond = wake + protocol.period + 5
        assert protocol.transmit_slots(3, wake, wake + protocol.period, beyond).size == 0

    def test_solves_staggered_wakeups(self, families_32_k8):
        protocol = LocalClockWakeup(32, 8, families=families_32_k8)
        pattern = staggered_pattern(32, 6, gap=2, rng=1)
        result = run_deterministic(protocol, pattern, max_slots=100_000)
        assert result.solved

    def test_mismatched_universe_rejected(self):
        families = concatenated_families(16, 4, rng=0)
        with pytest.raises(ValueError):
            LocalClockWakeup(32, 4, families=families)

    def test_describe(self, families_32_k8):
        assert "local-clock-wakeup" in LocalClockWakeup(32, 8, families=families_32_k8).describe()


class TestLocalClockScenarioC:
    def test_no_waiting_phase(self):
        protocol = LocalClockScenarioC(32, seed=3)
        # A lone station can transmit at its very first slot if the matrix allows,
        # regardless of global window boundaries.
        result = run_deterministic(protocol, WakeupPattern(32, {7: 5}), max_slots=100_000)
        assert result.solved

    def test_transmit_slots_matches_transmits(self):
        protocol = LocalClockScenarioC(16, seed=4)
        for station in (1, 9, 16):
            for wake in (0, 2, 7):
                expected = [t for t in range(250) if protocol.transmits(station, wake, t)]
                got = protocol.transmit_slots(station, wake, 0, 250).tolist()
                assert got == expected

    def test_same_parameters_as_global_variant(self):
        from repro.core.scenario_c import WakeupProtocol

        local = LocalClockScenarioC(64, seed=0)
        global_ = WakeupProtocol(64, seed=0)
        assert local.params.rows == global_.params.rows
        assert local.params.length == global_.params.length

    def test_solves_staggered_wakeups(self):
        protocol = LocalClockScenarioC(32, seed=5)
        pattern = staggered_pattern(32, 5, gap=3, rng=2)
        result = run_deterministic(protocol, pattern, max_slots=200_000)
        assert result.solved

    def test_mismatched_matrix_rejected(self):
        from repro.core.waking_matrix import HashedTransmissionMatrix, matrix_parameters

        matrix = HashedTransmissionMatrix(matrix_parameters(16), seed=0)
        with pytest.raises(ValueError):
            LocalClockScenarioC(32, matrix=matrix)


class TestHybridInterleave:
    def test_round_robin_arm_caps_latency(self, families_32_k8):
        protocol = InterleavedProtocol(
            [RoundRobin(32), LocalClockWakeup(32, 8, families=families_32_k8)]
        )
        pattern = staggered_pattern(32, 8, gap=1, stations=list(range(25, 33)))
        result = run_deterministic(protocol, pattern, max_slots=10_000)
        assert result.require_solved() <= 2 * 32
