"""Tests for repro.channel.simulator (both execution paths)."""

from __future__ import annotations

import pytest

from repro.channel.feedback import CollisionDetection
from repro.channel.protocols import DeterministicProtocol, RandomizedPolicy
from repro.channel.simulator import Simulator, WakeupResult, run_deterministic, run_randomized
from repro.channel.wakeup import WakeupPattern
from repro.core.round_robin import RoundRobin


class AlwaysTransmit(DeterministicProtocol):
    """Every awake station transmits in every slot (collides forever for k >= 2)."""

    name = "always"

    def transmits(self, station, wake_time, slot):
        return slot >= wake_time


class NeverTransmit(DeterministicProtocol):
    name = "never"

    def transmits(self, station, wake_time, slot):
        return False


class AlwaysPolicy(RandomizedPolicy):
    name = "always-policy"

    def transmit_probability(self, state, slot):
        return 1.0


class BadPolicy(RandomizedPolicy):
    name = "bad-policy"

    def transmit_probability(self, state, slot):
        return 1.5


class TestRunDeterministic:
    def test_round_robin_single_station(self):
        result = run_deterministic(RoundRobin(8), WakeupPattern(8, {5: 0}))
        assert result.solved
        assert result.winner == 5
        assert result.success_slot == 4  # slot with t % 8 == 4
        assert result.latency == 4

    def test_round_robin_multiple_stations(self):
        pattern = WakeupPattern(8, {2: 0, 6: 0})
        result = run_deterministic(RoundRobin(8), pattern)
        assert result.solved
        assert result.winner == 2
        assert result.latency == 1

    def test_latency_measured_from_first_wake(self):
        pattern = WakeupPattern(8, {2: 10})
        result = run_deterministic(RoundRobin(8), pattern)
        assert result.first_wake == 10
        assert result.success_slot == 17  # next slot with t % 8 == 1
        assert result.latency == 7

    def test_unsolvable_returns_unsolved(self):
        pattern = WakeupPattern(8, {1: 0, 2: 0})
        result = run_deterministic(AlwaysTransmit(8), pattern, max_slots=100)
        assert not result.solved
        assert result.latency is None
        with pytest.raises(RuntimeError):
            result.require_solved()

    def test_never_transmit_is_unsolved(self):
        result = run_deterministic(NeverTransmit(8), WakeupPattern(8, {1: 0}), max_slots=50)
        assert not result.solved
        assert result.slots_examined == 50

    def test_single_always_transmitter_succeeds_immediately(self):
        result = run_deterministic(AlwaysTransmit(8), WakeupPattern(8, {3: 7}))
        assert result.solved and result.latency == 0 and result.winner == 3

    def test_mismatched_universe_rejected(self):
        with pytest.raises(ValueError):
            run_deterministic(RoundRobin(8), WakeupPattern(16, {3: 0}))

    def test_trace_recording(self):
        pattern = WakeupPattern(8, {2: 0, 3: 1})
        result = run_deterministic(RoundRobin(8), pattern, record_trace=True)
        assert result.trace is not None
        assert result.trace.first_success().slot == result.success_slot
        # No station transmits before its wake-up time in the trace.
        for record in result.trace:
            for u in record.transmitters:
                assert pattern.wake_time(u) <= record.slot

    def test_chunked_scan_crosses_chunk_boundaries(self):
        # Success far beyond the first chunk: station 7 in a universe of 8 with
        # a tiny initial chunk forces several chunk extensions.
        result = run_deterministic(
            RoundRobin(8), WakeupPattern(8, {7: 0}), chunk=2
        )
        assert result.solved and result.success_slot == 6

    def test_result_is_dataclass_with_expected_fields(self):
        result = run_deterministic(RoundRobin(4), WakeupPattern(4, {1: 0}))
        assert isinstance(result, WakeupResult)
        assert result.protocol.startswith("round-robin")
        assert result.n == 4 and result.k == 1


class TestRunRandomized:
    def test_single_station_always_policy(self):
        result = run_randomized(AlwaysPolicy(8), WakeupPattern(8, {4: 3}), rng=0)
        assert result.solved and result.latency == 0 and result.winner == 4

    def test_two_always_stations_never_succeed(self):
        result = run_randomized(
            AlwaysPolicy(8), WakeupPattern(8, {1: 0, 2: 0}), rng=0, max_slots=50
        )
        assert not result.solved
        assert result.slots_examined == 50

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            run_randomized(BadPolicy(8), WakeupPattern(8, {1: 0}), rng=0, max_slots=5)

    def test_mismatched_universe_rejected(self):
        with pytest.raises(ValueError):
            run_randomized(AlwaysPolicy(8), WakeupPattern(4, {1: 0}), rng=0)

    def test_reproducible_with_seed(self):
        from repro.core.randomized import RepeatedProbabilityDecrease

        pattern = WakeupPattern(32, {3: 0, 7: 1, 20: 2})
        a = run_randomized(RepeatedProbabilityDecrease(32), pattern, rng=5)
        b = run_randomized(RepeatedProbabilityDecrease(32), pattern, rng=5)
        assert a.success_slot == b.success_slot
        assert a.winner == b.winner

    def test_trace_recorded_when_requested(self):
        result = run_randomized(
            AlwaysPolicy(8), WakeupPattern(8, {4: 0}), rng=0, record_trace=True
        )
        assert result.trace is not None and len(result.trace) == 1

    def test_explicit_feedback_model(self):
        result = run_randomized(
            AlwaysPolicy(8),
            WakeupPattern(8, {4: 0}),
            rng=0,
            feedback=CollisionDetection(),
        )
        assert result.solved


class TestSimulatorFacade:
    def test_dispatch_deterministic(self):
        sim = Simulator(max_slots=1000)
        result = sim.run(RoundRobin(16), WakeupPattern(16, {5: 0, 9: 3}))
        assert result.solved

    def test_dispatch_randomized(self):
        sim = Simulator(max_slots=1000, rng=1)
        result = sim.run(AlwaysPolicy(16), WakeupPattern(16, {5: 0}))
        assert result.solved

    def test_dispatch_rejects_unknown_type(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.run(object(), WakeupPattern(4, {1: 0}))


class TestVectorizedMatchesNaive:
    """The vectorized chunked scan must agree with per-slot evaluation."""

    def _naive_first_success(self, protocol, pattern, horizon=2000):
        for slot in range(pattern.first_wake, pattern.first_wake + horizon):
            transmitters = [
                u
                for u, w in pattern.wake_times.items()
                if w <= slot and protocol.transmits(u, w, slot)
            ]
            if len(transmitters) == 1:
                return slot, transmitters[0]
        return None, None

    @pytest.mark.parametrize(
        "wake_times",
        [
            {2: 0, 6: 0},
            {1: 3, 8: 5, 12: 9},
            {3: 0, 4: 1, 5: 2, 6: 3},
        ],
    )
    def test_round_robin_agreement(self, wake_times):
        pattern = WakeupPattern(16, wake_times)
        protocol = RoundRobin(16)
        slot, winner = self._naive_first_success(protocol, pattern)
        result = run_deterministic(protocol, pattern)
        assert result.success_slot == slot
        assert result.winner == winner
