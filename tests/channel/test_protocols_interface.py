"""Tests for the protocol interfaces in repro.channel.protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.feedback import FeedbackSignal
from repro.channel.protocols import (
    DeterministicProtocol,
    RandomizedPolicy,
    StationState,
    zero_before_wake,
)


class EveryThirdSlot(DeterministicProtocol):
    """Transmit on slots divisible by 3 (once awake)."""

    name = "every-third"

    def transmits(self, station, wake_time, slot):
        return slot >= wake_time and slot % 3 == 0


class HalfProbability(RandomizedPolicy):
    name = "half"

    def transmit_probability(self, state, slot):
        return 0.5


class TestDeterministicProtocolDefaults:
    def test_default_transmit_slots_uses_transmits(self):
        protocol = EveryThirdSlot(8)
        slots = protocol.transmit_slots(1, wake_time=2, start=0, stop=20)
        assert slots.tolist() == [3, 6, 9, 12, 15, 18]

    def test_default_transmit_slots_respects_wake_time(self):
        protocol = EveryThirdSlot(8)
        slots = protocol.transmit_slots(1, wake_time=7, start=0, stop=20)
        assert slots.min() >= 7

    def test_empty_range(self):
        protocol = EveryThirdSlot(8)
        assert protocol.transmit_slots(1, 0, 10, 10).size == 0
        assert protocol.transmit_slots(1, 0, 10, 5).size == 0

    def test_describe_mentions_n(self):
        assert "n=8" in EveryThirdSlot(8).describe()

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            EveryThirdSlot(0)


class TestStationState:
    def test_initial_counts(self):
        state = StationState(3, 7)
        assert state.station == 3
        assert state.wake_time == 7
        assert state.transmission_count == 0
        assert state.collision_count == 0
        assert state.extra == {}


class TestRandomizedPolicyDefaults:
    def test_create_state(self):
        policy = HalfProbability(8)
        state = policy.create_state(2, 5)
        assert isinstance(state, StationState)
        assert (state.station, state.wake_time) == (2, 5)

    def test_observe_bookkeeping(self):
        policy = HalfProbability(8)
        state = policy.create_state(2, 0)
        gen = np.random.default_rng(0)
        policy.observe(state, 0, FeedbackSignal.COLLISION, transmitted=True, rng=gen)
        policy.observe(state, 1, FeedbackSignal.QUIET, transmitted=False, rng=gen)
        policy.observe(state, 2, FeedbackSignal.SUCCESS, transmitted=True, rng=gen)
        assert state.transmission_count == 2
        assert state.collision_count == 1

    def test_requires_collision_detection_default_false(self):
        assert HalfProbability(8).requires_collision_detection is False


class TestZeroBeforeWake:
    def test_zeroes_exactly_the_slots_before_each_wake(self):
        slots = np.arange(10, 16, dtype=np.int64)
        wakes = np.asarray([8, 12, 15, 30], dtype=np.int64)
        matrix = np.full((4, slots.size), 0.5)
        out = zero_before_wake(matrix, slots, wakes)
        assert out is matrix  # in place
        expected = np.where(slots[None, :] < wakes[:, None], 0.0, 0.5)
        np.testing.assert_array_equal(out, expected)

    def test_all_awake_window_is_left_untouched(self):
        slots = np.arange(20, 24, dtype=np.int64)
        matrix = np.full((2, slots.size), 0.25)
        out = zero_before_wake(matrix, slots, [3, 20])
        assert out is matrix
        assert (out == 0.25).all()

    def test_empty_inputs_pass_through(self):
        empty_slots = np.empty(0, dtype=np.int64)
        matrix = np.empty((2, 0))
        assert zero_before_wake(matrix, empty_slots, [1, 2]) is matrix
        no_pairs = np.empty((0, 3))
        assert zero_before_wake(no_pairs, np.arange(3), []) is no_pairs
