"""Tests for repro.baselines (TDMA, ALOHA, BEB, tree splitting, Komlós–Greenberg)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.adversary import simultaneous_pattern, staggered_pattern
from repro.channel.feedback import FeedbackSignal
from repro.channel.simulator import run_deterministic, run_randomized
from repro.channel.wakeup import WakeupPattern
from repro.baselines import (
    BinaryExponentialBackoff,
    KomlosGreenberg,
    SlottedAloha,
    TDMA,
    TreeSplitting,
    tuned_aloha,
)
from repro.core.selective import concatenated_families


class TestTDMA:
    def test_matches_round_robin_without_guard_slots(self):
        tdma = TDMA(8)
        for t in range(16):
            transmitters = [u for u in range(1, 9) if tdma.transmits(u, 0, t)]
            assert transmitters == [t % 8 + 1]

    def test_guard_slots_with_longer_frame(self):
        tdma = TDMA(4, frame=6)
        # Slots 4 and 5 of each frame belong to nobody.
        assert not any(tdma.transmits(u, 0, 4) for u in range(1, 5))
        assert not any(tdma.transmits(u, 0, 5) for u in range(1, 5))
        assert tdma.transmits(1, 0, 6)

    def test_frame_shorter_than_n_rejected(self):
        with pytest.raises(ValueError):
            TDMA(8, frame=4)

    def test_transmit_slots_matches_transmits(self):
        tdma = TDMA(5, frame=7)
        for station in range(1, 6):
            expected = [t for t in range(30) if tdma.transmits(station, 2, t)]
            assert tdma.transmit_slots(station, 2, 0, 30).tolist() == expected

    def test_solves_wakeup(self):
        result = run_deterministic(TDMA(16), WakeupPattern(16, {7: 0, 12: 1}))
        assert result.solved


class TestSlottedAloha:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            SlottedAloha(8, 0.0)
        with pytest.raises(ValueError):
            SlottedAloha(8, 1.2)

    def test_tuned_aloha_probability(self):
        policy = tuned_aloha(64, 8)
        state = policy.create_state(1, 0)
        assert policy.transmit_probability(state, 0) == pytest.approx(1 / 8)

    def test_tuned_aloha_expected_latency_is_constant(self):
        n, k = 64, 8
        policy = tuned_aloha(n, k)
        rng = np.random.default_rng(0)
        latencies = []
        for seed in range(40):
            pattern = simultaneous_pattern(n, k, rng=seed)
            latencies.append(
                run_randomized(policy, pattern, rng=rng, max_slots=10_000).require_solved()
            )
        # Expected ~ e ≈ 2.7; allow generous slack.
        assert np.mean(latencies) < 10

    def test_solves_single_station(self):
        policy = SlottedAloha(8, 0.5)
        result = run_randomized(policy, WakeupPattern(8, {3: 0}), rng=1, max_slots=1000)
        assert result.solved


class TestBinaryExponentialBackoff:
    def test_requires_collision_detection_flag(self):
        assert BinaryExponentialBackoff(8).requires_collision_detection

    def test_backoff_window_grows_after_collision(self):
        policy = BinaryExponentialBackoff(8)
        state = policy.create_state(1, 0)
        assert policy.transmit_probability(state, 0) == 1.0
        policy.observe(
            state, 0, FeedbackSignal.COLLISION, transmitted=True, rng=np.random.default_rng(0)
        )
        assert state.extra["collisions"] == 1
        assert state.extra["next_attempt"] >= 1

    def test_exponent_capped(self):
        policy = BinaryExponentialBackoff(8, max_exponent=2)
        state = policy.create_state(1, 0)
        gen = np.random.default_rng(0)
        for slot in range(10):
            policy.observe(state, slot, FeedbackSignal.COLLISION, transmitted=True, rng=gen)
        assert state.extra["collisions"] == 2

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            BinaryExponentialBackoff(8, max_exponent=-1)

    def test_overflowing_exponent_rejected(self):
        # 2^63 does not fit the engine's int64 state arrays: the vectorized
        # and scalar paths could no longer agree bit for bit.
        with pytest.raises(ValueError):
            BinaryExponentialBackoff(8, max_exponent=63)
        assert BinaryExponentialBackoff(8, max_exponent=62).max_exponent == 62

    def test_solves_wakeup_with_collision_detection(self):
        policy = BinaryExponentialBackoff(16)
        pattern = simultaneous_pattern(16, 4, rng=0)
        result = run_randomized(policy, pattern, rng=5, max_slots=10_000)
        assert result.solved

    def test_backoff_draws_from_the_pattern_stream(self):
        # The backoff window is the next uniform of the pattern generator
        # handed to observe: floor(u * 2) slots after the first collision.
        for probe_seed in range(5):
            policy = BinaryExponentialBackoff(8)
            state = policy.create_state(1, 0)
            policy.observe(
                state, 0, FeedbackSignal.COLLISION, True, rng=np.random.default_rng(probe_seed)
            )
            u = np.random.default_rng(probe_seed).random()
            assert state.extra["next_attempt"] == 1 + int(u * 2)

    def test_backoff_window_is_uniform_over_the_window(self):
        # floor(u * 2^c) with u ~ U[0, 1) covers {0, ..., 2^c - 1}.
        policy = BinaryExponentialBackoff(8, max_exponent=2)
        gen = np.random.default_rng(0)
        offsets = set()
        for _ in range(200):
            state = policy.create_state(1, 0)
            state.extra["collisions"] = 1  # next collision caps the exponent
            policy.observe(state, 10, FeedbackSignal.COLLISION, True, rng=gen)
            offsets.add(state.extra["next_attempt"] - 11)
        assert offsets == {0, 1, 2, 3}


class TestTreeSplitting:
    def test_requires_collision_detection_flag(self):
        assert TreeSplitting(8).requires_collision_detection

    def test_counter_dynamics(self):
        policy = TreeSplitting(8)
        state = policy.create_state(1, 0)
        assert state.extra["counter"] == 0
        # A waiting station increments on collision and decrements on success/idle.
        state.extra["counter"] = 2
        gen = np.random.default_rng(1)
        policy.observe(state, 0, FeedbackSignal.COLLISION, transmitted=False, rng=gen)
        assert state.extra["counter"] == 3
        policy.observe(state, 1, FeedbackSignal.SUCCESS, transmitted=False, rng=gen)
        assert state.extra["counter"] == 2
        policy.observe(state, 2, FeedbackSignal.QUIET, transmitted=False, rng=gen)
        assert state.extra["counter"] == 1

    def test_solves_wakeup(self):
        policy = TreeSplitting(32)
        pattern = simultaneous_pattern(32, 8, rng=1)
        result = run_randomized(policy, pattern, rng=7, max_slots=10_000)
        assert result.solved

    def test_solves_staggered_wakeup(self):
        policy = TreeSplitting(32)
        pattern = staggered_pattern(32, 6, gap=2, rng=1)
        result = run_randomized(policy, pattern, rng=9, max_slots=10_000)
        assert result.solved

    def test_splitting_coin_comes_from_the_pattern_stream(self):
        # The coin flip is the next uniform of the pattern generator handed
        # to observe: tails (u < 0.5) moves the station down the stack.
        for probe_seed in range(5):
            policy = TreeSplitting(8)
            state = policy.create_state(1, 0)
            policy.observe(
                state, 0, FeedbackSignal.COLLISION, True, rng=np.random.default_rng(probe_seed)
            )
            u = np.random.default_rng(probe_seed).random()
            assert state.extra["counter"] == (1 if u < 0.5 else 0)


class TestKomlosGreenberg:
    def test_period_is_concatenation_length(self):
        families = concatenated_families(32, 8, rng=0)
        protocol = KomlosGreenberg(32, 8, families=families)
        assert protocol.period == sum(f.length for f in families)

    def test_solves_synchronized_start(self):
        protocol = KomlosGreenberg(32, 8, rng=1)
        for k in (1, 2, 4, 8):
            pattern = simultaneous_pattern(32, k, rng=k)
            result = run_deterministic(protocol, pattern, max_slots=50_000)
            assert result.solved

    def test_defaults_k_to_n(self):
        protocol = KomlosGreenberg(16, rng=0)
        assert protocol.k == 16

    def test_no_waiting_rule(self):
        # Unlike WaitAndGo, a station can transmit before the next family boundary.
        families = concatenated_families(16, 4, rng=0)
        protocol = KomlosGreenberg(16, 4, families=families)
        station_in_first_set = next(iter(families[0][1])) if families[0][1] else None
        if station_in_first_set is not None:
            assert protocol.transmits(station_in_first_set, 1, 1)

    def test_transmit_slots_matches_transmits(self):
        protocol = KomlosGreenberg(16, 4, rng=2)
        for station in (1, 8, 16):
            expected = [t for t in range(100) if protocol.transmits(station, 3, t)]
            assert protocol.transmit_slots(station, 3, 0, 100).tolist() == expected
