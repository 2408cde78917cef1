"""Tests for repro.channel.adversary: pattern generators and the lower-bound adversary."""

from __future__ import annotations

import pytest

from repro.channel.adversary import (
    AdaptiveLowerBoundAdversary,
    batched_pattern,
    family_boundary_pattern,
    random_station_subset,
    simultaneous_pattern,
    staggered_pattern,
    uniform_random_pattern,
    window_boundary_pattern,
)
from repro.core.lower_bounds import trivial_lower_bound
from repro.core.round_robin import RoundRobin


class TestPatternGenerators:
    def test_random_station_subset(self, rng):
        subset = random_station_subset(20, 5, rng)
        assert len(subset) == 5
        assert len(set(subset)) == 5
        assert all(1 <= u <= 20 for u in subset)

    def test_simultaneous(self, rng):
        p = simultaneous_pattern(16, 4, start=3, rng=rng)
        assert p.k == 4
        assert p.first_wake == 3
        assert p.last_wake == 3

    def test_simultaneous_with_explicit_stations(self):
        p = simultaneous_pattern(16, 3, stations=[2, 5, 9])
        assert p.stations == (2, 5, 9)

    def test_staggered(self, rng):
        p = staggered_pattern(16, 4, start=2, gap=3, rng=rng)
        times = sorted(p.wake_times.values())
        assert times == [2, 5, 8, 11]

    def test_staggered_zero_gap_is_simultaneous(self, rng):
        p = staggered_pattern(16, 4, gap=0, rng=rng)
        assert p.last_wake == p.first_wake

    def test_staggered_negative_gap_rejected(self, rng):
        with pytest.raises(ValueError):
            staggered_pattern(16, 4, gap=-1, rng=rng)

    def test_batched(self, rng):
        p = batched_pattern(32, 6, batch_size=2, batch_gap=10, rng=rng)
        times = sorted(p.wake_times.values())
        assert times == [0, 0, 10, 10, 20, 20]

    def test_batched_validation(self, rng):
        with pytest.raises(ValueError):
            batched_pattern(32, 4, batch_size=0, rng=rng)
        with pytest.raises(ValueError):
            batched_pattern(32, 4, batch_gap=-1, rng=rng)

    def test_uniform_random_pins_first_station(self, rng):
        p = uniform_random_pattern(32, 6, start=5, window=20, rng=rng)
        assert p.first_wake == 5
        assert p.last_wake < 25
        assert p.k == 6

    def test_uniform_random_window_validation(self, rng):
        with pytest.raises(ValueError):
            uniform_random_pattern(32, 4, window=0, rng=rng)

    def test_window_boundary_pattern(self, rng):
        p = window_boundary_pattern(32, 4, window_length=4, start=0, rng=rng)
        # Every wake is one slot after a window boundary.
        for t in p.wake_times.values():
            assert t % 4 == 1

    def test_family_boundary_pattern(self, rng):
        p = family_boundary_pattern(32, 4, boundaries=[0, 10, 25], rng=rng)
        assert p.first_wake == 0
        for t in p.wake_times.values():
            assert t == 0 or (t - 1) in {0, 10, 25}

    def test_family_boundary_requires_boundaries(self, rng):
        with pytest.raises(ValueError):
            family_boundary_pattern(32, 4, boundaries=[], rng=rng)


class TestAdaptiveLowerBoundAdversary:
    def test_round_robin_reaches_theoretical_bound(self):
        n, k = 16, 4
        adversary = AdaptiveLowerBoundAdversary(RoundRobin(n))
        report = adversary.run(k, rng=0)
        assert report.theoretical_bound == trivial_lower_bound(n, k)
        # Round-robin spends one distinct slot per isolation, so the adversary
        # observes at least min(k, n-k) distinct isolating slots.
        assert report.distinct_isolating_slots >= min(k, n - k) - 1

    def test_initial_set_respected(self):
        adversary = AdaptiveLowerBoundAdversary(RoundRobin(8))
        report = adversary.run(3, initial=[1, 2, 3], rng=0)
        assert report.contender_sets[0] == (1, 2, 3)

    def test_initial_set_size_validated(self):
        adversary = AdaptiveLowerBoundAdversary(RoundRobin(8))
        with pytest.raises(ValueError):
            adversary.run(3, initial=[1, 2], rng=0)

    def test_k_equal_n(self):
        adversary = AdaptiveLowerBoundAdversary(RoundRobin(8))
        report = adversary.run(8, rng=0)
        assert report.max_latency >= 0
        assert len(report.latencies) >= 1

    def test_latencies_and_sets_align(self):
        adversary = AdaptiveLowerBoundAdversary(RoundRobin(12))
        report = adversary.run(4, rng=1)
        assert len(report.latencies) == len(report.contender_sets)
