"""Property-based tests for wake-up patterns and pattern generators."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.channel.adversary import (
    batched_pattern,
    simultaneous_pattern,
    staggered_pattern,
    uniform_random_pattern,
)
from repro.channel.wakeup import WakeupPattern


wake_dicts = st.dictionaries(
    keys=st.integers(min_value=1, max_value=32),
    values=st.integers(min_value=0, max_value=100),
    min_size=1,
    max_size=16,
)


class TestWakeupPatternProperties:
    @given(wakes=wake_dicts)
    @settings(max_examples=60, deadline=None)
    def test_first_wake_and_awake_sets_consistent(self, wakes):
        pattern = WakeupPattern(32, wakes)
        s = pattern.first_wake
        assert pattern.awake_count_at(s - 1) == 0 if s > 0 else True
        assert pattern.awake_count_at(s) >= 1
        assert pattern.awake_count_at(pattern.last_wake) == pattern.k
        # awake_count is monotone in the slot.
        counts = [pattern.awake_count_at(t) for t in range(s, pattern.last_wake + 2)]
        assert counts == sorted(counts)

    @given(wakes=wake_dicts, shift=st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_shift_preserves_relative_structure(self, wakes, shift):
        pattern = WakeupPattern(32, wakes)
        shifted = pattern.shifted(shift)
        assert shifted.k == pattern.k
        assert shifted.first_wake == pattern.first_wake + shift
        for station in pattern.stations:
            assert shifted.wake_time(station) == pattern.wake_time(station) + shift


ks = st.integers(min_value=1, max_value=16)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestGeneratorProperties:
    @given(k=ks, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_simultaneous_has_single_wake_slot(self, k, seed):
        p = simultaneous_pattern(32, k, rng=seed)
        assert p.k == k
        assert p.first_wake == p.last_wake

    @given(k=ks, gap=st.integers(min_value=0, max_value=5), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_staggered_spacing(self, k, gap, seed):
        p = staggered_pattern(32, k, gap=gap, rng=seed)
        times = sorted(p.wake_times.values())
        assert times == [i * gap for i in range(k)]

    @given(k=ks, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_uniform_random_within_window(self, k, seed):
        window = 37
        p = uniform_random_pattern(32, k, window=window, rng=seed)
        assert p.first_wake == 0
        assert all(0 <= t < window for t in p.wake_times.values())

    @given(
        k=ks,
        batch_size=st.integers(min_value=1, max_value=5),
        batch_gap=st.integers(min_value=0, max_value=9),
        seed=seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_wake_times_are_multiples_of_gap(self, k, batch_size, batch_gap, seed):
        p = batched_pattern(32, k, batch_size=batch_size, batch_gap=batch_gap, rng=seed)
        for t in p.wake_times.values():
            assert batch_gap == 0 or t % batch_gap == 0
