"""Property-based tests for the guided adversarial search.

The searchable invariants the driver promises:

* mutation operators always yield valid patterns — exactly ``k`` awake
  stations, non-negative wake times;
* search results are bit-identical across interrupt/resume;
* the best-so-far latency is monotone non-decreasing per step;
* one tie convention for every strategy — unsolved rows count as
  ``max_slots``, the earliest candidate wins.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.adversary import SearchSpec, adversarial_search, effective_latencies
from repro.adversary.mutations import merge_row, mutate_row, shift_row, swap_row
from repro.channel.wakeup import WakeupPattern
from repro.sweeps.store import SweepStore

wake_dicts = st.dictionaries(
    keys=st.integers(min_value=1, max_value=24),
    values=st.integers(min_value=0, max_value=200),
    min_size=1,
    max_size=12,
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _apply(row_operator, pattern, rng, **params) -> WakeupPattern:
    """Run a row operator on ``pattern``'s pair arrays; read the row back."""
    row = row_operator(pattern.n, *pattern.pair_arrays(), rng, **params)
    return WakeupPattern.from_arrays(pattern.n, *row)


class TestMutationProperties:
    @given(wakes=wake_dicts, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_every_operator_preserves_validity(self, wakes, seed):
        pattern = WakeupPattern(24, wakes)
        for index, op in enumerate((shift_row, swap_row, merge_row)):
            mutated = _apply(op, pattern, np.random.default_rng(seed + index))
            assert isinstance(mutated, WakeupPattern)
            assert mutated.n == pattern.n
            assert mutated.k == pattern.k  # station count preserved
            assert all(t >= 0 for t in mutated.wake_times.values())

    @given(wakes=wake_dicts, seed=seeds, max_time=st.integers(min_value=0, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_mutate_respects_max_time(self, wakes, seed, max_time):
        pattern = WakeupPattern(24, {u: min(t, max_time) for u, t in wakes.items()})
        mutated = _apply(mutate_row, pattern, np.random.default_rng(seed), max_time=max_time)
        assert mutated.k == pattern.k
        assert all(0 <= t <= max_time for t in mutated.wake_times.values())

    @given(wakes=wake_dicts, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_mutate_stream_is_reproducible(self, wakes, seed):
        pattern = WakeupPattern(24, wakes)
        a = _apply(mutate_row, pattern, np.random.default_rng(seed))
        b = _apply(mutate_row, pattern, np.random.default_rng(seed))
        assert a == b

    @given(wakes=wake_dicts)
    @settings(max_examples=20, deadline=None)
    def test_swap_at_full_universe_falls_back_to_shift(self, wakes):
        n = max(wakes)
        full = WakeupPattern(n, {u: 0 for u in range(1, n + 1)})
        mutated = _apply(swap_row, full, np.random.default_rng(0))
        assert mutated.k == n  # fell back to a shift, station set unchanged
        assert set(mutated.wake_times) == set(full.wake_times)

    def test_mutate_rejects_unknown_ops(self):
        pattern = WakeupPattern(8, {1: 0})
        with pytest.raises(KeyError, match="nope"):
            _apply(mutate_row, pattern, np.random.default_rng(0), ops=["nope"])


class TestTieConvention:
    @given(
        latencies=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_unsolved_rows_count_as_max_slots(self, latencies, data):
        solved = data.draw(
            st.lists(st.booleans(), min_size=len(latencies), max_size=len(latencies))
        )
        max_slots = 100
        effective = effective_latencies(
            np.asarray(latencies), np.asarray(solved), max_slots
        )
        expected = [lat if ok else max_slots for lat, ok in zip(latencies, solved)]
        assert effective.tolist() == expected

    @given(
        latencies=st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_earliest_candidate_wins_ties(self, latencies):
        # np.argmax — the driver's tie convention — returns the first index
        # achieving the maximum.
        effective = effective_latencies(
            np.asarray(latencies), np.ones(len(latencies), dtype=bool), 100
        )
        winner = int(np.argmax(effective))
        best = max(latencies)
        assert latencies[winner] == best
        assert all(lat < best for lat in latencies[:winner])


def _spec(strategy: str, seed: int, budget: int = 96) -> SearchSpec:
    return SearchSpec(
        protocol="scenario-b",
        n=32,
        k=4,
        strategy=strategy,
        budget=budget,
        population=16,
        seed=seed,
        window=64,
        max_slots=50_000,
    )


class TestSearchInvariance:
    @given(strategy=st.sampled_from(["random", "anneal", "evolution", "bandit"]), seed=seeds)
    @example(strategy="random", seed=0)
    @settings(max_examples=8, deadline=None)
    def test_best_so_far_is_monotone(self, strategy, seed):
        result = adversarial_search(_spec(strategy, seed))
        best = result.best_per_step()
        assert best == sorted(best)
        assert result.best.latency == best[-1]

    @given(
        strategy=st.sampled_from(["random", "anneal", "evolution", "bandit"]),
        seed=seeds,
        stop_at=st.integers(min_value=1, max_value=5),
    )
    @example(strategy="random", seed=0, stop_at=2)
    @settings(max_examples=6, deadline=None)
    def test_bit_identical_across_interrupt_resume(self, strategy, seed, stop_at):
        import tempfile

        spec = _spec(strategy, seed)
        uninterrupted = adversarial_search(spec)

        class Interrupt(Exception):
            pass

        def tripwire(step, evaluated, best):
            if step == stop_at:
                raise Interrupt

        with tempfile.TemporaryDirectory() as root:
            store = SweepStore(root)
            try:
                adversarial_search(spec, store=store, progress=tripwire)
            except Interrupt:
                pass
            resumed = adversarial_search(spec, store=store)
        assert resumed.best == uninterrupted.best
        assert resumed.history == uninterrupted.history
        assert resumed.evaluated == uninterrupted.evaluated
