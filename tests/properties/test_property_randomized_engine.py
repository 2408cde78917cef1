"""Property-based equivalence of the randomized batch engine and the slot loop.

The contract of :func:`repro.engine.run_randomized_batch` is that, given the
same per-pattern child generators, its outcome columns are *bit-for-bit*
identical to running :func:`repro.channel.simulator.run_randomized` pattern
by pattern — for any policy, any batch of wake-up patterns, any chunk size,
and any horizon (including rows that never solve).  The engine earns this by
consuming each pattern's stream in the slot loop's exact order: slots
ascending, stations in pattern order within a slot, one uniform draw per
awake station with positive probability.  These tests pin the contract down
across every oblivious policy with a native ``transmit_probability_matrix``,
one relying on the generic scalar-derived default, and the feedback-driven
policies it dispatches to the feedback engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import BinaryExponentialBackoff, SlottedAloha, TreeSplitting
from repro.channel.protocols import FeedbackVectorizedPolicy, RandomizedPolicy
from repro.channel.simulator import run_randomized
from repro.channel.wakeup import WakeupPattern
from repro.core.randomized import (
    DecayPolicy,
    FixedProbabilityPolicy,
    RepeatedProbabilityDecrease,
)
from repro.engine import run_randomized_batch

N = 16


class _HalfAfterWarmup(RandomizedPolicy):
    """Oblivious policy without a native matrix: exercises the generic default.

    Probability 0 for the first two slots after wake-up (exercising the
    draw-consumption rule for zero-probability cells), then 0.5.
    """

    name = "half-after-warmup"

    def transmit_probability(self, state, slot):
        return 0.0 if slot - state.wake_time < 2 else 0.5


POLICY_FACTORIES = {
    "rpd": lambda: RepeatedProbabilityDecrease(N),
    "rpd_known_k": lambda: RepeatedProbabilityDecrease(N, k=4),
    "decay": lambda: DecayPolicy(N),
    "fixed": lambda: FixedProbabilityPolicy(N, 0.3),
    "aloha": lambda: SlottedAloha(N, 0.25),
    # Never solves for k >= 2 simultaneous wakers: exercises unsolved rows.
    "always": lambda: FixedProbabilityPolicy(N, 1.0),
    # No native matrix: exercises the scalar-derived default.
    "warmup": lambda: _HalfAfterWarmup(N),
}

wake_dicts = st.dictionaries(
    keys=st.integers(min_value=1, max_value=N),
    values=st.integers(min_value=0, max_value=40),
    min_size=1,
    max_size=6,
)

batches = st.lists(wake_dicts, min_size=1, max_size=8)


def _twin_generators(count, seed_base):
    """Two independent lists of identically seeded per-pattern generators."""
    a = [np.random.default_rng(seed_base + i) for i in range(count)]
    b = [np.random.default_rng(seed_base + i) for i in range(count)]
    return a, b


def _assert_rows_match(batch_result, patterns, policy, reference_gens, max_slots):
    for i, pattern in enumerate(patterns):
        reference = run_randomized(
            policy, pattern, rng=reference_gens[i], max_slots=max_slots
        )
        assert bool(batch_result.solved[i]) == reference.solved
        assert int(batch_result.k[i]) == reference.k
        assert int(batch_result.first_wake[i]) == reference.first_wake
        assert int(batch_result.slots_examined[i]) == reference.slots_examined
        if reference.solved:
            assert int(batch_result.success_slot[i]) == reference.success_slot
            assert int(batch_result.winner[i]) == reference.winner
            assert int(batch_result.latency[i]) == reference.latency
        else:
            assert int(batch_result.success_slot[i]) == -1
            assert int(batch_result.winner[i]) == -1
            assert int(batch_result.latency[i]) == -1


class TestBatchMatchesSlotLoop:
    @given(
        wake_lists=batches,
        name=st.sampled_from(sorted(POLICY_FACTORIES)),
        chunk=st.integers(min_value=1, max_value=200),
        seed_base=st.integers(min_value=0, max_value=1_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_outcomes_bit_for_bit_under_identical_child_streams(
        self, wake_lists, name, chunk, seed_base
    ):
        policy = POLICY_FACTORIES[name]()
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        batch_gens, reference_gens = _twin_generators(len(patterns), seed_base)
        max_slots = 300
        result = run_randomized_batch(
            policy, patterns, rngs=batch_gens, max_slots=max_slots, chunk=chunk
        )
        _assert_rows_match(result, patterns, policy, reference_gens, max_slots)

    @given(
        wake_lists=batches,
        name=st.sampled_from(sorted(POLICY_FACTORIES)),
        chunk=st.integers(min_value=1, max_value=64),
        max_slots=st.integers(min_value=1, max_value=24),
        seed_base=st.integers(min_value=0, max_value=1_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_tight_horizons_and_unsolved_rows_match(
        self, wake_lists, name, chunk, max_slots, seed_base
    ):
        policy = POLICY_FACTORIES[name]()
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        batch_gens, reference_gens = _twin_generators(len(patterns), seed_base)
        result = run_randomized_batch(
            policy, patterns, rngs=batch_gens, max_slots=max_slots, chunk=chunk
        )
        _assert_rows_match(result, patterns, policy, reference_gens, max_slots)

    @pytest.mark.parametrize("name", sorted(POLICY_FACTORIES))
    def test_equal_count_all_awake_fast_path_is_bit_for_bit(self, name):
        # Simultaneous equal-k batches take the engine's contiguous
        # block-draw fast path (no cell enumeration); the hypothesis batches
        # above are ragged and mostly exercise the general path, so pin the
        # fast path explicitly.
        policy = POLICY_FACTORIES[name]()
        patterns = [
            WakeupPattern(N, {s: 0 for s in range(1 + 4 * i, 5 + 4 * i)})
            for i in range(3)
        ]
        batch_gens, reference_gens = _twin_generators(len(patterns), 900)
        result = run_randomized_batch(policy, patterns, rngs=batch_gens, max_slots=400)
        _assert_rows_match(result, patterns, policy, reference_gens, 400)

    @given(
        wake_lists=batches,
        chunks=st.tuples(
            st.integers(min_value=1, max_value=100),
            st.integers(min_value=1, max_value=100),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunk_size_never_changes_outcomes(self, wake_lists, chunks):
        policy = RepeatedProbabilityDecrease(N)
        patterns = [WakeupPattern(N, wakes) for wakes in wake_lists]
        results = []
        for chunk in chunks:
            gens = [np.random.default_rng(7000 + i) for i in range(len(patterns))]
            results.append(
                run_randomized_batch(
                    policy, patterns, rngs=gens, max_slots=200, chunk=chunk
                )
            )
        a, b = results
        np.testing.assert_array_equal(a.solved, b.solved)
        np.testing.assert_array_equal(a.success_slot, b.success_slot)
        np.testing.assert_array_equal(a.winner, b.winner)
        np.testing.assert_array_equal(a.latency, b.latency)


class TestFeedbackDrivenDispatch:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: BinaryExponentialBackoff(N),
            lambda: TreeSplitting(N),
        ],
    )
    def test_matches_slot_loop_per_pattern(self, factory):
        # Feedback-driven policies keep their exact slot-loop semantics:
        # twin policy instances and twin per-pattern generators must agree
        # bit for bit.
        patterns = [
            WakeupPattern(N, {1: 0, 2: 0, 5: 3}),
            WakeupPattern(N, {3: 1, 4: 1}),
            WakeupPattern(N, {7: 0}),
        ]
        batch_policy, reference_policy = factory(), factory()
        assert isinstance(batch_policy, FeedbackVectorizedPolicy)
        batch_gens, reference_gens = _twin_generators(len(patterns), 500)
        result = run_randomized_batch(
            batch_policy, patterns, rngs=batch_gens, max_slots=500
        )
        for i, pattern in enumerate(patterns):
            reference = run_randomized(
                reference_policy, pattern, rng=reference_gens[i], max_slots=500
            )
            assert bool(result.solved[i]) == reference.solved
            assert int(result.success_slot[i]) == reference.success_slot
            assert int(result.winner[i]) == reference.winner
            assert int(result.slots_examined[i]) == reference.slots_examined


class TestSubclassConsistencyGuard:
    def test_scalar_override_resets_inherited_vectorized_matrix(self):
        class Constant(RepeatedProbabilityDecrease):
            def transmit_probability(self, state, slot):
                return 0.5

        # Inheriting RPD's native matrix would answer with the sweep's
        # probabilities; the guard resets the subclass to the generic default.
        assert (
            Constant.transmit_probability_matrix
            is RandomizedPolicy.transmit_probability_matrix
        )
        policy = Constant(N)
        patterns = [WakeupPattern(N, {1: 0, 2: 2})]
        batch_gens, reference_gens = _twin_generators(1, 42)
        result = run_randomized_batch(policy, patterns, rngs=batch_gens, max_slots=200)
        reference = run_randomized(
            policy, patterns[0], rng=reference_gens[0], max_slots=200
        )
        assert int(result.success_slot[0]) == reference.success_slot
        assert int(result.winner[0]) == reference.winner

    def test_matrix_override_survives_without_scalar_override(self):
        class Renamed(RepeatedProbabilityDecrease):
            name = "rpd-renamed"

        assert (
            Renamed.transmit_probability_matrix
            is RepeatedProbabilityDecrease.transmit_probability_matrix
        )

    def test_observe_override_outside_the_feedback_surface_is_rejected(self):
        # A policy reacting to feedback cannot be resolved from a probability
        # matrix; only a FeedbackVectorizedPolicy may override observe.
        with pytest.raises(TypeError, match="FeedbackVectorizedPolicy"):

            class Watching(SlottedAloha):
                def observe(self, state, slot, signal, transmitted, *, rng):
                    super().observe(state, slot, signal, transmitted, rng=rng)
