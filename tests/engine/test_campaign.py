"""Tests for :class:`repro.engine.Campaign` (sharding, randomized path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.wakeup import WakeupPattern
from repro.core.randomized import RepeatedProbabilityDecrease
from repro.core.round_robin import RoundRobin
import repro.engine.campaign as campaign_module
from repro.engine import Campaign, run_deterministic_batch
from repro.workloads import WorkloadSuite


@pytest.fixture(scope="module")
def patterns():
    return WorkloadSuite().generate("uniform", n=64, k=8, batch=30, seed=5)


@pytest.fixture
def run_sharded(monkeypatch):
    """``run_sharded(campaign, patterns, size)``: run with ``size``-pattern shards."""

    def run(campaign, patterns, size):
        monkeypatch.setattr(campaign_module, "SHARD_SIZE", size)
        return campaign.run(patterns)

    return run


class TestCampaignValidation:
    def test_rejects_non_protocols(self):
        with pytest.raises(TypeError):
            Campaign(object())

    def test_rejects_bad_shard_size_and_workers(self):
        # The shard size is the module constant SHARD_SIZE, and shards run
        # serially: neither is a per-campaign option.
        with pytest.raises(TypeError):
            Campaign(RoundRobin(8), shard_size=0)
        with pytest.raises(TypeError):
            Campaign(RoundRobin(8), workers=2)

    def test_empty_run_is_empty_for_both_protocol_kinds(self):
        # Deterministic and randomized campaigns agree on the empty batch:
        # an empty result, not an error.
        for protocol in (RoundRobin(8), RepeatedProbabilityDecrease(8)):
            result = Campaign(protocol, seed=0).run([])
            assert len(result) == 0
            assert result.protocol == protocol.describe()
            assert result.solved_fraction == 1.0


class TestDeterministicCampaign:
    def test_matches_unsharded_batch(self, patterns, run_sharded):
        protocol = RoundRobin(64)
        expected = run_deterministic_batch(protocol, patterns)
        for shard_size in (7, 10, 30, 1):
            result = run_sharded(Campaign(protocol), patterns, shard_size)
            np.testing.assert_array_equal(result.latency, expected.latency)
            np.testing.assert_array_equal(result.winner, expected.winner)
            np.testing.assert_array_equal(result.success_slot, expected.success_slot)

    def test_shard_constant_sets_the_shard_count(self, patterns, run_sharded):
        # The invariance tests above are only meaningful if SHARD_SIZE really
        # cuts the batch: 30 patterns in 7-pattern shards are 5 shards.
        from repro import obs

        with obs.capture() as state:
            run_sharded(Campaign(RoundRobin(64)), patterns, 7)
        assert state.snapshot()["counters"]["campaign.shards"] == 5

    def test_empty_run(self):
        result = Campaign(RoundRobin(8)).run([])
        assert len(result) == 0


class TestRandomizedCampaign:
    def test_outcomes_independent_of_sharding(self, patterns, run_sharded):
        policy = RepeatedProbabilityDecrease(64)
        baseline = run_sharded(Campaign(policy, seed=3), patterns, 30)
        for shard_size in (4, 11, 1, 7):
            result = run_sharded(Campaign(policy, seed=3), patterns, shard_size)
            np.testing.assert_array_equal(result.success_slot, baseline.success_slot)
            np.testing.assert_array_equal(result.winner, baseline.winner)
            np.testing.assert_array_equal(result.latency, baseline.latency)

    def test_feedback_policy_outcomes_independent_of_sharding(self, run_sharded):
        # Feedback baselines draw backoff windows / splitting coins from the
        # per-pattern streams spawned before sharding, so campaigns over them
        # are shard-invariant too.
        from repro.baselines import BinaryExponentialBackoff, TreeSplitting

        patterns = WorkloadSuite().generate("simultaneous", n=64, k=8, batch=24, seed=2)
        for policy in (BinaryExponentialBackoff(64), TreeSplitting(64)):
            baseline = run_sharded(Campaign(policy, seed=3), patterns, 24)
            for shard_size in (5, 9):
                result = run_sharded(Campaign(policy, seed=3), patterns, shard_size)
                np.testing.assert_array_equal(result.success_slot, baseline.success_slot)
                np.testing.assert_array_equal(result.winner, baseline.winner)
                np.testing.assert_array_equal(
                    result.slots_examined, baseline.slots_examined
                )

    def test_matches_per_pattern_slot_loop(self, patterns, run_sharded):
        # The campaign's randomized path is the batched engine; its outcomes
        # must be bit-for-bit the slot-loop engine's under the same child
        # streams (spawned exactly as Campaign.run spawns them).
        from repro._util import spawn_generators
        from repro.channel.simulator import run_randomized

        policy = RepeatedProbabilityDecrease(64)
        result = run_sharded(Campaign(policy, seed=9), patterns, 8)
        generators = spawn_generators(9, len(patterns), "campaign")
        for i, (pattern, gen) in enumerate(zip(patterns, generators)):
            reference = run_randomized(policy, pattern, rng=gen)
            assert bool(result.solved[i]) == reference.solved
            assert int(result.success_slot[i]) == reference.success_slot
            assert int(result.winner[i]) == reference.winner
            assert int(result.latency[i]) == reference.latency
            assert int(result.slots_examined[i]) == reference.slots_examined

    def test_seed_streams_stable_under_batch_extension(self, patterns, run_sharded):
        # Child generators are spawned per pattern index before sharding, so
        # the outcome of pattern i is a prefix property: running a longer
        # batch (with a different shard layout) must not disturb it.
        policy = RepeatedProbabilityDecrease(64)
        prefix = run_sharded(Campaign(policy, seed=5), patterns[:12], 7)
        full = run_sharded(Campaign(policy, seed=5), patterns, 13)
        np.testing.assert_array_equal(full.success_slot[:12], prefix.success_slot)
        np.testing.assert_array_equal(full.winner[:12], prefix.winner)
        np.testing.assert_array_equal(full.latency[:12], prefix.latency)

    def test_unsolved_rows_carry_sentinels_and_full_horizon(self):
        # k >= 2 stations transmitting with probability 1 collide forever:
        # every row exhausts max_slots and must report the unsolved columns.
        from repro.core.randomized import FixedProbabilityPolicy

        policy = FixedProbabilityPolicy(16, 1.0)
        patterns = [
            WakeupPattern(16, {1: 0, 2: 0}),
            WakeupPattern(16, {3: 2, 4: 2, 5: 2}),
        ]
        result = Campaign(policy, seed=0, max_slots=40).run(patterns)
        assert not result.solved.any()
        np.testing.assert_array_equal(result.success_slot, [-1, -1])
        np.testing.assert_array_equal(result.winner, [-1, -1])
        np.testing.assert_array_equal(result.latency, [-1, -1])
        np.testing.assert_array_equal(result.slots_examined, [40, 40])
        with pytest.raises(RuntimeError, match="did not solve"):
            result.require_all_solved()

    def test_seed_changes_outcomes(self, patterns):
        policy = RepeatedProbabilityDecrease(64)
        a = Campaign(policy, seed=1).run(patterns)
        b = Campaign(policy, seed=2).run(patterns)
        assert not np.array_equal(a.success_slot, b.success_slot)

    def test_row_alignment_with_patterns(self, patterns):
        policy = RepeatedProbabilityDecrease(64)
        result = Campaign(policy, seed=0).run(patterns)
        assert len(result) == len(patterns)
        np.testing.assert_array_equal(result.k, [p.k for p in patterns])
        np.testing.assert_array_equal(result.first_wake, [p.first_wake for p in patterns])

