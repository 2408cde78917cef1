"""Unit tests for :mod:`repro.engine.batch` (container behaviour and edges)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.simulator import WakeupResult, run_deterministic
from repro.channel.wakeup import PatternBatch, WakeupPattern
from repro.core.randomized import FixedProbabilityPolicy, RepeatedProbabilityDecrease
from repro.core.round_robin import RoundRobin
from repro.engine import BatchResult, run_batch, run_deterministic_batch, run_randomized_batch


@pytest.fixture
def batch_result():
    protocol = RoundRobin(16)
    patterns = [
        WakeupPattern(16, {5: 0, 9: 3}),
        WakeupPattern(16, {2: 1, 3: 1}),
        WakeupPattern(16, {11: 4}),
    ]
    return run_deterministic_batch(protocol, patterns), protocol, patterns


class TestRunDeterministicBatch:
    def test_empty_batch(self):
        result = run_deterministic_batch(RoundRobin(8), [])
        assert len(result) == 0
        assert result.solved_fraction == 1.0

    def test_rejects_randomized_policies(self):
        from repro.core.randomized import RepeatedProbabilityDecrease

        with pytest.raises(TypeError):
            run_deterministic_batch(RepeatedProbabilityDecrease(8), [])

    def test_rejects_mismatched_universe(self):
        with pytest.raises(ValueError, match="does not match"):
            run_deterministic_batch(RoundRobin(8), [WakeupPattern(16, {3: 0})])

    def test_single_station_solves_at_its_slot(self):
        result = run_deterministic_batch(RoundRobin(16), [WakeupPattern(16, {11: 4})])
        reference = run_deterministic(RoundRobin(16), WakeupPattern(16, {11: 4}))
        assert result.success_slot[0] == reference.success_slot
        assert result.winner[0] == 11

    def test_rows_with_distant_first_wakes_share_one_scan(self):
        patterns = [WakeupPattern(16, {3: 0}), WakeupPattern(16, {5: 10_000})]
        result = run_deterministic_batch(RoundRobin(16), patterns)
        for i, pattern in enumerate(patterns):
            reference = run_deterministic(RoundRobin(16), pattern)
            assert result.success_slot[i] == reference.success_slot
            assert result.latency[i] == reference.latency

    def test_unsolved_sentinels_survive(self):
        # Tight horizons leave every row unsolved: the outcome columns carry
        # the -1 sentinels and agree with the per-pattern engine.
        tight = [WakeupPattern(64, {30: 0, 40: 0}), WakeupPattern(64, {50: 0, 60: 0})]
        result = run_deterministic_batch(RoundRobin(64), tight, max_slots=1)
        assert not result.solved.any()
        for column in ("success_slot", "winner", "latency"):
            np.testing.assert_array_equal(getattr(result, column), [-1, -1])
        for row, pattern in zip(result, tight):
            assert row == run_deterministic(RoundRobin(64), pattern, max_slots=1)


class TestRunRandomizedBatch:
    def test_empty_batch(self):
        result = run_randomized_batch(RepeatedProbabilityDecrease(8), [])
        assert len(result) == 0
        assert result.solved_fraction == 1.0

    def test_rejects_deterministic_protocols(self):
        with pytest.raises(TypeError):
            run_randomized_batch(RoundRobin(8), [])

    def test_rejects_mismatched_universe(self):
        with pytest.raises(ValueError, match="does not match"):
            run_randomized_batch(
                RepeatedProbabilityDecrease(8), [WakeupPattern(16, {3: 0})]
            )

    def test_rejects_wrong_generator_count(self):
        with pytest.raises(ValueError, match="one generator per pattern"):
            run_randomized_batch(
                RepeatedProbabilityDecrease(8),
                [WakeupPattern(8, {3: 0})],
                rngs=[np.random.default_rng(0), np.random.default_rng(1)],
            )

    def test_seeded_call_matches_campaign(self, monkeypatch):
        # Engine-level seed spawning uses the same namespace as Campaign, so
        # the two entry points agree on every outcome.
        import repro.engine.campaign as campaign_module
        from repro.engine import Campaign
        from repro.workloads import WorkloadSuite

        policy = RepeatedProbabilityDecrease(64)
        patterns = WorkloadSuite().generate("uniform", n=64, k=6, batch=20, seed=4)
        direct = run_randomized_batch(policy, patterns, seed=123)
        monkeypatch.setattr(campaign_module, "SHARD_SIZE", 6)
        campaign = Campaign(policy, seed=123).run(patterns)
        np.testing.assert_array_equal(direct.success_slot, campaign.success_slot)
        np.testing.assert_array_equal(direct.winner, campaign.winner)
        np.testing.assert_array_equal(direct.latency, campaign.latency)

    def test_rejects_bad_probability_matrix_shape(self):
        class Misshapen(FixedProbabilityPolicy):
            def transmit_probability_matrix(self, stations, wakes, start, stop):
                return np.zeros((len(stations), 1))

        with pytest.raises(ValueError, match="probability matrix of shape"):
            run_randomized_batch(
                Misshapen(8, 0.5), [WakeupPattern(8, {3: 0})], seed=0, max_slots=32
            )

    def test_rejects_out_of_range_probabilities(self):
        class TooEager(FixedProbabilityPolicy):
            def transmit_probability_matrix(self, stations, wakes, start, stop):
                return np.full((len(stations), stop - start), 1.5)

        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            run_randomized_batch(
                TooEager(8, 0.5), [WakeupPattern(8, {3: 0})], seed=0, max_slots=32
            )

    def test_single_certain_transmitter_wins_at_wake(self):
        result = run_randomized_batch(
            FixedProbabilityPolicy(8, 1.0), [WakeupPattern(8, {5: 7})], seed=0
        )
        assert bool(result.solved[0])
        assert int(result.success_slot[0]) == 7
        assert int(result.winner[0]) == 5
        assert int(result.latency[0]) == 0
        assert int(result.slots_examined[0]) == 1


class TestRunBatch:
    """The kind dispatch every caller that takes *any* protocol goes through."""

    def test_deterministic_latencies(self):
        patterns = [WakeupPattern(8, {3: 0}), WakeupPattern(8, {5: 0, 6: 0})]
        result = run_batch(RoundRobin(8), patterns)
        assert result.require_all_solved().tolist() == [2, 4]

    def test_randomized_policy_draws_from_the_seed(self):
        result = run_batch(FixedProbabilityPolicy(8, 1.0), [WakeupPattern(8, {3: 0})], seed=0)
        assert result.require_all_solved().tolist() == [0]

    def test_deterministic_protocol_refuses_streams(self):
        with pytest.raises(ValueError, match="deterministic"):
            run_batch(RoundRobin(8), [WakeupPattern(8, {1: 0})], seed=0)

    def test_unsolved_rows_fail_the_strict_read(self):
        class Never(RoundRobin):
            def transmits(self, station, wake_time, slot):
                return False

            def transmit_slots(self, station, wake_time, start, stop):
                return np.empty(0, dtype=np.int64)

        result = run_batch(Never(8), [WakeupPattern(8, {1: 0})], max_slots=50)
        with pytest.raises(RuntimeError):
            result.require_all_solved()

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            run_batch(object(), [WakeupPattern(8, {1: 0})])

    def test_patterns_are_converted_once_and_a_batch_never(self, monkeypatch):
        from repro.baselines import TreeSplitting

        # run_batch -> run_randomized_batch -> run_feedback_batch: one
        # conversion at the front door, none for a PatternBatch.
        calls = []
        convert = PatternBatch.from_patterns.__func__

        def counted(cls, n, patterns):
            calls.append(n)
            return convert(cls, n, patterns)

        monkeypatch.setattr(PatternBatch, "from_patterns", classmethod(counted))
        patterns = [WakeupPattern(8, {1: 0, 2: 0}), WakeupPattern(8, {5: 1})]
        from_list = run_batch(TreeSplitting(8), patterns, seed=0)
        assert calls == [8]
        batch = convert(PatternBatch, 8, patterns)
        from_batch = run_batch(TreeSplitting(8), batch, seed=0)
        assert calls == [8]
        assert from_batch.latency.tolist() == from_list.latency.tolist()

    def test_a_batch_over_another_universe_is_refused(self):
        batch = PatternBatch(16, [1], [3], [0])
        with pytest.raises(ValueError, match="protocol universe n=8 does not match batch n=16"):
            run_batch(RoundRobin(8), batch)


class TestBatchResultContainer:
    def test_len_iter_getitem(self, batch_result):
        result, protocol, patterns = batch_result
        assert len(result) == 3
        rows = list(result)
        assert all(isinstance(row, WakeupResult) for row in rows)
        for i, pattern in enumerate(patterns):
            reference = run_deterministic(protocol, pattern)
            assert rows[i].success_slot == reference.success_slot
            assert rows[i].winner == reference.winner
            assert rows[i].k == pattern.k
        assert result[-1].winner == result[2].winner

    def test_getitem_out_of_range(self, batch_result):
        result, _, _ = batch_result
        with pytest.raises(IndexError):
            result[3]
        with pytest.raises(IndexError):
            result[-4]

    def test_summary_and_statistics(self, batch_result):
        result, _, _ = batch_result
        assert result.solved_count == 3
        summary = result.summary()
        assert summary["patterns"] == 3.0
        assert summary["max_latency"] == result.max_latency()
        assert result.mean_latency() == pytest.approx(float(result.latency.mean()))

    def test_require_all_solved_raises_on_unsolved_rows(self):
        result = run_deterministic_batch(
            RoundRobin(16), [WakeupPattern(16, {3: 0, 5: 0})], max_slots=1
        )
        assert not result.solved[0]
        with pytest.raises(RuntimeError, match="did not solve"):
            result.require_all_solved()
        assert result.summary() == {"patterns": 1.0, "solved": 0.0}

    def test_concat_preserves_order(self, batch_result):
        result, _, _ = batch_result
        merged = BatchResult.concat([result, result])
        assert len(merged) == 6
        np.testing.assert_array_equal(merged.latency[:3], result.latency)
        np.testing.assert_array_equal(merged.latency[3:], result.latency)

    def test_concat_rejects_empty_and_mismatched(self, batch_result):
        result, _, _ = batch_result
        with pytest.raises(ValueError):
            BatchResult.concat([])
        other = run_deterministic_batch(RoundRobin(8), [WakeupPattern(8, {3: 0})])
        with pytest.raises(ValueError, match="different protocols"):
            BatchResult.concat([result, other])
