"""The engines' single NumPy path: registry-wide equivalence and scan edges.

Every engine kernel — live mask, scan keys, bincount, singleton extraction,
draw compares, awake mask, outcome codes — is plain NumPy inside the engine
modules.  These tests pin the behaviour that path must keep:

* every protocol in the name registry resolves through
  :func:`~repro.engine.run_batch` exactly as the per-pattern slot loop does;
* the chunk layout of the shared scan never changes an outcome;
* the reusable scratch buffers carry no state from one chunk or one call to
  the next, and the ``engine.scratch_bytes_reused`` gauge reports them;
* unsolved rows keep their ``-1`` sentinels on every engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro._util import spawn_generators
from repro.baselines import BinaryExponentialBackoff
from repro.channel.protocols import DeterministicProtocol
from repro.channel.simulator import run_deterministic, run_randomized
from repro.channel.wakeup import WakeupPattern
from repro.core.randomized import FixedProbabilityPolicy, RepeatedProbabilityDecrease
from repro.core.round_robin import RoundRobin
from repro.engine import run_batch, run_deterministic_batch, run_randomized_batch
from repro.sweeps.protocols import build_protocol, protocol_names
from repro.workloads import WorkloadSuite

N, K, BATCH, SEED = 32, 4, 12, 11
OUTCOME_COLUMNS = ("solved", "success_slot", "winner", "latency")


def _assert_outcomes_equal(result, reference, context):
    for column in OUTCOME_COLUMNS:
        np.testing.assert_array_equal(
            getattr(result, column),
            getattr(reference, column),
            err_msg=f"{context}: {column} diverged",
        )


def _slot_loop_columns(rows):
    def column(name):
        values = (getattr(r, name) for r in rows)
        return np.asarray([-1 if v is None else v for v in values])

    return {
        "solved": np.asarray([r.solved for r in rows]),
        "success_slot": column("success_slot"),
        "winner": column("winner"),
        "latency": column("latency"),
    }


@pytest.fixture(scope="module")
def patterns():
    return WorkloadSuite().generate("staggered", n=N, k=K, batch=BATCH, seed=SEED)


class TestRegistryEquivalence:
    @pytest.mark.parametrize("name", protocol_names())
    def test_batch_matches_slot_loop(self, name, patterns):
        protocol = build_protocol(name, N, K, seed=SEED)
        if isinstance(protocol, DeterministicProtocol):
            result = run_batch(protocol, patterns)
            rows = [run_deterministic(protocol, p) for p in patterns]
        else:
            result = run_batch(
                protocol, patterns, rngs=spawn_generators(SEED, BATCH, "campaign")
            )
            rngs = spawn_generators(SEED, BATCH, "campaign")
            rows = [run_randomized(protocol, p, rng=g) for p, g in zip(patterns, rngs)]
        for column, values in _slot_loop_columns(rows).items():
            np.testing.assert_array_equal(
                getattr(result, column), values, err_msg=f"{name}: {column} diverged"
            )


class TestChunkLayout:
    @pytest.mark.parametrize("chunk", [16, 33, 128, 4096])
    def test_deterministic_outcomes_do_not_depend_on_chunk(self, chunk, patterns):
        protocol = build_protocol("scenario-b", N, K, seed=SEED)
        reference = run_deterministic_batch(protocol, patterns)
        result = run_deterministic_batch(protocol, patterns, chunk=chunk)
        _assert_outcomes_equal(result, reference, f"chunk={chunk}")

    @pytest.mark.parametrize("chunk", [16, 33, 128, 4096])
    def test_randomized_outcomes_do_not_depend_on_chunk(self, chunk, patterns):
        policy = RepeatedProbabilityDecrease(N, k=K)
        reference = run_randomized_batch(
            policy, patterns, rngs=spawn_generators(SEED, BATCH, "campaign")
        )
        result = run_randomized_batch(
            policy,
            patterns,
            rngs=spawn_generators(SEED, BATCH, "campaign"),
            chunk=chunk,
        )
        _assert_outcomes_equal(result, reference, f"chunk={chunk}")
        np.testing.assert_array_equal(result.slots_examined, reference.slots_examined)


class TestScanScratch:
    def _reused(self, protocol, patterns, **kwargs):
        with obs.capture() as state:
            result = run_deterministic_batch(protocol, patterns, **kwargs)
            gauges = state.snapshot()["gauges"]
        return result, gauges["engine.scratch_bytes_reused"]

    def test_single_chunk_scan_reuses_nothing(self):
        # Both rows solve inside the first chunk: no buffer is used twice.
        patterns = [WakeupPattern(16, {3: 0}), WakeupPattern(16, {5: 2})]
        result, reused = self._reused(RoundRobin(16), patterns)
        assert result.solved.all()
        assert reused == 0

    def test_multi_chunk_scan_reports_reused_buffers(self):
        # Round-robin over n=512 needs hundreds of slots from a wake at 0, so
        # a 16-slot first chunk forces several chunks over the same buffers.
        patterns = [WakeupPattern(512, {500: 0, 501: 0}) for _ in range(4)]
        result, reused = self._reused(RoundRobin(512), patterns, chunk=16)
        assert result.solved.all()
        assert reused > 0

    def test_repeated_calls_are_identical(self, patterns):
        protocol = build_protocol("scenario-c", N, K, seed=SEED)
        first = run_deterministic_batch(protocol, patterns, chunk=16)
        second = run_deterministic_batch(protocol, patterns, chunk=16)
        _assert_outcomes_equal(second, first, "repeat")
        np.testing.assert_array_equal(second.slots_examined, first.slots_examined)

    def test_solved_rows_leave_later_chunks_alone(self):
        # Row 0 solves in the first chunk; row 1 only after many more.  The
        # reused live/done masks must not let row 0 re-enter the later scan.
        patterns = [WakeupPattern(256, {1: 0}), WakeupPattern(256, {200: 0, 201: 0})]
        result = run_deterministic_batch(RoundRobin(256), patterns, chunk=16)
        for i, pattern in enumerate(patterns):
            reference = run_deterministic(RoundRobin(256), pattern)
            assert result.success_slot[i] == reference.success_slot
            assert result.winner[i] == reference.winner


class TestUnsolvedSentinels:
    def test_randomized_rows_keep_sentinels(self):
        # Two certain transmitters collide in every slot: nothing resolves.
        policy = FixedProbabilityPolicy(16, 1.0)
        tight = [WakeupPattern(16, {1: 0, 2: 0}), WakeupPattern(16, {7: 4, 9: 4})]
        result = run_randomized_batch(
            policy, tight, rngs=spawn_generators(SEED, 2, "campaign"), max_slots=40
        )
        assert not result.solved.any()
        for column in ("success_slot", "winner", "latency"):
            np.testing.assert_array_equal(getattr(result, column), [-1, -1])
        np.testing.assert_array_equal(result.slots_examined, [40, 40])

    def test_feedback_rows_keep_sentinels(self):
        policy = BinaryExponentialBackoff(16)
        tight = [WakeupPattern(16, {1: 0, 2: 0}), WakeupPattern(16, {7: 4, 9: 4})]
        result = run_randomized_batch(
            policy, tight, rngs=spawn_generators(SEED, 2, "campaign"), max_slots=1
        )
        rngs = spawn_generators(SEED, 2, "campaign")
        rows = [
            run_randomized(policy, p, rng=g, max_slots=1) for p, g in zip(tight, rngs)
        ]
        assert not result.solved.any()
        for column, values in _slot_loop_columns(rows).items():
            np.testing.assert_array_equal(getattr(result, column), values)
        for column in ("success_slot", "winner", "latency"):
            np.testing.assert_array_equal(getattr(result, column), [-1, -1])
