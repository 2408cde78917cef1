"""The columnar pattern batch against the one-pattern-at-a-time forms.

:class:`~repro.channel.wakeup.PatternBatch` is what the workload suite draws
and what every engine scans.  Three contracts hold it to the per-row
:class:`~repro.channel.wakeup.WakeupPattern` it replaced on the sweep path:

* its one vectorized check rejects exactly what
  :meth:`~repro.channel.wakeup.WakeupPattern.from_arrays` rejects, with the
  same exception type and message as on the first bad row, and accepts a
  station repeated across rows;
* every engine, and :class:`~repro.engine.Campaign` across shard
  boundaries, gives the same result columns on a batch and on
  ``list(batch)``;
* ``WorkloadSuite.generate`` keeps prefixes (row ``i`` depends only on
  ``(name, seed, i)``) and ``batch[i]`` equals the public ``*_pattern``
  draw of that row's generator.

The bad rows include unsigned and mixed dtypes on purpose: the vectorized
checks must stay in ``int64`` under every NumPy casting rule, and CI runs
this file on the oldest NumPy the package accepts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.engine.campaign as campaign_module
from repro._util import spawn_generators
from repro.baselines import BinaryExponentialBackoff, TreeSplitting
from repro.channel.adversary import (
    batched_pattern,
    simultaneous_pattern,
    staggered_pattern,
    uniform_random_pattern,
)
from repro.channel.protocols import DeterministicProtocol, FeedbackVectorizedPolicy
from repro.channel.wakeup import PatternBatch, WakeupPattern
from repro.core.randomized import RepeatedProbabilityDecrease
from repro.core.round_robin import RoundRobin
from repro.engine import (
    Campaign,
    run_batch,
    run_deterministic_batch,
    run_feedback_batch,
    run_randomized_batch,
)
from repro.workloads import WorkloadSuite
from repro.workloads.generators import (
    churn_burst_pattern,
    clustered_id_pattern,
    density_drawn_pattern,
    duty_cycle_pattern,
    family_boundary_workload_pattern,
    heavy_tailed_pattern,
    late_turn_pattern,
    window_boundary_workload_pattern,
)

SLOW = [HealthCheck.too_slow]

# ---------------------------------------------------------------------------
# One vectorized check, the per-row errors
# ---------------------------------------------------------------------------

#: One past the int64 range: representable only as a ``uint64`` wake time.
PAST_INT64 = int(np.iinfo(np.int64).max) + 1

#: Integer dtypes repeat so that most batches get past the dtype check.
STATION_DTYPES = ("int64", "int64", "int32", "uint64", "uint64", "float64", "bool")
TIME_DTYPES = ("int64", "int64", "int32", "uint64", "uint64", "float64", "bool")
DEFECTS = ("none", "none", "outside", "negative", "duplicate", "empty")


@st.composite
def batches(draw):
    """``(n, k, stations, wake_times)`` flat columns, some rows bad."""
    n = draw(st.integers(1, 24))
    station_dtype = draw(st.sampled_from(STATION_DTYPES))
    time_dtype = draw(st.sampled_from(TIME_DTYPES))
    k, stations, times = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        defect = draw(st.sampled_from(DEFECTS))
        if defect == "empty":
            k.append(0)
            continue
        size = draw(st.integers(1, min(n, 5)))
        row = draw(st.permutations(range(1, n + 1)))[:size]
        wakes = draw(st.lists(st.integers(0, 50), min_size=size, max_size=size))
        at = draw(st.integers(0, size - 1))
        if defect == "outside":
            low = 0 if station_dtype == "uint64" else -3
            row[at] = draw(st.sampled_from([low, 0, n + 1, n + 9]))
        elif defect == "negative":
            # An unsigned wake time cannot be negative; past int64 it is bad.
            wakes[at] = PAST_INT64 if time_dtype == "uint64" else -1
        elif defect == "duplicate":
            row.append(row[at])
            wakes.append(draw(st.integers(0, 50)))
        k.append(len(row))
        stations += row
        times += wakes
    return n, k, np.asarray(stations, station_dtype), np.asarray(times, time_dtype)


def row_slices(k):
    offsets = np.concatenate(([0], np.cumsum(k)))
    return [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]


def first_row_error(n, k, stations, times):
    """What ``from_arrays`` raises on the first bad row, or ``None``."""
    for row in row_slices(k):
        try:
            WakeupPattern.from_arrays(n, stations[row], times[row])
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)
    return None


class TestValidation:
    @given(batches())
    @settings(max_examples=300, deadline=None)
    def test_the_batch_raises_what_the_first_bad_row_raises(self, case):
        n, k, stations, times = case
        expected = first_row_error(n, k, stations, times)
        if expected is None:
            batch = PatternBatch(n, k, stations, times)
            rows = [
                WakeupPattern.from_arrays(n, stations[row], times[row])
                for row in row_slices(k)
            ]
            assert list(batch) == rows
            assert batch == PatternBatch.from_patterns(n, rows)
            return
        kind, message = expected
        with pytest.raises(kind) as caught:
            PatternBatch(n, k, stations, times)
        assert type(caught.value) is kind
        assert str(caught.value) == message

    @given(
        n=st.integers(1, 16),
        rows=st.integers(2, 6),
        dtype=st.sampled_from(["int64", "uint64", "int32"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_a_station_may_repeat_across_rows(self, n, rows, dtype):
        stations = np.tile(np.arange(1, n + 1), rows).astype(dtype)
        times = np.arange(rows * n).astype(dtype)
        batch = PatternBatch(n, [n] * rows, stations, times)
        assert len(batch) == rows
        assert all(pattern.stations == tuple(range(1, n + 1)) for pattern in batch)

    def test_columns_are_read_only_int64(self):
        batch = PatternBatch(8, [2, 1], np.array([3, 5, 3], np.uint64), [0, 2, 4])
        columns = (batch.k, batch.stations, batch.wake_times, batch.pair_row)
        for column in (*columns, batch.first_wake):
            assert column.dtype == np.int64
            assert not column.flags.writeable


# ---------------------------------------------------------------------------
# Every engine: a batch and its patterns give the same columns
# ---------------------------------------------------------------------------

N = 32

PROTOCOLS = {
    "deterministic": RoundRobin,
    "oblivious": RepeatedProbabilityDecrease,
    "feedback": BinaryExponentialBackoff,
    "splitting": TreeSplitting,
}

COLUMNS = (
    "solved",
    "k",
    "first_wake",
    "success_slot",
    "winner",
    "latency",
    "slots_examined",
)


def engines(protocol, seed):
    """Every engine that accepts ``protocol``, as ``patterns -> BatchResult``."""
    if isinstance(protocol, DeterministicProtocol):
        return [
            lambda patterns: run_batch(protocol, patterns),
            lambda patterns: run_deterministic_batch(protocol, patterns),
        ]
    found = [
        lambda patterns: run_batch(protocol, patterns, seed=seed),
        lambda patterns: run_randomized_batch(protocol, patterns, seed=seed),
    ]
    if isinstance(protocol, FeedbackVectorizedPolicy):
        found.append(lambda patterns: run_feedback_batch(protocol, patterns, seed=seed))
    return found


def assert_same_columns(left, right):
    for column in COLUMNS:
        np.testing.assert_array_equal(getattr(left, column), getattr(right, column))


class TestEngines:
    @given(
        kind=st.sampled_from(sorted(PROTOCOLS)),
        workload=st.sampled_from(["uniform", "churn", "density-sweep", "staggered"]),
        k=st.integers(1, 8),
        rows=st.integers(1, 14),
        seed=st.integers(0, 2**16),
        shard=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=SLOW)
    def test_same_columns_across_shards(self, kind, workload, k, rows, seed, shard):
        protocol = PROTOCOLS[kind](N)
        batch = WorkloadSuite().generate(workload, n=N, k=k, batch=rows, seed=seed)
        patterns = list(batch)
        middle = slice(rows // 3, rows - rows // 3)
        for engine in engines(protocol, seed):
            assert_same_columns(engine(batch), engine(patterns))
            assert_same_columns(engine(batch[middle]), engine(patterns[middle]))
        whole = Campaign(protocol, seed=seed).run(patterns)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(campaign_module, "SHARD_SIZE", shard)
            assert_same_columns(Campaign(protocol, seed=seed).run(batch), whole)


# ---------------------------------------------------------------------------
# The suite: prefixes and the public per-row patterns
# ---------------------------------------------------------------------------

#: Each built-in workload's public one-pattern form, at the workload defaults.
PATTERN_FORMS = {
    "simultaneous": simultaneous_pattern,
    "staggered": staggered_pattern,
    "batched": batched_pattern,
    "uniform": uniform_random_pattern,
    "heavy-tailed": heavy_tailed_pattern,
    "duty-cycle": duty_cycle_pattern,
    "churn": churn_burst_pattern,
    "clustered-ids": clustered_id_pattern,
    "density-sweep": density_drawn_pattern,
    "late-turn": late_turn_pattern,
    "family-boundary": family_boundary_workload_pattern,
    "window-boundary": window_boundary_workload_pattern,
}


class TestSuite:
    def test_every_builtin_workload_has_a_pattern_form(self):
        assert set(PATTERN_FORMS) == set(WorkloadSuite().names())

    @given(
        name=st.sampled_from(sorted(PATTERN_FORMS)),
        n=st.sampled_from([8, 32, 64]),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=SLOW)
    def test_prefixes_and_rows_match_the_pattern_forms(self, name, n, k, seed):
        suite = WorkloadSuite()
        batch = suite.generate(name, n=n, k=k, batch=8, seed=seed)
        assert batch == suite.generate(name, n=n, k=k, batch=12, seed=seed)[:8]
        for i, gen in enumerate(spawn_generators(seed, 8, name)):
            expected, row = PATTERN_FORMS[name](n, k, rng=gen), batch[i]
            assert row == expected
            assert list(row.wake_times.items()) == list(expected.wake_times.items())
