"""Example-based tests for the mutation operators (repro.adversary.mutations).

The property suite (``tests/properties/test_property_adversary_search.py``)
pins the universal invariants; this file pins the concrete behaviours the
docstrings promise — fallbacks at the boundaries of the space, the registry
contract, and argument validation.  Each operator runs on a pattern's
:meth:`~repro.channel.wakeup.WakeupPattern.pair_arrays` row, and the result
is read back as a pattern.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.mutations import (
    ROW_MUTATIONS,
    merge_row,
    mutate_row,
    shift_row,
    swap_row,
)
from repro.channel.wakeup import WakeupPattern


def _apply(row_operator, pattern, seed, **params) -> WakeupPattern:
    gen = np.random.default_rng(seed)
    row = row_operator(pattern.n, *pattern.pair_arrays(), gen, **params)
    return WakeupPattern.from_arrays(pattern.n, *row)


class TestShift:
    def test_never_returns_the_input_unchanged(self):
        pattern = WakeupPattern(8, {3: 10})
        for seed in range(50):
            assert _apply(shift_row, pattern, seed) != pattern

    def test_clamps_at_zero(self):
        pattern = WakeupPattern(8, {3: 0})
        for seed in range(50):
            mutated = _apply(shift_row, pattern, seed, max_shift=4)
            assert 0 <= mutated.wake_times[3] <= 4

    def test_clamps_at_max_time(self):
        pattern = WakeupPattern(8, {3: 6})
        for seed in range(50):
            mutated = _apply(shift_row, pattern, seed, max_shift=4, max_time=6)
            assert mutated.wake_times[3] <= 6

    def test_rejects_non_positive_max_shift(self):
        with pytest.raises(ValueError, match="max_shift"):
            _apply(shift_row, WakeupPattern(8, {1: 0}), 0, max_shift=0)


class TestSwap:
    def test_trades_identity_keeping_the_slot(self):
        pattern = WakeupPattern(8, {2: 5})
        mutated = _apply(swap_row, pattern, 0)
        assert mutated.k == 1
        ((station, time),) = mutated.wake_times.items()
        assert time == 5  # the wake slot survives the swap
        assert station != 2

    def test_full_universe_falls_back_to_shift(self):
        full = WakeupPattern(4, {1: 0, 2: 0, 3: 0, 4: 0})
        mutated = _apply(swap_row, full, 0)
        assert set(mutated.wake_times) == {1, 2, 3, 4}
        assert mutated != full  # the fallback shift still made a move


class TestMerge:
    def test_snaps_one_time_onto_another(self):
        pattern = WakeupPattern(8, {1: 0, 2: 10})
        mutated = _apply(merge_row, pattern, 0)
        assert set(mutated.wake_times) == {1, 2}
        assert len(set(mutated.wake_times.values())) == 1  # a burst now

    def test_single_station_falls_back_to_shift(self):
        lone = WakeupPattern(8, {5: 3})
        mutated = _apply(merge_row, lone, 1)
        assert set(mutated.wake_times) == {5}
        assert mutated != lone


class TestMutateDispatcher:
    def test_registry_is_the_documented_triple(self):
        assert list(ROW_MUTATIONS) == ["shift", "swap", "merge"]
        assert ROW_MUTATIONS["shift"] is shift_row
        assert ROW_MUTATIONS["swap"] is swap_row
        assert ROW_MUTATIONS["merge"] is merge_row

    def test_ops_restricts_the_draw(self):
        pattern = WakeupPattern(16, {1: 4, 2: 9})
        for seed in range(20):
            mutated = _apply(mutate_row, pattern, seed, ops=["swap"])
            assert sorted(mutated.wake_times.values()) == [4, 9]  # slots untouched

    def test_unknown_op_names_the_offender(self):
        with pytest.raises(KeyError, match="warp"):
            _apply(mutate_row, WakeupPattern(8, {1: 0}), 0, ops=["shift", "warp"])

    def test_same_stream_same_choice(self):
        pattern = WakeupPattern(16, {1: 4, 2: 9, 5: 1})
        assert _apply(mutate_row, pattern, 7) == _apply(mutate_row, pattern, 7)
