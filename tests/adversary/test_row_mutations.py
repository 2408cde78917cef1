"""The row mutation operators against the mapping-based operators they replace.

Each reference below is the operator as it was written over a
``station -> wake time`` dict, before the rows.  A row operator must make the
same generator calls in the same order and return the same pairs in the same
order: a swap drops the outgoing station and appends the incoming one last,
while shift and merge keep the pair order.  The randomized engines draw in
pair order, so the order is part of the result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.mutations import merge_row, mutate_row, shift_row, swap_row


def _clamp(t, max_time):
    t = max(0, int(t))
    return t if max_time is None else min(t, int(max_time))


def _reference_shift(n, times, gen, *, max_shift=8, max_time=None):
    times = dict(times)
    station = int(gen.choice(np.asarray(sorted(times))))
    delta = int(gen.integers(-max_shift, max_shift + 1)) or 1
    times[station] = _clamp(times[station] + delta, max_time)
    return times


def _reference_swap(n, times, gen, *, max_shift=8, max_time=None):
    times = dict(times)
    sleeping = [u for u in range(1, n + 1) if u not in times]
    if not sleeping:
        return _reference_shift(n, times, gen, max_shift=max_shift, max_time=max_time)
    out_station = int(gen.choice(np.asarray(sorted(times))))
    in_station = int(gen.choice(np.asarray(sleeping)))
    times[in_station] = times.pop(out_station)
    return times


def _reference_merge(n, times, gen, *, max_shift=8, max_time=None):
    times = dict(times)
    if len(times) < 2:
        return _reference_shift(n, times, gen, max_shift=max_shift, max_time=max_time)
    stations = np.asarray(sorted(times))
    mover, target = (int(u) for u in gen.choice(stations, size=2, replace=False))
    times[mover] = _clamp(times[target], max_time)
    return times


def _reference_mutate(n, times, gen, **kwargs):
    name = list(REFERENCES)[int(gen.integers(0, len(REFERENCES)))]
    return REFERENCES[name](n, times, gen, **kwargs)


REFERENCES = {
    "shift": _reference_shift,
    "swap": _reference_swap,
    "merge": _reference_merge,
}
PAIRS = [
    (shift_row, _reference_shift),
    (swap_row, _reference_swap),
    (merge_row, _reference_merge),
    (mutate_row, _reference_mutate),
]


@st.composite
def rows(draw):
    """A universe size and a valid ``station -> wake time`` dict in any order."""
    n = draw(st.integers(min_value=1, max_value=40))
    stations = draw(
        st.lists(
            st.integers(min_value=1, max_value=n), min_size=1, max_size=n, unique=True
        )
    )
    times = draw(
        st.lists(
            st.integers(min_value=0, max_value=300),
            min_size=len(stations),
            max_size=len(stations),
        )
    )
    return n, dict(zip(stations, times))


class TestAgainstTheMappingOperators:
    @given(
        row=rows(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_shift=st.integers(min_value=1, max_value=12),
        max_time=st.one_of(st.none(), st.integers(min_value=0, max_value=320)),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_pairs_in_the_same_order_and_the_same_draws(
        self, row, seed, max_shift, max_time
    ):
        n, times = row
        stations = np.fromiter(times.keys(), np.int64, len(times))
        wakes = np.fromiter(times.values(), np.int64, len(times))
        kwargs = {"max_shift": max_shift, "max_time": max_time}
        for row_operator, reference in PAIRS:
            gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            out_stations, out_times = row_operator(n, stations, wakes, gen, **kwargs)
            pairs = list(zip(out_stations.tolist(), out_times.tolist()))
            assert pairs == list(reference(n, times, ref_gen, **kwargs).items())
            assert out_stations.dtype == out_times.dtype == np.int64
            assert gen.bit_generator.state == ref_gen.bit_generator.state

    @given(row=rows(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_the_input_row_is_left_as_it_was(self, row, seed):
        n, times = row
        stations = np.fromiter(times.keys(), np.int64, len(times))
        wakes = np.fromiter(times.values(), np.int64, len(times))
        stations.flags.writeable = wakes.flags.writeable = False
        for row_operator, _ in PAIRS:
            row_operator(n, stations, wakes, np.random.default_rng(seed))
        assert dict(zip(stations.tolist(), wakes.tolist())) == times


class TestPairOrder:
    def test_swap_appends_the_incoming_station_last(self):
        stations = np.array([7, 2, 5], dtype=np.int64)
        wakes = np.array([30, 10, 20], dtype=np.int64)
        pairs = list(zip(stations.tolist(), wakes.tolist()))
        for seed in range(20):
            gen = np.random.default_rng(seed)
            out_stations, out_times = swap_row(8, stations, wakes, gen)
            out = list(zip(out_stations.tolist(), out_times.tolist()))
            dropped = [pair for pair in pairs if pair not in out]
            assert len(dropped) == 1
            assert out[:-1] == [pair for pair in pairs if pair != dropped[0]]
            assert out[-1][0] not in stations.tolist()
            assert out[-1][1] == dropped[0][1]  # the incoming station keeps the slot

    @pytest.mark.parametrize("row_operator", [shift_row, merge_row])
    def test_shift_and_merge_keep_the_stations_in_place(self, row_operator):
        stations = np.array([7, 2, 5], dtype=np.int64)
        wakes = np.array([30, 10, 20], dtype=np.int64)
        for seed in range(20):
            out, _ = row_operator(8, stations, wakes, np.random.default_rng(seed))
            assert out.tolist() == [7, 2, 5]

