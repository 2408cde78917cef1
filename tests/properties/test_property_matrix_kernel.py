"""Property-based equivalence of the key-deduplicated Scenario C matrix kernel.

:func:`~repro.core.waking_matrix.matrix_batch_transmit_slots` groups its
pairs into ``(station, start)`` keys, resolves each key once through
:meth:`~repro.core.waking_matrix.TransmissionMatrix.transmit_cells` (the
hashed matrix builds each cell's hash from per-key, per-row and per-column
terms) and expands the member cells back to pairs.  The reference here is
the per-cell enumeration: every operational ``(pair, slot)`` cell resolved
with one :meth:`~repro.core.waking_matrix.TransmissionMatrix.membership_for_pairs`
call.  Both must list the same ``(pair, slot)`` set, each entry once, on
either clock, under the ``window=`` / ``c=`` overrides, for pairs sharing
keys across rows, for windows that cut row boundaries, µ-waits, matrix
wrap-around and exhausted rows, and for any cells-per-chunk slicing.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.waking_matrix as wm
from repro.core.local_clock import LocalClockScenarioC
from repro.core.scenario_c import WakeupProtocol
from repro.core.waking_matrix import (
    ExplicitTransmissionMatrix,
    HashedTransmissionMatrix,
    TransmissionMatrix,
    matrix_batch_transmit_slots,
    matrix_parameters,
)


def reference_cells(matrix, stations, starts, start, stop, local_columns):
    """Per-cell enumeration: the (pair, slot) set the kernel must reproduce."""
    params = matrix.params
    pair, slots, offsets, rows = params.operational_cells(starts, start, stop)
    columns = (offsets if local_columns else slots) % params.length
    member = matrix.membership_for_pairs(stations[pair], rows, columns)
    return set(zip(pair[member].tolist(), slots[member].tolist()))


def kernel_cells(matrix, stations, starts, start, stop, local_columns):
    pair, slots = matrix_batch_transmit_slots(
        matrix, stations, starts, start, stop, local_columns=local_columns
    )
    listed = list(zip(pair.tolist(), slots.tolist()))
    assert len(listed) == len(set(listed)), "a (pair, slot) entry is listed twice"
    return set(listed)


@st.composite
def matrices(draw):
    """A hashed matrix over a small universe, default or E10-style overrides."""
    n = draw(st.sampled_from([1, 2, 8, 16, 64]))
    c = draw(st.sampled_from([1, 2, 3]))
    # window=1 makes µ the identity; 62 pushes row + ρ past 64 (threshold 0).
    window = draw(st.sampled_from([None, 1, 2, 3, 5, 62]))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return HashedTransmissionMatrix(matrix_parameters(n, c=c, window=window), seed=seed)


@st.composite
def keyed_pairs(draw, n, total_span):
    """Pairs drawn from a small pool of keys, so keys repeat across pairs."""
    reach = 2 * total_span
    pool = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=0, max_value=reach),
            ),
            min_size=1,
            max_size=6,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    stations = np.asarray([pool[i][0] for i in picks], dtype=np.int64)
    starts = np.asarray([pool[i][1] for i in picks], dtype=np.int64)
    return stations, starts


class TestKernelMatchesPerCellReference:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_pair_slot_set(self, data):
        matrix = data.draw(matrices())
        params = matrix.params
        stations, starts = data.draw(keyed_pairs(params.n, params.total_span))
        local_columns = data.draw(st.booleans())
        # Windows reach past every start's last row (exhausted rows), past
        # ℓ (wrap-around) and may start before the earliest start (µ-waits).
        horizon = 3 * params.total_span + params.length
        start = data.draw(st.integers(min_value=0, max_value=horizon))
        length = data.draw(st.integers(min_value=0, max_value=min(horizon, 2500)))
        budget = data.draw(st.sampled_from([16, 40, 1000, wm.MAX_CELLS_PER_CHUNK]))
        expected = reference_cells(matrix, stations, starts, start, start + length, local_columns)
        with mock.patch.object(wm, "MAX_CELLS_PER_CHUNK", budget):
            got = kernel_cells(matrix, stations, starts, start, start + length, local_columns)
        assert got == expected

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        local_columns=st.booleans(),
        row=st.integers(min_value=1, max_value=4),
        cut=st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_windows_cut_at_row_boundaries(self, seed, local_columns, row, cut):
        # A window edge a few slots either side of where row `row` begins,
        # for keys that share a start (and so cross the boundary together).
        matrix = HashedTransmissionMatrix(matrix_parameters(16), seed=seed)
        params = matrix.params
        stations = np.asarray([1, 5, 5, 9, 16, 1, 9], dtype=np.int64)
        starts = np.asarray([0, 0, 0, 4, 4, 4, 0], dtype=np.int64)
        edge = params.row_start_offset(row) + cut
        for start, stop in ((max(0, edge - 37), edge), (max(0, edge), edge + 41)):
            expected = reference_cells(matrix, stations, starts, start, stop, local_columns)
            assert kernel_cells(matrix, stations, starts, start, stop, local_columns) == expected

    @pytest.mark.parametrize("local_columns", [False, True])
    def test_window_ending_one_slot_into_a_row(self, local_columns):
        # Every station starts at 0, so the first cell of each row is one
        # slot for all 64 keys: a window that ends right after it must keep
        # that cell, and with 64 keys some of them are members.
        matrix = HashedTransmissionMatrix(matrix_parameters(64), seed=9)
        params = matrix.params
        stations = np.arange(1, 65, dtype=np.int64)
        starts = np.zeros(64, dtype=np.int64)
        boundary_members = 0
        for row in range(2, params.rows + 1):
            edge = params.row_start_offset(row)
            for start in (edge - 3, edge):
                expected = reference_cells(matrix, stations, starts, start, edge + 1, local_columns)
                got = kernel_cells(matrix, stations, starts, start, edge + 1, local_columns)
                assert got == expected
                boundary_members += sum(slot == edge for _, slot in expected)
        assert boundary_members

    @given(seed=st.integers(min_value=0, max_value=1000), local_columns=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_every_pair_of_a_shared_key_gets_the_same_slots(self, seed, local_columns):
        matrix = HashedTransmissionMatrix(matrix_parameters(64), seed=seed)
        stations = np.asarray([7, 7, 7, 30, 30, 7], dtype=np.int64)
        starts = np.asarray([2, 2, 2, 0, 0, 9], dtype=np.int64)
        pair, slots = matrix_batch_transmit_slots(
            matrix, stations, starts, 0, 3000, local_columns=local_columns
        )
        by_pair = [np.sort(slots[pair == j]) for j in range(stations.size)]
        np.testing.assert_array_equal(by_pair[0], by_pair[1])
        np.testing.assert_array_equal(by_pair[0], by_pair[2])
        np.testing.assert_array_equal(by_pair[3], by_pair[4])
        assert by_pair[0].size  # the window is long enough to see transmissions


class TestProtocolsRideTheKernel:
    @given(
        wake_lists=st.lists(
            st.dictionaries(
                keys=st.integers(min_value=1, max_value=12),
                values=st.integers(min_value=0, max_value=20),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=10,
        ),
        clock=st.sampled_from(["global", "local"]),
        start=st.integers(min_value=0, max_value=1500),
        length=st.integers(min_value=0, max_value=600),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_transmit_slots_equals_reference(self, wake_lists, clock, start, length):
        # Patterns over a 12-station universe repeat (station, wake) pairs,
        # as a sweep batch does.
        cls = WakeupProtocol if clock == "global" else LocalClockScenarioC
        protocol = cls(12, seed=3)
        stations = np.asarray([u for w in wake_lists for u in w], dtype=np.int64)
        wakes = np.asarray([t for w in wake_lists for t in w.values()], dtype=np.int64)
        starts = protocol.params.mu_array(wakes) if clock == "global" else wakes
        pair, slots = protocol.batch_transmit_slots(stations, wakes, start, start + length)
        expected = reference_cells(
            protocol.matrix, stations, starts, start, start + length, clock == "local"
        )
        assert set(zip(pair.tolist(), slots.tolist())) == expected
        assert pair.size == len(expected)


class TestExplicitMatrixUsesTheBasePath:
    def test_explicit_matrix_does_not_override_transmit_cells(self):
        assert ExplicitTransmissionMatrix.transmit_cells is TransmissionMatrix.transmit_cells
        assert HashedTransmissionMatrix.transmit_cells is not TransmissionMatrix.transmit_cells

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        local_columns=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_explicit_matrix_matches_reference(self, seed, local_columns, data):
        params = matrix_parameters(8)
        matrix = ExplicitTransmissionMatrix.sample(params, rng=seed)
        stations, starts = data.draw(keyed_pairs(params.n, params.total_span))
        start = data.draw(st.integers(min_value=0, max_value=2 * params.total_span))
        length = data.draw(st.integers(min_value=0, max_value=params.total_span + params.length))
        budget = data.draw(st.sampled_from([16, wm.MAX_CELLS_PER_CHUNK]))
        expected = reference_cells(matrix, stations, starts, start, start + length, local_columns)
        with mock.patch.object(wm, "MAX_CELLS_PER_CHUNK", budget):
            got = kernel_cells(matrix, stations, starts, start, start + length, local_columns)
        assert got == expected


class TestKernelEdges:
    def test_empty_inputs_and_windows(self):
        matrix = HashedTransmissionMatrix(matrix_parameters(16), seed=1)
        empty = np.empty(0, dtype=np.int64)
        for stations, starts, start, stop in (
            (empty, empty, 0, 100),
            (np.asarray([3]), np.asarray([0]), 50, 50),
            (np.asarray([3]), np.asarray([0]), 80, 10),
        ):
            pair, slots = matrix_batch_transmit_slots(matrix, stations, starts, start, stop)
            assert pair.size == slots.size == 0
            assert pair.dtype == slots.dtype == np.int64

    @pytest.mark.parametrize("bad", [0, 17, -2])
    def test_station_outside_universe_is_rejected(self, bad):
        matrix = HashedTransmissionMatrix(matrix_parameters(16), seed=1)
        with pytest.raises(ValueError, match="stations"):
            matrix_batch_transmit_slots(
                matrix, np.asarray([1, bad]), np.asarray([0, 0]), 0, 100
            )

    def test_starts_too_far_apart_to_key_are_rejected(self):
        matrix = HashedTransmissionMatrix(matrix_parameters(16), seed=1)
        with pytest.raises(ValueError, match="spread"):
            matrix_batch_transmit_slots(
                matrix, np.asarray([1, 2]), np.asarray([0, 1 << 60]), 0, 100
            )
