"""Tests for repro.core.waking_matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.wakeup import WakeupPattern
from repro.core.waking_matrix import (
    ExplicitTransmissionMatrix,
    HashedTransmissionMatrix,
    first_isolation,
    is_well_balanced_slot,
    isolated_station_at,
    matrix_parameters,
    operational_sets,
)


class TestMatrixParameters:
    def test_row_and_window_counts(self):
        params = matrix_parameters(1024)
        assert params.rows == 10
        assert params.window == 4  # ceil(log2(10))
        assert params.length == 2 * 2 * 1024 * 10 * 4

    def test_small_universe(self):
        params = matrix_parameters(2)
        assert params.rows == 1
        assert params.window == 1
        assert params.length == 2 * 2 * 2 * 1 * 1

    def test_row_spans_double(self):
        params = matrix_parameters(256, c=3)
        spans = params.row_spans
        assert len(spans) == params.rows
        for a, b in zip(spans, spans[1:]):
            assert b == 2 * a
        assert spans[0] == 3 * 2 * params.rows * params.window

    def test_custom_window_override(self):
        params = matrix_parameters(256, window=7)
        assert params.window == 7

    def test_rho_and_mu(self):
        params = matrix_parameters(256)
        w = params.window
        assert params.rho(0) == 0
        assert params.rho(w + 1) == 1
        assert params.mu(0) == 0
        assert params.mu(1) == w
        assert params.mu(w) == w
        assert params.mu(w + 1) == 2 * w

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            matrix_parameters(16).mu(-1)

    def test_row_at_offset(self):
        params = matrix_parameters(64)
        assert params.row_at_offset(0) == 1
        assert params.row_at_offset(params.row_spans[0] - 1) == 1
        assert params.row_at_offset(params.row_spans[0]) == 2
        assert params.row_at_offset(params.total_span) is None
        assert params.row_at_offset(-1) is None

    def test_row_start_offset(self):
        params = matrix_parameters(64)
        assert params.row_start_offset(1) == 0
        assert params.row_start_offset(2) == params.row_spans[0]
        with pytest.raises(ValueError):
            params.row_start_offset(0)

    def test_membership_probability(self):
        params = matrix_parameters(64)
        assert params.membership_probability(1, 0) == 0.5
        assert params.membership_probability(2, 0) == 0.25
        j = 1  # rho = 1 as long as window > 1
        if params.window > 1:
            assert params.membership_probability(1, j) == 0.25


class TestHashedTransmissionMatrix:
    def test_determinism_given_seed(self):
        params = matrix_parameters(32)
        a = HashedTransmissionMatrix(params, seed=9)
        b = HashedTransmissionMatrix(params, seed=9)
        cols = np.arange(100)
        for row in (1, 2, 3):
            assert np.array_equal(
                a.membership_for_station(5, row, cols), b.membership_for_station(5, row, cols)
            )

    def test_different_seeds_differ(self):
        params = matrix_parameters(32)
        a = HashedTransmissionMatrix(params, seed=1)
        b = HashedTransmissionMatrix(params, seed=2)
        cols = np.arange(500)
        assert not np.array_equal(
            a.membership_for_station(5, 1, cols), b.membership_for_station(5, 1, cols)
        )

    def test_contains_matches_vectorized(self):
        params = matrix_parameters(32)
        matrix = HashedTransmissionMatrix(params, seed=3)
        cols = np.arange(50)
        for station in (1, 17, 32):
            for row in (1, 3, params.rows):
                vec = matrix.membership_for_station(station, row, cols)
                scalar = [matrix.contains(row, int(j), station) for j in cols]
                assert vec.tolist() == scalar

    def test_membership_frequency_tracks_probability(self):
        params = matrix_parameters(64)
        matrix = HashedTransmissionMatrix(params, seed=4)
        # Row 1, rho = 0 columns: probability 1/2.
        cols = np.arange(0, params.length, params.window, dtype=np.int64)[:2000]
        hits = sum(
            int(matrix.membership_for_station(u, 1, cols).sum()) for u in range(1, 65)
        )
        total = 64 * cols.size
        assert abs(hits / total - 0.5) < 0.05

    def test_higher_rows_are_sparser(self):
        params = matrix_parameters(64)
        matrix = HashedTransmissionMatrix(params, seed=5)
        cols = np.arange(0, 4000, dtype=np.int64)
        dens = []
        for row in (1, 3, 5):
            hits = sum(
                int(matrix.membership_for_station(u, row, cols).sum()) for u in range(1, 65)
            )
            dens.append(hits)
        assert dens[0] > dens[1] > dens[2]

    def test_row_and_station_validation(self):
        params = matrix_parameters(16)
        matrix = HashedTransmissionMatrix(params, seed=0)
        with pytest.raises(ValueError):
            matrix.membership_for_station(1, 0, np.arange(3))
        with pytest.raises(ValueError):
            matrix.membership_for_station(0, 1, np.arange(3))
        with pytest.raises(ValueError):
            matrix.membership_for_station(17, 1, np.arange(3))

    def test_columns_wrap_modulo_length(self):
        params = matrix_parameters(16)
        matrix = HashedTransmissionMatrix(params, seed=0)
        j = 7
        assert matrix.contains(1, j, 3) == matrix.contains(1, j + params.length, 3)

    def test_column_set_consistency(self):
        params = matrix_parameters(16)
        matrix = HashedTransmissionMatrix(params, seed=0)
        column = 5
        members = matrix.column_set(1, column)
        for u in range(1, 17):
            assert (u in members) == matrix.contains(1, column, u)

    def test_describe(self):
        params = matrix_parameters(16)
        assert "rows=" in HashedTransmissionMatrix(params, seed=0).describe()


class TestExplicitTransmissionMatrix:
    def _params(self):
        return matrix_parameters(8, c=1)

    def test_entries_and_defaults(self):
        params = self._params()
        matrix = ExplicitTransmissionMatrix(params, {(1, 0): {1, 2}, (2, 3): {5}})
        assert matrix.contains(1, 0, 1)
        assert matrix.contains(1, 0, 2)
        assert not matrix.contains(1, 0, 3)
        assert matrix.contains(2, 3, 5)
        assert not matrix.contains(1, 1, 1)  # missing entry is empty
        assert matrix.column_set(2, 3) == frozenset({5})

    def test_validation(self):
        params = self._params()
        with pytest.raises(ValueError):
            ExplicitTransmissionMatrix(params, {(0, 0): {1}})
        with pytest.raises(ValueError):
            ExplicitTransmissionMatrix(params, {(1, params.length): {1}})
        with pytest.raises(ValueError):
            ExplicitTransmissionMatrix(params, {(1, 0): {99}})

    def test_sampled_matrix_has_plausible_densities(self):
        params = matrix_parameters(8, c=1)
        matrix = ExplicitTransmissionMatrix.sample(params, rng=0)
        # Row 1 should have noticeably more members than the last row.
        row1 = sum(len(matrix.column_set(1, j)) for j in range(params.length))
        rowL = sum(len(matrix.column_set(params.rows, j)) for j in range(params.length))
        assert row1 > rowL


class TestExponentClamp:
    """Regression tests for the membership-threshold exponent overflow.

    The threshold is ``2^(64 - (row + rho))`` in uint64.  The pre-fix code
    computed the shift as ``np.uint64(64) - exponent``, which wraps to a huge
    shift count whenever ``row + rho > 64`` (large ``n``, or E10-style
    ``window`` overrides) — an undefined uint64 shift that on common hardware
    wraps modulo 64 and silently turns probability-~0 cells into
    probability ~1/2.  The fix clamps: ``row + rho >= 64`` yields threshold 0.
    """

    def _params(self):
        # window=66 pushes row + rho across the 64 boundary at row 1.
        return matrix_parameters(4, c=1, window=66)

    def _columns_with_rho(self, params, rho):
        columns = np.arange(params.length, dtype=np.int64)
        return columns[(columns % params.window) == rho]

    def test_thresholds_at_the_boundary(self):
        thresholds = HashedTransmissionMatrix._thresholds(
            np.asarray([1, 63, 64, 65, 130], dtype=np.int64)
        )
        assert thresholds.dtype == np.uint64
        assert thresholds.tolist() == [1 << 63, 2, 0, 0, 0]

    def test_membership_is_exactly_zero_from_exponent_64(self):
        params = self._params()
        matrix = HashedTransmissionMatrix(params, seed=123)
        for rho in (63, 64, 65):  # row 1 -> exponents 64, 65, 66
            cols = self._columns_with_rho(params, rho)
            assert cols.size > 0
            for station in range(1, params.n + 1):
                assert not matrix.membership_for_station(station, 1, cols).any()
                assert not any(matrix.contains(1, int(j), station) for j in cols)

    def test_membership_at_exponent_63_is_defined_and_consistent(self):
        params = self._params()
        matrix = HashedTransmissionMatrix(params, seed=123)
        cols = self._columns_with_rho(params, 62)  # row 1 -> exponent 63
        vec = matrix.membership_for_station(2, 1, cols)
        scalar = [matrix.contains(1, int(j), 2) for j in cols]
        assert vec.tolist() == scalar

    def test_batched_pairs_agree_with_scalar_across_the_boundary(self):
        params = self._params()
        matrix = HashedTransmissionMatrix(params, seed=9)
        columns = np.arange(params.length, dtype=np.int64)
        for row in (1, params.rows):
            member = matrix.membership_for_pairs(3, row, columns)
            reference = matrix.membership_for_station(3, row, columns)
            np.testing.assert_array_equal(member, reference)
            # Exponents >= 64 contribute exactly zero members.
            beyond = (row + (columns % params.window)) >= 64
            assert not member[beyond].any()

    def test_probabilities_below_the_boundary_are_unaffected(self):
        # The clamp must not disturb ordinary geometries: row-1/rho-0
        # membership frequency still tracks probability 1/2.
        params = matrix_parameters(64)
        matrix = HashedTransmissionMatrix(params, seed=4)
        cols = np.arange(0, params.length, params.window, dtype=np.int64)[:2000]
        hits = sum(
            int(matrix.membership_for_station(u, 1, cols).sum()) for u in range(1, 65)
        )
        assert abs(hits / (64 * cols.size) - 0.5) < 0.05


class TestMembershipForPairs:
    def test_hashed_pairs_match_contains_elementwise(self):
        params = matrix_parameters(32)
        matrix = HashedTransmissionMatrix(params, seed=3)
        rng = np.random.default_rng(0)
        stations = rng.integers(1, 33, size=500)
        rows = rng.integers(1, params.rows + 1, size=500)
        columns = rng.integers(0, 3 * params.length, size=500)
        member = matrix.membership_for_pairs(stations, rows, columns)
        reference = [
            matrix.contains(int(r), int(j), int(u))
            for u, r, j in zip(stations, rows, columns)
        ]
        assert member.tolist() == reference

    def test_pairs_match_membership_for_station(self):
        params = matrix_parameters(16)
        matrix = HashedTransmissionMatrix(params, seed=7)
        columns = np.arange(200, dtype=np.int64)
        for station in (1, 9, 16):
            for row in (1, params.rows):
                np.testing.assert_array_equal(
                    matrix.membership_for_pairs(station, row, columns),
                    matrix.membership_for_station(station, row, columns),
                )

    def test_base_class_default_matches_contains(self):
        params = matrix_parameters(8, c=1)
        matrix = ExplicitTransmissionMatrix(params, {(1, 0): {1, 2}, (2, 3): {5}})
        stations = np.asarray([1, 2, 3, 5, 5], dtype=np.int64)
        rows = np.asarray([1, 1, 1, 2, 1], dtype=np.int64)
        columns = np.asarray([0, 0, 0, 3, 3], dtype=np.int64)
        member = matrix.membership_for_pairs(stations, rows, columns)
        assert member.tolist() == [True, True, False, True, False]

    def test_scalars_broadcast(self):
        params = matrix_parameters(16)
        matrix = HashedTransmissionMatrix(params, seed=0)
        columns = np.arange(50, dtype=np.int64)
        np.testing.assert_array_equal(
            matrix.membership_for_pairs(5, 1, columns),
            matrix.membership_for_station(5, 1, columns),
        )

    def test_empty_input(self):
        params = matrix_parameters(16)
        matrix = HashedTransmissionMatrix(params, seed=0)
        empty = np.empty(0, dtype=np.int64)
        assert matrix.membership_for_pairs(empty, empty, empty).size == 0

    def test_validation(self):
        params = matrix_parameters(16)
        matrix = HashedTransmissionMatrix(params, seed=0)
        columns = np.asarray([0, 1], dtype=np.int64)
        with pytest.raises(ValueError):
            matrix.membership_for_pairs([1, 2], [0, 1], columns)
        with pytest.raises(ValueError):
            matrix.membership_for_pairs([0, 2], [1, 1], columns)
        with pytest.raises(ValueError):
            matrix.membership_for_pairs([1, 17], [1, 1], columns)


class TestCumulativeSpanGeometry:
    def test_cumulative_spans_values(self):
        params = matrix_parameters(64, c=3)
        assert params.cumulative_spans == tuple(
            sum(params.row_spans[: i + 1]) for i in range(params.rows)
        )
        assert params.total_span == sum(params.row_spans)

    def test_row_at_offset_matches_linear_scan_reference(self):
        params = matrix_parameters(64)

        def reference(offset):
            if offset < 0:
                return None
            running = 0
            for i, span in enumerate(params.row_spans, start=1):
                running += span
                if offset < running:
                    return i
            return None

        probes = [-5, -1, 0, 1]
        for boundary in params.cumulative_spans:
            probes += [boundary - 1, boundary, boundary + 1]
        probes += [params.total_span - 1, params.total_span, params.total_span + 99]
        for offset in probes:
            assert params.row_at_offset(offset) == reference(offset), offset

    def test_rows_at_offsets_matches_scalar(self):
        params = matrix_parameters(32, c=1)
        offsets = np.asarray(
            [-3, -1, 0, 1, params.row_spans[0] - 1, params.row_spans[0],
             params.total_span - 1, params.total_span, params.total_span + 7],
            dtype=np.int64,
        )
        rows = params.rows_at_offsets(offsets)
        for offset, row in zip(offsets, rows):
            expected = params.row_at_offset(int(offset))
            assert int(row) == (0 if expected is None else expected)

    def test_mu_array_matches_scalar(self):
        params = matrix_parameters(64)
        sigmas = np.arange(0, 4 * params.window + 1, dtype=np.int64)
        np.testing.assert_array_equal(
            params.mu_array(sigmas),
            np.asarray([params.mu(int(s)) for s in sigmas], dtype=np.int64),
        )
        with pytest.raises(ValueError):
            params.mu_array(np.asarray([-1], dtype=np.int64))


class TestFirstIsolationChunkedScan:
    def _reference(self, matrix, pattern, max_slots):
        start = pattern.first_wake
        for slot in range(start, start + max_slots):
            station = isolated_station_at(matrix, pattern, slot)
            if station is not None:
                return slot, station
        return None

    def test_matches_slot_by_slot_reference(self):
        rng = np.random.default_rng(1)
        for seed in range(6):
            n = int(rng.integers(2, 16))
            params = matrix_parameters(n, c=1)
            matrix = HashedTransmissionMatrix(params, seed=seed)
            k = int(rng.integers(1, min(n, 4) + 1))
            stations = rng.choice(np.arange(1, n + 1), size=k, replace=False)
            wakes = rng.integers(0, 20, size=k)
            pattern = WakeupPattern(n, {int(u): int(w) for u, w in zip(stations, wakes)})
            got = first_isolation(matrix, pattern, max_slots=4000)
            assert got == self._reference(matrix, pattern, 4000)

    def test_chunk_layout_never_changes_the_outcome(self):
        params = matrix_parameters(12, c=1)
        matrix = HashedTransmissionMatrix(params, seed=2)
        pattern = WakeupPattern(12, {3: 0, 7: 5, 11: 9})
        outcomes = {
            first_isolation(matrix, pattern, max_slots=4000, chunk=chunk)
            for chunk in (16, 17, 100, 2048)
        }
        assert len(outcomes) == 1

    def test_exhaustion_early_exit_still_returns_none(self):
        # Stations exhaust all rows long before the horizon; the chunked scan
        # stops early but must report the same None the full scan would.
        params = matrix_parameters(2, c=1)
        matrix = ExplicitTransmissionMatrix(params, {})
        pattern = WakeupPattern(2, {1: 0, 2: 0})
        horizon = 100 * (params.total_span + params.window)
        assert first_isolation(matrix, pattern, max_slots=horizon) is None


class TestSection52Analysis:
    def test_operational_sets_partition(self):
        params = matrix_parameters(32)
        pattern = WakeupPattern(32, {1: 0, 5: 0, 9: params.window * 3 + 1})
        slot = params.row_spans[0] + params.window + 2
        sets = operational_sets(params, pattern, slot)
        all_stations = [u for s in sets.values() for u in s]
        assert len(all_stations) == len(set(all_stations))  # disjoint rows
        # Stations 1 and 5 (woken at 0) share a row; station 9 may be on an earlier row.
        rows_of = {u: i for i, s in sets.items() for u in s}
        assert rows_of[1] == rows_of[5]
        if 9 in rows_of:
            assert rows_of[9] <= rows_of[1]

    def test_operational_sets_exclude_waiting_stations(self):
        params = matrix_parameters(32)
        if params.window < 2:
            pytest.skip("needs window >= 2")
        pattern = WakeupPattern(32, {3: 1})
        # At slot 1 the station is waiting for mu(1) = window.
        assert operational_sets(params, pattern, 1) == {}
        assert 3 in operational_sets(params, pattern, params.window).get(1, frozenset())

    def test_is_well_balanced_slot_small_case(self):
        params = matrix_parameters(32)
        pattern = WakeupPattern(32, {u: 0 for u in range(1, 5)})
        # With 4 stations all on row 1, S1 holds (4/2 <= rows) and S2 holds (4 >= 2^{-2}).
        assert is_well_balanced_slot(params, pattern, params.mu(0))

    def test_no_awake_stations_is_not_well_balanced(self):
        params = matrix_parameters(32)
        pattern = WakeupPattern(32, {1: 50})
        assert not is_well_balanced_slot(params, pattern, 0)

    def test_isolated_station_matches_manual_computation(self):
        params = matrix_parameters(8, c=1)
        # One station alone: it is isolated at the first slot where it belongs to
        # the current column of row 1 (and not otherwise).
        matrix = HashedTransmissionMatrix(params, seed=1)
        pattern = WakeupPattern(8, {4: 0})
        iso = first_isolation(matrix, pattern, max_slots=5_000)
        assert iso is not None
        slot, station = iso
        assert station == 4
        assert matrix.contains(1, slot % params.length, 4)
        for earlier in range(slot):
            assert isolated_station_at(matrix, pattern, earlier) is None

    def test_first_isolation_none_when_impossible(self):
        params = matrix_parameters(4, c=1)
        # An explicitly empty matrix never isolates anybody.
        matrix = ExplicitTransmissionMatrix(params, {})
        pattern = WakeupPattern(4, {1: 0, 2: 0})
        assert first_isolation(matrix, pattern, max_slots=200) is None


class TestMatrixBatchTransmitSlots:
    """``batch_transmit_slots`` of both Scenario C protocols, cell by cell.

    The batch query enumerates operational cells and resolves them with one
    :meth:`~TransmissionMatrix.membership_for_pairs` call per slice; it must
    list exactly the slots at which the scalar ``transmits`` says yes.
    """

    @staticmethod
    def _matrix(kind, params):
        if kind == "hashed":
            return HashedTransmissionMatrix(params, seed=5)
        return ExplicitTransmissionMatrix.sample(params, rng=5)

    @pytest.mark.parametrize("kind", ["hashed", "explicit"])
    @pytest.mark.parametrize("clock", ["global", "local"])
    def test_batch_slots_match_scalar_transmits(self, kind, clock):
        from repro.core.local_clock import LocalClockScenarioC
        from repro.core.scenario_c import WakeupProtocol

        params = matrix_parameters(8)
        matrix = self._matrix(kind, params)
        cls = WakeupProtocol if clock == "global" else LocalClockScenarioC
        protocol = cls(8, matrix=matrix)
        stations = np.asarray([1, 3, 3, 6, 8], dtype=np.int64)
        wakes = np.asarray([0, 5, 17, 2, 40], dtype=np.int64)
        start, stop = 3, 40 + params.total_span + params.length
        pair_index, slots = protocol.batch_transmit_slots(stations, wakes, start, stop)
        listed = set(zip(pair_index.tolist(), slots.tolist()))
        assert len(listed) == pair_index.size  # no (pair, slot) listed twice
        expected = {
            (j, slot)
            for j, (u, w) in enumerate(zip(stations.tolist(), wakes.tolist()))
            for slot in range(start, stop)
            if protocol.transmits(u, w, slot)
        }
        assert expected  # the window is long enough to see transmissions
        assert listed == expected
