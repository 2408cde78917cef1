"""Tests for repro.core.lower_bounds."""

from __future__ import annotations

import math

import pytest

from repro.core.lower_bounds import (
    BoundRow,
    bound_table,
    clementi_lower_bound,
    randomized_lower_bound,
    round_robin_worst_case,
    scenario_ab_bound,
    scenario_c_bound,
    trivial_lower_bound,
)


class TestTrivialLowerBound:
    @pytest.mark.parametrize(
        "n, k, expected",
        [(10, 1, 1), (10, 3, 3), (10, 5, 5), (10, 6, 5), (10, 10, 1), (100, 50, 50)],
    )
    def test_values(self, n, k, expected):
        assert trivial_lower_bound(n, k) == expected

    def test_symmetry_peak_at_half(self):
        n = 64
        values = [trivial_lower_bound(n, k) for k in range(1, n + 1)]
        assert max(values) == trivial_lower_bound(n, n // 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            trivial_lower_bound(4, 5)


class TestClementiBound:
    def test_in_range_formula(self):
        assert clementi_lower_bound(640, 10) == pytest.approx(10 * math.log2(64))

    def test_out_of_range_falls_back_to_trivial(self):
        assert clementi_lower_bound(10, 5) == trivial_lower_bound(10, 5)
        assert clementi_lower_bound(100, 1) == trivial_lower_bound(100, 1)


class TestScenarioBounds:
    def test_scenario_ab_bound_positive_at_k_equals_n(self):
        assert scenario_ab_bound(16, 16) == pytest.approx(16 + 1)

    def test_scenario_ab_bound_formula(self):
        assert scenario_ab_bound(64, 4) == pytest.approx(4 * 4 + 1)

    def test_scenario_c_bound_monotone_in_k(self):
        values = [scenario_c_bound(256, k) for k in (1, 2, 4, 8, 16)]
        assert values == sorted(values)

    def test_scenario_c_dominates_scenario_ab_for_small_k(self):
        # The O(log log n) gap: for k << n the scenario C bound is larger.
        assert scenario_c_bound(1024, 4) > scenario_ab_bound(1024, 4)

    def test_randomized_lower_bound(self):
        assert randomized_lower_bound(16) == pytest.approx(4.0)
        assert randomized_lower_bound(1) == 1.0

    def test_round_robin_worst_case(self):
        assert round_robin_worst_case(16, 4) == 13
        assert round_robin_worst_case(16, 4, simultaneous=False) == 16


class TestBoundTable:
    def test_rows_and_fields(self):
        rows = bound_table(64, [2, 8, 32])
        assert len(rows) == 3
        assert all(isinstance(r, BoundRow) for r in rows)
        assert rows[0].n == 64 and rows[0].k == 2
        assert rows[1].trivial == trivial_lower_bound(64, 8)
        assert rows[2].scenario_c == pytest.approx(scenario_c_bound(64, 32))

    def test_invalid_k_propagates(self):
        with pytest.raises(ValueError):
            bound_table(16, [32])
