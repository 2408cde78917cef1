"""Tests for repro.core.matrix_search (waking-matrix verification and seed search)."""

from __future__ import annotations

import pytest

from repro.core.matrix_search import (
    MatrixVerificationReport,
    adversarial_pattern_battery,
    find_waking_matrix_seed,
    verify_matrix,
)
from repro.core.waking_matrix import (
    ExplicitTransmissionMatrix,
    HashedTransmissionMatrix,
    matrix_parameters,
)


class TestPatternBattery:
    def test_contains_all_requested_ks(self):
        battery = adversarial_pattern_battery(32, ks=(1, 2, 4), patterns_per_k=1, rng=0)
        observed_ks = {p.k for p in battery}
        assert observed_ks == {1, 2, 4}
        # simultaneous + staggered + window-boundary + 1 random per k
        assert len(battery) == 3 * 4

    def test_k_capped_at_n(self):
        battery = adversarial_pattern_battery(4, ks=(8,), patterns_per_k=0, rng=0)
        assert all(p.k <= 4 for p in battery)


class TestVerifyMatrix:
    def test_good_matrix_passes(self):
        params = matrix_parameters(32)
        matrix = HashedTransmissionMatrix(params, seed=1)
        report = verify_matrix(matrix, ks=(1, 2, 4), patterns_per_k=1, rng=0)
        assert isinstance(report, MatrixVerificationReport)
        assert report.passed
        assert report.seed == 1
        assert report.worst_latency >= 0
        assert "PASS" in report.describe()

    def test_empty_matrix_fails(self):
        params = matrix_parameters(16, c=1)
        matrix = ExplicitTransmissionMatrix(params, {})
        report = verify_matrix(matrix, ks=(2,), patterns_per_k=0, budget_factor=2.0, rng=0)
        assert not report.passed
        assert report.failures
        assert "FAIL" in report.describe()

    @pytest.mark.parametrize("budget_factor", [-1.0, 0.0, float("nan")])
    def test_refuses_a_non_positive_budget(self, budget_factor):
        matrix = HashedTransmissionMatrix(matrix_parameters(8), seed=1)
        with pytest.raises(ValueError, match="budget_factor must be > 0"):
            verify_matrix(matrix, budget_factor=budget_factor, rng=0)


class TestFindSeed:
    def test_finds_a_passing_seed(self):
        seed, report = find_waking_matrix_seed(
            32, max_attempts=4, ks=(1, 2, 4), patterns_per_k=1, rng=3
        )
        assert report.passed
        assert isinstance(seed, int)

    def test_impossible_budget_raises(self):
        with pytest.raises(RuntimeError):
            find_waking_matrix_seed(
                32,
                max_attempts=2,
                ks=(4,),
                patterns_per_k=1,
                budget_factor=0.001,  # nothing can isolate this fast
                rng=0,
            )

    def test_zero_attempts_is_refused(self):
        with pytest.raises(ValueError, match="max_attempts must be >= 1, got 0"):
            find_waking_matrix_seed(32, max_attempts=0, rng=0)

    @pytest.mark.parametrize("budget_factor", [-1.0, 0.0, float("nan")])
    def test_non_positive_budget_is_refused_before_any_attempt(self, budget_factor, monkeypatch):
        import repro.core.matrix_search as matrix_search

        def no_verification(*args, **kwargs):
            raise AssertionError("no attempt may run with a non-positive budget")

        monkeypatch.setattr(matrix_search, "verify_matrix", no_verification)
        with pytest.raises(ValueError, match="budget_factor must be > 0"):
            find_waking_matrix_seed(8, budget_factor=budget_factor, rng=0)
