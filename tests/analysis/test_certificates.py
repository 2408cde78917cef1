"""Tests for repro.analysis.certificates."""

from __future__ import annotations

import pytest

from repro.analysis.certificates import (
    BoundCertificate,
    check_lower_bound,
    check_upper_bound,
)


MEASUREMENTS = [(64, 2, 20.0), (64, 8, 70.0), (128, 8, 90.0)]


class TestUpperBound:
    def test_holds_with_generous_tolerance(self):
        cert = check_upper_bound(
            MEASUREMENTS, lambda n, k: float(k * 10), claim="test", tolerance=2.0
        )
        assert cert.holds
        assert cert.worst_ratio == pytest.approx(90.0 / 80.0)
        assert cert.violations == ()

    def test_violations_reported(self):
        cert = check_upper_bound(
            MEASUREMENTS, lambda n, k: float(k), claim="too tight", tolerance=2.0
        )
        assert not cert.holds
        assert len(cert.violations) == 3
        assert "VIOLATED" in cert.describe()

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            check_upper_bound(MEASUREMENTS, lambda n, k: 0.0, claim="bad")

    def test_empty_measurements_rejected(self):
        with pytest.raises(ValueError):
            check_upper_bound([], lambda n, k: 1.0, claim="empty")


class TestLowerBound:
    def test_holds_when_measured_at_least_bound(self):
        cert = check_lower_bound(
            MEASUREMENTS, lambda n, k: float(k), claim="lower", tolerance=1.0
        )
        assert cert.holds
        # The worst (smallest) ratio comes from (64, 8, 70.0): 70 / 8.
        assert cert.worst_ratio == pytest.approx(70.0 / 8.0)

    def test_violation_when_measured_below_bound(self):
        cert = check_lower_bound(
            [(64, 8, 3.0)], lambda n, k: float(k), claim="lower", tolerance=1.0
        )
        assert not cert.holds
        assert cert.violations == ((64, 8, 3.0, 8.0),)

    def test_tolerance_allows_slack(self):
        cert = check_lower_bound(
            [(64, 8, 5.0)], lambda n, k: float(k), claim="lower", tolerance=2.0
        )
        assert cert.holds


class TestDescribe:
    def test_describe_mentions_status_and_ratio(self):
        cert = BoundCertificate(claim="c", holds=True, worst_ratio=1.5, tolerance=4.0)
        text = cert.describe()
        assert "HOLDS" in text and "1.5" in text
