"""Tests for repro.analysis.statistics."""

from __future__ import annotations

import pytest

from repro.analysis.statistics import summarize


class TestSummarize:
    def test_basic_summary(self):
        stats = summarize([1, 2, 3, 4, 5])
        assert stats.count == 5
        assert stats.mean == pytest.approx(3.0)
        assert stats.minimum == 1 and stats.maximum == 5
        assert stats.median == pytest.approx(3.0)

    def test_single_sample_has_zero_std(self):
        stats = summarize([7.0])
        assert stats.std == 0.0
        assert stats.p90 == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_as_dict_round_trip(self):
        stats = summarize([2, 4])
        d = stats.as_dict()
        assert d["count"] == 2 and d["mean"] == pytest.approx(3.0)
        assert set(d) == {"count", "mean", "std", "min", "median", "p90", "max"}
