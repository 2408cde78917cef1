"""Tests for repro.analysis.shape."""

from __future__ import annotations

import pytest

from repro.analysis.shape import who_wins


class TestWhoWins:
    def test_smallest_wins(self):
        winner, value = who_wins({"a": 3.0, "b": 1.0, "c": 2.0})
        assert winner == "b" and value == 1.0

    def test_tie_breaks_lexicographically(self):
        winner, _ = who_wins({"zeta": 1.0, "alpha": 1.0})
        assert winner == "alpha"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            who_wins({})
