"""Tests for repro.reporting.tables."""

from __future__ import annotations

import pytest

from repro.reporting.tables import TextTable, format_cell


class TestFormatCell:
    def test_int_and_bool(self):
        assert format_cell(5) == "5"
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_floats(self):
        assert format_cell(3.0) == "3"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(float("nan")) == "-"

    def test_none_and_strings(self):
        assert format_cell(None) == "-"
        assert format_cell("abc") == "abc"


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(["k", "latency"])
        table.add_row([2, 10])
        table.add_row([16, 3141])
        text = table.render()
        lines = text.splitlines()
        assert lines[0].startswith("k")
        assert "-+-" in lines[1]
        assert lines[2].split("|")[0].strip() == "2"
        assert lines[3].split("|")[1].strip() == "3141"

    def test_title_included(self):
        table = TextTable(["a"], title="My table")
        table.add_row([1])
        assert table.render().splitlines()[0] == "My table"

    def test_row_length_validation(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_str_matches_render(self):
        table = TextTable(["a"])
        table.add_row([1])
        assert str(table) == table.render()
