"""Tests for repro.reporting.export."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from repro.reporting.export import results_to_csv, results_to_json, write_csv, write_json


ROWS = [
    {"n": 64, "k": 2, "latency": 17},
    {"n": 64, "k": 4, "latency": 40, "note": "extra column"},
]


class TestCsv:
    def test_round_trip(self):
        text = results_to_csv(ROWS)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[0]["n"] == "64"
        assert parsed[0]["note"] == ""
        assert parsed[1]["note"] == "extra column"

    def test_column_order_is_first_seen(self):
        text = results_to_csv(ROWS)
        header = text.splitlines()[0]
        assert header == "n,k,latency,note"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            results_to_csv([])

    def test_write_csv(self, tmp_path):
        path = write_csv(ROWS, tmp_path / "out" / "rows.csv")
        assert path.exists()
        assert "latency" in path.read_text()


class TestJson:
    def test_round_trip(self):
        data = json.loads(results_to_json(ROWS))
        assert data[0]["n"] == 64
        assert data[1]["note"] == "extra column"

    def test_numpy_scalars_serialized(self):
        rows = [{"value": np.int64(3), "ratio": np.float64(1.5)}]
        data = json.loads(results_to_json(rows))
        assert data[0]["value"] == 3
        assert data[0]["ratio"] == 1.5

    def test_objects_with_as_dict(self):
        class Summary:
            def as_dict(self):
                return {"count": 3}

        rows = [{"stats": Summary()}]
        data = json.loads(results_to_json(rows))
        assert data[0]["stats"]["count"] == 3

    def test_write_json(self, tmp_path):
        path = write_json(ROWS, tmp_path / "rows.json")
        assert json.loads(path.read_text())[0]["k"] == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            results_to_json([])
