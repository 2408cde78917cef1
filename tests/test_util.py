"""Tests for repro._util helpers."""

from __future__ import annotations


import numpy as np
import pytest

from repro._util import (
    as_generator,
    ceil_div,
    ceil_log2,
    log2_safe,
    loglog2_safe,
    validate_k_n,
    validate_positive_int,
    validate_station_id,
    validate_station_ids,
)


class TestAsGenerator:
    def test_from_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.allclose(a, b)

    def test_passthrough_of_existing_generator(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_creates_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestLogHelpers:
    @pytest.mark.parametrize(
        "x, expected",
        [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (1024, 10), (1025, 11)],
    )
    def test_ceil_log2(self, x, expected):
        assert ceil_log2(x) == expected

    def test_ceil_log2_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ceil_log2(0)

    def test_log2_safe_clamps_at_one(self):
        assert log2_safe(1.0) == 1.0
        assert log2_safe(0.5) == 1.0
        assert log2_safe(2.0) == pytest.approx(1.0)
        assert log2_safe(8.0) == pytest.approx(3.0)

    def test_loglog2_safe(self):
        assert loglog2_safe(2.0) == 1.0
        assert loglog2_safe(256.0) == pytest.approx(3.0)
        # log2(log2(2^64)) = 6
        assert loglog2_safe(2.0**64) == pytest.approx(6.0)

    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        assert ceil_div(0, 5) == 0
        assert ceil_div(-1, 2) == 0  # ceil(-0.5) == 0
        with pytest.raises(ValueError):
            ceil_div(1, 0)


class TestValidation:
    def test_validate_positive_int_accepts_numpy_integers(self):
        assert validate_positive_int(np.int64(5), "x") == 5

    def test_validate_positive_int_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            validate_positive_int(True, "x")
        with pytest.raises(TypeError):
            validate_positive_int(2.0, "x")

    def test_validate_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            validate_positive_int(0, "x")

    def test_validate_station_id_bounds(self):
        assert validate_station_id(1, 8) == 1
        assert validate_station_id(8, 8) == 8
        with pytest.raises(ValueError):
            validate_station_id(0, 8)
        with pytest.raises(ValueError):
            validate_station_id(9, 8)

    def test_validate_station_ids_rejects_duplicates(self):
        with pytest.raises(ValueError):
            validate_station_ids([1, 2, 2], 8)

    def test_validate_k_n(self):
        assert validate_k_n(3, 10) == (3, 10)
        with pytest.raises(ValueError):
            validate_k_n(11, 10)
        with pytest.raises(ValueError):
            validate_k_n(0, 10)
