"""Tests for repro.analysis.fitting."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import log2_safe, loglog2_safe
from repro.analysis.fitting import (
    STANDARD_MODELS,
    GrowthModel,
    best_model,
    fit_model,
)


def _model(name: str) -> GrowthModel:
    return next(m for m in STANDARD_MODELS if m.name == name)


def _synthetic(points, func, constant, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for n, k in points:
        value = constant * func(n, k)
        if noise:
            value *= float(np.exp(rng.normal(0, noise)))
        out.append((n, k, value))
    return out


GRID = [(n, k) for n in (64, 128, 256, 512, 1024) for k in (2, 4, 8, 16, 32)]


class TestFitModel:
    def test_recovers_constant_exactly_without_noise(self):
        data = _synthetic(GRID, lambda n, k: k * log2_safe(n / k) + 1, 3.5)
        fit = fit_model(data, _model("k log(n/k)"))
        assert fit.constant == pytest.approx(3.5, rel=1e-6)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_model([], _model("k"))
        with pytest.raises(ValueError):
            fit_model([(4, 2, 0.0)], _model("k"))


class TestBestModel:
    def test_identifies_k_log_n_over_k(self):
        data = _synthetic(GRID, lambda n, k: k * log2_safe(n / k) + 1, 2.0, noise=0.05)
        fit = best_model(data)
        assert fit.model.name == "k log(n/k)"

    def test_identifies_k_log_n_loglog_n(self):
        data = _synthetic(
            GRID, lambda n, k: k * log2_safe(n) * loglog2_safe(n), 1.7, noise=0.05
        )
        fit = best_model(data)
        assert fit.model.name in ("k log n loglog n", "k log n")  # close cousins
        # The loglog model must fit at least as well as plain k.
        plain = fit_model(data, _model("k"))
        assert fit.residual <= plain.residual

    def test_identifies_linear_in_n(self):
        data = _synthetic(GRID, lambda n, k: float(n), 0.9, noise=0.02)
        assert best_model(data).model.name in ("n", "n - k + 1")

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError):
            best_model([(4, 2, 1.0)], models=[])


class TestGrowthModel:
    def test_model_evaluate_guards_non_positive(self):
        bad = GrowthModel("zero", lambda n, k: 0.0)
        with pytest.raises(ValueError):
            bad.evaluate(4, 2)
