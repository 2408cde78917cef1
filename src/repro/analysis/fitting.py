"""Growth-model fitting: which asymptotic shape do the measurements follow?

The paper's claims are asymptotic (``Θ(k log(n/k) + 1)``,
``O(k log n log log n)``); the reproduction validates them by fitting measured
latencies ``y`` against candidate models ``y ≈ a · g(n, k)`` by least squares
and reporting which ``g`` explains the data best.  The fit is intentionally
simple — a single multiplicative constant per model, no intercept games —
because the question is "does the measured curve have this *shape*", not
"what is the constant".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np

from repro._util import log2_safe, loglog2_safe

__all__ = [
    "GrowthModel",
    "STANDARD_MODELS",
    "FitResult",
    "fit_model",
    "best_model",
]


@dataclass(frozen=True)
class GrowthModel:
    """A candidate growth function ``g(n, k)`` with a human-readable name."""

    name: str
    func: Callable[[int, int], float]

    def evaluate(self, n: int, k: int) -> float:
        """Evaluate ``g(n, k)`` (always positive)."""
        value = float(self.func(n, k))
        if value <= 0:
            raise ValueError(f"growth model {self.name} returned non-positive value {value}")
        return value


#: The growth functions relevant to the paper's bounds.
STANDARD_MODELS: Tuple[GrowthModel, ...] = (
    GrowthModel("constant", lambda n, k: 1.0),
    GrowthModel("log k", lambda n, k: log2_safe(k)),
    GrowthModel("log n", lambda n, k: log2_safe(n)),
    GrowthModel("k", lambda n, k: float(k)),
    GrowthModel("k log(n/k)", lambda n, k: k * log2_safe(n / k) + 1.0),
    GrowthModel("k log n", lambda n, k: k * log2_safe(n)),
    GrowthModel("k log n loglog n", lambda n, k: k * log2_safe(n) * loglog2_safe(n)),
    GrowthModel("k^2", lambda n, k: float(k) ** 2),
    GrowthModel("n", lambda n, k: float(n)),
    GrowthModel("n - k + 1", lambda n, k: float(max(1, n - k + 1))),
)


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one growth model to a set of measurements.

    Attributes
    ----------
    model:
        The candidate model.
    constant:
        The fitted multiplicative constant ``a`` in ``y ≈ a · g(n, k)``.
    residual:
        Root-mean-square relative error of the fit (lower is better).
    r_squared:
        Coefficient of determination in log space.
    """

    model: GrowthModel
    constant: float
    residual: float
    r_squared: float


def _prepare(points: Sequence[Tuple[int, int, float]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not points:
        raise ValueError("need at least one (n, k, latency) point")
    ns = np.asarray([p[0] for p in points], dtype=float)
    ks = np.asarray([p[1] for p in points], dtype=float)
    ys = np.asarray([p[2] for p in points], dtype=float)
    if np.any(ys <= 0):
        raise ValueError("latencies must be strictly positive for log-space fitting")
    return ns, ks, ys


def fit_model(points: Sequence[Tuple[int, int, float]], model: GrowthModel) -> FitResult:
    """Fit ``latency ≈ a · g(n, k)`` by least squares in log space.

    Parameters
    ----------
    points:
        Measurements as ``(n, k, latency)`` triples.
    model:
        Candidate growth model.
    """
    ns, ks, ys = _prepare(points)
    g = np.asarray([model.evaluate(int(n), int(k)) for n, k in zip(ns, ks)], dtype=float)
    # Least squares on log(y) = log(a) + log(g): the optimal log(a) is the mean difference.
    log_ratio = np.log(ys) - np.log(g)
    log_a = float(np.mean(log_ratio))
    constant = float(np.exp(log_a))
    residuals = log_ratio - log_a
    rmse = float(np.sqrt(np.mean(residuals**2)))
    total_var = float(np.var(np.log(ys)))
    r_squared = 1.0 - float(np.var(residuals)) / total_var if total_var > 0 else 1.0
    return FitResult(model=model, constant=constant, residual=rmse, r_squared=r_squared)


def best_model(
    points: Sequence[Tuple[int, int, float]],
    models: Iterable[GrowthModel] = STANDARD_MODELS,
) -> FitResult:
    """Fit every candidate model and return the one with the smallest residual."""
    fits = [fit_model(points, model) for model in models]
    if not fits:
        raise ValueError("no candidate models supplied")
    return min(fits, key=lambda fit: fit.residual)
