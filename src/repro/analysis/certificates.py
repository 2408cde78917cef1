"""Bound certificates: machine-checkable forms of the paper's claims.

A *certificate* asserts that, over a sweep of configurations, the measured
latency stays within a constant factor of a theoretical bound (upper bounds)
or never drops below it (lower bounds).  ``repro paper report`` lists the
certificate verdicts next to the raw tables so a reader can see at a glance
which claims the reproduction confirms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "BoundCertificate",
    "bound_ratio",
    "check_upper_bound",
    "check_lower_bound",
]


def bound_ratio(n: int, k: int, measured: float, bound: Callable[[int, int], float]) -> float:
    """``measured / bound(n, k)`` — the normalized latency a certificate carries.

    The single definition of the ratio that both the sweep-level checks below
    and the per-pattern :class:`repro.adversary.SearchCertificate` use, so a
    certificate's ``bound_ratio`` field is directly comparable to the
    ``worst_ratio`` of a :class:`BoundCertificate` built from the same bound.
    Raises :class:`ValueError` when the bound is non-positive at ``(n, k)``
    (a ratio against it would be meaningless).
    """
    b = float(bound(int(n), int(k)))
    if b <= 0:
        raise ValueError(f"bound evaluated to non-positive value {b} at n={n}, k={k}")
    return float(measured) / b


@dataclass(frozen=True)
class BoundCertificate:
    """Verdict of checking measurements against a bound.

    Attributes
    ----------
    claim:
        Human-readable statement being checked.
    holds:
        Whether every configuration satisfied the check.
    worst_ratio:
        The extreme measured/bound ratio observed (max for upper bounds, min
        for lower bounds).
    tolerance:
        The constant-factor allowance used.
    violations:
        The ``(n, k, measured, bound)`` tuples that failed, if any.
    """

    claim: str
    holds: bool
    worst_ratio: float
    tolerance: float
    violations: Tuple[Tuple[int, int, float, float], ...] = ()

    def describe(self) -> str:
        """One-line summary for reports."""
        status = "HOLDS" if self.holds else "VIOLATED"
        return (
            f"[{status}] {self.claim} (worst ratio {self.worst_ratio:.3g}, "
            f"tolerance {self.tolerance:g}, violations {len(self.violations)})"
        )


def _rows(
    measurements: Sequence[Tuple[int, int, float]],
    bound: Callable[[int, int], float],
) -> List[Tuple[int, int, float, float]]:
    rows = []
    for n, k, measured in measurements:
        b = float(bound(int(n), int(k)))
        if b <= 0:
            raise ValueError(f"bound evaluated to non-positive value {b} at n={n}, k={k}")
        rows.append((int(n), int(k), float(measured), b))
    if not rows:
        raise ValueError("need at least one measurement")
    return rows


def check_upper_bound(
    measurements: Sequence[Tuple[int, int, float]],
    bound: Callable[[int, int], float],
    *,
    claim: str,
    tolerance: float = 8.0,
) -> BoundCertificate:
    """Check ``measured <= tolerance * bound(n, k)`` for every configuration.

    ``tolerance`` absorbs the constants hidden in the paper's O(·): the
    reproduction asserts the *shape*, so the default allows a generous but
    fixed factor that must hold uniformly across the whole sweep.
    """
    rows = _rows(measurements, bound)
    ratios = np.asarray([m / b for (_, _, m, b) in rows])
    violations = tuple(row for row, r in zip(rows, ratios) if r > tolerance)
    return BoundCertificate(
        claim=claim,
        holds=len(violations) == 0,
        worst_ratio=float(ratios.max()),
        tolerance=tolerance,
        violations=violations,
    )


def check_lower_bound(
    measurements: Sequence[Tuple[int, int, float]],
    bound: Callable[[int, int], float],
    *,
    claim: str,
    tolerance: float = 1.0,
) -> BoundCertificate:
    """Check ``measured >= bound(n, k) / tolerance`` for every configuration.

    Used with the adversarial measurements of experiment E4: the worst latency
    the adversary extracts must not fall below the theoretical lower bound
    (within the allowed slack for discretization effects).
    """
    rows = _rows(measurements, bound)
    ratios = np.asarray([m / b for (_, _, m, b) in rows])
    violations = tuple(row for row, r in zip(rows, ratios) if r < 1.0 / tolerance)
    return BoundCertificate(
        claim=claim,
        holds=len(violations) == 0,
        worst_ratio=float(ratios.min()),
        tolerance=tolerance,
        violations=violations,
    )
