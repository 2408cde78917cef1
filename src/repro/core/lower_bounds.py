"""Closed-form bounds from the paper (Section 2, Corollary 2.1, Section 6).

Every experiment normalizes its measured latencies by one of these functions;
keeping the formulas in one module guarantees the tables of ``repro paper
report`` and the assertions in the test-suite use identical definitions.

Following the paper's convention the logarithmic factors never drop below 1
(``Θ(k log(n/k) + 1)`` — the ``+1`` keeps the bound positive at ``k = n``),
which is implemented via :func:`repro._util.log2_safe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro._util import log2_safe, loglog2_safe, validate_k_n, validate_positive_int

__all__ = [
    "trivial_lower_bound",
    "clementi_lower_bound",
    "scenario_ab_bound",
    "scenario_c_bound",
    "randomized_lower_bound",
    "round_robin_worst_case",
    "BoundRow",
    "bound_table",
]


def trivial_lower_bound(n: int, k: int) -> int:
    """Theorem 2.1: any wake-up algorithm needs ``min{k, n - k + 1}`` rounds.

    Holds even when all stations start simultaneously and both ``k`` and ``n``
    are known.
    """
    k, n = validate_k_n(k, n)
    return min(k, n - k + 1)


def clementi_lower_bound(n: int, k: int) -> float:
    """The Ω(k log(n/k)) lower bound of Clementi–Monti–Silvestri ([14] in the paper).

    Stated for ``2 <= k <= n/64``; outside that range we fall back to the
    trivial bound so the function is total (callers use it as a normalizer).
    """
    k, n = validate_k_n(k, n)
    if 2 <= k <= n / 64:
        return k * log2_safe(n / k)
    return float(trivial_lower_bound(n, k))


def scenario_ab_bound(n: int, k: int) -> float:
    """``Θ(k log(n/k) + 1)`` — the optimal bound achieved in Scenarios A and B."""
    k, n = validate_k_n(k, n)
    return k * log2_safe(n / k) + 1.0


def scenario_c_bound(n: int, k: int) -> float:
    """``O(k log n log log n)`` — the Scenario C upper bound (Theorem 5.3)."""
    k, n = validate_k_n(k, n)
    return k * log2_safe(n) * loglog2_safe(n)


def randomized_lower_bound(k: int) -> float:
    """Kushilevitz–Mansour: expected ``Ω(log k)`` slots for any randomized protocol."""
    k = max(1, int(k))
    return log2_safe(k)


def round_robin_worst_case(n: int, k: int, *, simultaneous: bool = True) -> int:
    """Worst-case latency of round-robin.

    ``n - k + 1`` when all contenders wake simultaneously (only the turns of
    the ``n - k`` absent stations can be wasted); at most ``n`` in the general
    non-synchronized case (the first waker's turn arrives within ``n`` slots).
    """
    k, n = validate_k_n(k, n)
    return n - k + 1 if simultaneous else n


@dataclass(frozen=True)
class BoundRow:
    """One row of the summary bound table (``repro bounds`` and the reports)."""

    n: int
    k: int
    trivial: int
    clementi: float
    scenario_ab: float
    scenario_c: float
    randomized_lower: float
    round_robin: int


def bound_table(n: int, ks: List[int]) -> List[BoundRow]:
    """Evaluate every bound for a range of ``k`` values at fixed ``n``."""
    validate_positive_int(n, "n")
    rows = []
    for k in ks:
        k_, n_ = validate_k_n(k, n)
        rows.append(
            BoundRow(
                n=n_,
                k=k_,
                trivial=trivial_lower_bound(n_, k_),
                clementi=clementi_lower_bound(n_, k_),
                scenario_ab=scenario_ab_bound(n_, k_),
                scenario_c=scenario_c_bound(n_, k_),
                randomized_lower=randomized_lower_bound(k_),
                round_robin=round_robin_worst_case(n_, k_),
            )
        )
    return rows
