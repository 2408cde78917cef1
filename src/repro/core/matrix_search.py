"""Empirical verification and seed search for waking matrices (extension).

The paper proves the *existence* of a waking matrix by the probabilistic
method and leaves "an explicit construction of our waking matrices" as an
open problem (Conclusions).  Short of an explicit construction, a practical
deployment needs at least a *certified sample*: a seed whose hashed matrix
isolates a station quickly on every workload it is tested against.  This
module provides that machinery:

* :func:`verify_matrix` — run the matrix-level isolation analysis over a
  battery of adversarial and random wake-up families and report, per family,
  whether isolation happened within the ``O(k log n log log n)`` budget;
* :func:`find_waking_matrix_seed` — search seeds until one passes
  :func:`verify_matrix` with zero failures (the construct–verify–retry loop
  the paper's probabilistic argument implies succeeds after ``O(1)`` expected
  attempts);
* :class:`MatrixVerificationReport` — the structured outcome used by tests
  and the E7 experiment notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._util import RngLike, as_generator, validate_k_n
from repro.channel.adversary import (
    simultaneous_pattern,
    staggered_pattern,
    uniform_random_pattern,
    window_boundary_pattern,
)
from repro.channel.simulator import run_deterministic
from repro.channel.wakeup import WakeupPattern
from repro.core.lower_bounds import scenario_c_bound
from repro.core.scenario_c import WakeupProtocol
from repro.core.waking_matrix import HashedTransmissionMatrix, TransmissionMatrix, matrix_parameters

__all__ = [
    "MatrixVerificationReport",
    "adversarial_pattern_battery",
    "verify_matrix",
    "find_waking_matrix_seed",
]


@dataclass(frozen=True)
class MatrixVerificationReport:
    """Outcome of verifying one transmission matrix against a pattern battery.

    Attributes
    ----------
    n:
        Universe size.
    seed:
        Seed of the verified matrix (``None`` for explicit matrices).
    patterns_checked:
        Number of wake-up patterns exercised.
    failures:
        Patterns for which no isolation happened within the budget, as
        ``(k, first_wake, budget)`` tuples.
    worst_latency:
        The largest isolation latency observed across all passing patterns.
    budget_factor:
        The multiple of ``k log n log log n`` allowed before declaring failure.
    """

    n: int
    seed: Optional[int]
    patterns_checked: int
    failures: Tuple[Tuple[int, int, int], ...]
    worst_latency: int
    budget_factor: float

    @property
    def passed(self) -> bool:
        """True iff every pattern was isolated within its budget."""
        return not self.failures

    def describe(self) -> str:
        """One-line summary for reports."""
        status = "PASS" if self.passed else f"FAIL({len(self.failures)})"
        return (
            f"[{status}] waking-matrix verification: n={self.n}, seed={self.seed}, "
            f"{self.patterns_checked} patterns, worst latency {self.worst_latency}, "
            f"budget {self.budget_factor}x k·logn·loglogn"
        )


def adversarial_pattern_battery(
    n: int,
    *,
    ks: Sequence[int] = (1, 2, 4, 8),
    window_length: int = 1,
    patterns_per_k: int = 2,
    rng: RngLike = None,
) -> List[WakeupPattern]:
    """Build the battery of wake-up patterns used to stress a waking matrix.

    For every ``k`` the battery contains the simultaneous pattern, a
    one-slot-staggered pattern, the window-boundary adversary and
    ``patterns_per_k`` random patterns.
    """
    gen = as_generator(rng)
    battery: List[WakeupPattern] = []
    for k in ks:
        k, _ = validate_k_n(min(k, n), n)
        battery.append(simultaneous_pattern(n, k, rng=gen))
        battery.append(staggered_pattern(n, k, gap=1, rng=gen))
        battery.append(window_boundary_pattern(n, k, window_length=window_length, rng=gen))
        for _ in range(patterns_per_k):
            battery.append(uniform_random_pattern(n, k, window=max(4, 4 * k), rng=gen))
    return battery


def _check_budget_factor(budget_factor: float) -> None:
    # ``not >`` also rejects NaN, which compares false with everything.
    if not budget_factor > 0:
        raise ValueError(f"budget_factor must be > 0, got {budget_factor}")


def verify_matrix(
    matrix: TransmissionMatrix,
    *,
    ks: Sequence[int] = (1, 2, 4, 8),
    patterns_per_k: int = 2,
    budget_factor: float = 16.0,
    rng: RngLike = None,
) -> MatrixVerificationReport:
    """Check that the Scenario C protocol driven by ``matrix`` isolates quickly.

    For every pattern in the battery, the protocol must produce a successful
    slot within ``budget_factor * k log n log log n`` slots of the first
    wake-up.  The check goes through the full protocol (not only the
    matrix-level isolation predicate) so that it also covers the waiting rule
    and the row progression.  A ``budget_factor`` that is not positive
    raises :class:`ValueError`.
    """
    _check_budget_factor(budget_factor)
    n = matrix.n
    protocol = WakeupProtocol(n, matrix=matrix)
    battery = adversarial_pattern_battery(
        n, ks=ks, window_length=matrix.params.window, patterns_per_k=patterns_per_k, rng=rng
    )
    failures: List[Tuple[int, int, int]] = []
    worst_latency = 0
    for pattern in battery:
        budget = int(np.ceil(budget_factor * scenario_c_bound(n, pattern.k)))
        result = run_deterministic(protocol, pattern, max_slots=budget)
        if not result.solved:
            failures.append((pattern.k, pattern.first_wake, budget))
        else:
            worst_latency = max(worst_latency, result.require_solved())
    seed = getattr(matrix, "seed", None)
    return MatrixVerificationReport(
        n=n,
        seed=seed,
        patterns_checked=len(battery),
        failures=tuple(failures),
        worst_latency=worst_latency,
        budget_factor=budget_factor,
    )


def find_waking_matrix_seed(
    n: int,
    *,
    c: int = 2,
    window: Optional[int] = None,
    max_attempts: int = 8,
    ks: Sequence[int] = (1, 2, 4, 8),
    patterns_per_k: int = 2,
    budget_factor: float = 16.0,
    rng: RngLike = None,
) -> Tuple[int, MatrixVerificationReport]:
    """Search for a matrix seed whose verification report passes.

    The paper's union bound implies a random matrix is a waking matrix with
    probability close to one, so the expected number of attempts is O(1); the
    function raises if ``max_attempts`` seeds all fail (which indicates the
    budget is too tight rather than bad luck).

    Returns
    -------
    (seed, report):
        The first passing seed and its verification report.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    _check_budget_factor(budget_factor)
    gen = as_generator(rng)
    params = matrix_parameters(n, c=c, window=window)
    for _ in range(max_attempts):
        seed = int(gen.integers(0, 2**63 - 1))
        matrix = HashedTransmissionMatrix(params, seed=seed)
        report = verify_matrix(
            matrix,
            ks=ks,
            patterns_per_k=patterns_per_k,
            budget_factor=budget_factor,
            rng=gen,
        )
        if report.passed:
            return seed, report
    raise RuntimeError(
        f"no verified waking-matrix seed found for n={n} after {max_attempts} attempts; "
        f"last report: {report.describe()}"
    )
