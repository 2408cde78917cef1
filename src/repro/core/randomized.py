"""Randomized wake-up protocols (Section 6 of the paper).

The paper's Section 6 surveys the randomized landscape to position the
deterministic results:

* **Repeated Probability Decrease (RPD)** — Jurdziński & Stachowiak's
  algorithm for the globally synchronous model with known ``n``: transmission
  probabilities sweep down geometrically ``1/2, 1/4, ..., 1/ℓ`` and repeat,
  with period ``⌈log ℓ⌉``; when the current probability is close to ``1/k``
  (``k`` = number of awake stations) a slot succeeds with constant
  probability, giving expected ``O(log n)`` latency — or ``O(log k)`` when
  ``k`` is known and the sweep is capped at ``ℓ = 2^⌈log k⌉``.

  The paper writes the transmission probability as ``2^(−1−σ mod ℓ)`` with
  ``ℓ = 2^⌈log n⌉``; we implement the standard reading of RPD in which the
  *exponent* cycles with period ``⌈log₂ ℓ⌉`` (probabilities
  ``2^-1 .. 2^-⌈log ℓ⌉``), which is the variant whose expected latency is
  ``O(log n)`` / ``O(log k)`` as quoted.

* :class:`DecayPolicy` — the classical Decay strategy (equivalent sweep but
  restarted relative to the global clock phase), kept as an ablation variant.

* :class:`FixedProbabilityPolicy` — slotted-ALOHA-style constant probability,
  the textbook strawman: optimal only when the probability happens to be
  ``≈ 1/k``.

The Kushilevitz–Mansour ``Ω(log k)`` expected-time lower bound that all of
these are compared against lives in :mod:`repro.core.lower_bounds`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._util import ceil_log2, validate_k_n, validate_positive_int
from repro.channel.protocols import RandomizedPolicy, StationState, zero_before_wake

__all__ = ["RepeatedProbabilityDecrease", "DecayPolicy", "FixedProbabilityPolicy"]


class RepeatedProbabilityDecrease(RandomizedPolicy):
    """RPD: probability ``2^{-(1 + (t mod period))}`` at global slot ``t``.

    Parameters
    ----------
    n:
        Universe size (known to every station).
    k:
        Optional known bound on the number of contenders.  When given, the
        sweep is capped at ``⌈log₂ k⌉`` — the Scenario B optimization that
        achieves expected ``O(log k)``; when omitted the cap is ``⌈log₂ n⌉``.

    Notes
    -----
    Because the clock is global, all awake stations use the *same* probability
    in every slot, which is what makes the constant-success-probability
    argument work when ``2^{-(1+phase)} ≈ 1/k_awake``.
    """

    name = "rpd"

    def __init__(self, n: int, *, k: Optional[int] = None) -> None:
        super().__init__(n)
        if k is not None:
            k, _ = validate_k_n(k, n)
            self.k = k
            cap = max(1, ceil_log2(max(2, k)))
        else:
            self.k = None
            cap = max(1, ceil_log2(max(2, n)))
        #: Length of the probability sweep (number of distinct exponents).
        self.period = cap

    def transmit_probability(self, state: StationState, slot: int) -> float:
        phase = slot % self.period
        return 2.0 ** (-(1 + phase))

    def transmit_probability_matrix(self, stations, wakes, start, stop) -> np.ndarray:
        # The sweep is a pure function of the global slot: one row of
        # probabilities broadcast to every pair, zeroed before wake-up.
        # ldexp(1, -e) == 2^-e exactly for every exponent in the sweep.
        slots = np.arange(int(start), int(stop), dtype=np.int64)
        row = np.ldexp(1.0, -(1 + (slots % self.period)))
        matrix = np.broadcast_to(row, (len(stations), slots.size)).copy()
        return zero_before_wake(matrix, slots, wakes)

    def describe(self) -> str:
        known = f", k={self.k}" if self.k is not None else ""
        return f"{self.name}(n={self.n}{known}, period={self.period})"


class DecayPolicy(RandomizedPolicy):
    """Decay: the probability sweep restarts at each station's own wake-up.

    Identical sweep to RPD but phased by ``slot - wake_time`` instead of the
    global slot, so stations that woke at different times use *different*
    probabilities in the same slot.  Kept as an ablation: it demonstrates why
    the global clock matters for the ``O(log n)`` expectation (mis-phased
    sweeps dilute the constant success probability).
    """

    name = "decay"

    def __init__(self, n: int, *, period: Optional[int] = None) -> None:
        super().__init__(n)
        self.period = period if period is not None else max(1, ceil_log2(max(2, n)))
        validate_positive_int(self.period, "period")

    def transmit_probability(self, state: StationState, slot: int) -> float:
        phase = (slot - state.wake_time) % self.period
        return 2.0 ** (-(1 + phase))

    def transmit_probability_matrix(self, stations, wakes, start, stop) -> np.ndarray:
        # Closed-form in (slot, wake_time): the sweep phase only depends on
        # the wake time modulo the period, so the matrix is a row gather from
        # a (period × slots) table — one pass over the output instead of a
        # broadcast subtract, modulo and power.
        slots = np.arange(int(start), int(stop), dtype=np.int64)
        wakes = np.asarray(wakes, dtype=np.int64)
        residues = np.arange(self.period, dtype=np.int64)
        table = np.ldexp(
            1.0, -(1 + (slots[None, :] - residues[:, None]) % self.period)
        )
        matrix = table[wakes % self.period]
        return zero_before_wake(matrix, slots, wakes)

    def describe(self) -> str:
        return f"{self.name}(n={self.n}, period={self.period})"


class FixedProbabilityPolicy(RandomizedPolicy):
    """Slotted-ALOHA-style policy: transmit with a fixed probability ``p`` every slot."""

    name = "fixed-probability"

    def __init__(self, n: int, p: float) -> None:
        super().__init__(n)
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        self.p = float(p)

    def transmit_probability(self, state: StationState, slot: int) -> float:
        return self.p

    def transmit_probability_matrix(self, stations, wakes, start, stop) -> np.ndarray:
        slots = np.arange(int(start), int(stop), dtype=np.int64)
        matrix = np.full((len(stations), slots.size), self.p, dtype=np.float64)
        return zero_before_wake(matrix, slots, wakes)

    def describe(self) -> str:
        return f"{self.name}(n={self.n}, p={self.p})"
