"""Shape checks: who wins a comparison between algorithms.

Several of the paper's statements are *comparative* rather than absolute:

* the round-robin arm beats the selective arm once ``k`` exceeds a constant
  fraction of ``n`` (that is why the Scenario A/B algorithms interleave);
* Scenario C pays a ``log n log log n / log(n/k)`` factor over Scenarios A/B;
* deterministic algorithms lose to tuned randomized ones on expectation but
  never exceed their worst-case bound.

This module provides the comparison utility the experiment harness uses to
turn such statements into table columns.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["who_wins"]


def who_wins(results: Dict[str, float]) -> Tuple[str, float]:
    """Return the name and value of the smallest entry (ties: lexicographically first)."""
    if not results:
        raise ValueError("results must be non-empty")
    winner = min(sorted(results), key=lambda name: results[name])
    return winner, results[winner]
