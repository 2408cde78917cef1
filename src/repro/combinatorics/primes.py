"""Prime number utilities for explicit combinatorial constructions.

The Kautz–Singleton superimposed code works over a prime field GF(q) whose
size ``q`` must be a prime of a prescribed size.  The sizes involved are tiny
by number-theoretic standards (at most a few thousand for any realistic
channel size ``n``), so trial division is both adequate and easy to verify.
"""

from __future__ import annotations

__all__ = ["is_prime", "next_prime"]


def is_prime(x: int) -> bool:
    """Return ``True`` iff ``x`` is a prime number.

    Deterministic trial division; intended for the small values (≲ 10**6)
    arising in code constructions, where it is plenty fast.
    """
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    i = 3
    while i * i <= x:
        if x % i == 0:
            return False
        i += 2
    return True


def next_prime(x: int) -> int:
    """Return the smallest prime ``p >= x`` (``x`` may be any integer)."""
    candidate = max(2, int(x))
    while not is_prime(candidate):
        candidate += 1
    return candidate
