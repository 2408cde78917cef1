"""(n, k)-selective families: constructions and concatenation.

Following the paper (Section 3), an ``(n, k)``-selective family is a family
``F`` of subsets of ``[n]`` such that for every contender set ``X`` with
``k/2 <= |X| <= k`` some member of ``F`` intersects ``X`` in exactly one
element.  Komlós & Greenberg proved (non-constructively) that families of
length ``O(k + k log(n/k))`` exist; the paper's Scenario A/B algorithms use a
concatenation of ``(n, 2^j)``-selective families for ``j = 1, 2, ...``.

Every construction returns a plain
:class:`~repro.combinatorics.set_family.SetFamily`.  Two are provided:

``random``
    The probabilistic-method construction: each station joins each set
    independently with probability ``1/k``.  With the default length
    multiplier the family is selective with overwhelming probability, so it
    is drawn once and not checked; :mod:`repro.combinatorics.verification`
    checks a family when a caller wants to.  This is the construction the
    experiments use — it matches the existential ``O(k log(n/k))`` length
    that the paper's bounds are stated in.

``explicit``
    The Kautz–Singleton strongly-selective family
    :func:`~repro.combinatorics.selectors.strongly_selective_family` —
    deterministic, verification-free, but of length ``O(k² log²_k n)``.
    Used by experiment E8 to quantify the price of explicitness.
"""

from __future__ import annotations

import math
from typing import Literal, Sequence

import numpy as np

from repro._util import (
    RngLike,
    as_generator,
    ceil_log2,
    log2_safe,
    validate_k_n,
)
from repro.combinatorics.selectors import singleton_family, strongly_selective_family
from repro.combinatorics.set_family import SetFamily

__all__ = [
    "selective_family_target_length",
    "random_selective_family",
    "concatenated_families",
    "ConcatenatedFamilies",
    "concatenate_families",
]

#: Default length multiplier for the randomized construction.  The union-bound
#: calculation (see module docstring of the tests) shows a multiplier of ~5 is
#: enough for correctness with probability 1 - n^{-Ω(k)}; 6 leaves headroom.
DEFAULT_LENGTH_MULTIPLIER = 6.0

ConstructionMethod = Literal["random", "explicit"]

#: Uniform draws per RNG call of the random construction (512 KiB of doubles).
_DRAW_BLOCK_CELLS = 1 << 16


def selective_family_target_length(
    n: int, k: int, *, multiplier: float = DEFAULT_LENGTH_MULTIPLIER
) -> int:
    """Target length ``ceil(multiplier * k * (log2(n/k) + 1))``.

    With ``multiplier=1`` this is exactly the shape of the Komlós–Greenberg
    bound ``O(k + k log(n/k))``; the default multiplier is what the randomized
    construction needs for its union bound.
    """
    k, n = validate_k_n(k, n)
    if multiplier <= 0:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    return max(1, math.ceil(multiplier * k * (log2_safe(n / k) + 1.0)))


def random_selective_family(n: int, k: int, *, rng: RngLike = None) -> SetFamily:
    """Probabilistic-method construction of an ``(n, k)``-selective family.

    Each station joins each of ``selective_family_target_length(n, k)`` sets
    independently with probability ``1/k``, drawn from a generator seeded by
    one ``integers(0, 2**63 - 1)`` draw of ``rng``.  ``k == 1`` or ``n == 1``
    gives the singleton family, which is selective outright.
    """
    k, n = validate_k_n(k, n)
    if k == 1 or n == 1:
        return singleton_family(n)
    gen = as_generator(rng)
    length = selective_family_target_length(n, k)
    probability = 1.0 / k
    draw = np.random.default_rng(int(gen.integers(0, 2**63 - 1)))
    # One draw.random(n) per set, a block of sets per call: the same
    # stream, in the same order, with memory bounded by the block, not
    # L*n.  nonzero lists each set's members ascending, as CSR wants.
    block = max(1, _DRAW_BLOCK_CELLS // n)
    counts, members = [], []
    for first in range(0, length, block):
        rows = min(block, length - first)
        set_index, station = np.nonzero(draw.random((rows, n)) < probability)
        counts.append(np.bincount(set_index, minlength=rows))
        members.append(station + 1)
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return SetFamily.from_csr(
        n, offsets, np.concatenate(members), label=f"random-selective({n},{k})"
    )


def concatenated_families(
    n: int,
    max_k: int,
    *,
    method: ConstructionMethod = "random",
    rng: RngLike = None,
) -> "ConcatenatedFamilies":
    """Build the sequence of ``(n, 2^j)``-selective families for ``j = 1..⌈log max_k⌉``.

    This is the schedule skeleton of both ``select_among_the_first``
    (Section 3, with ``max_k = n``) and ``wait_and_go`` (Section 4, with
    ``max_k = k``).  The seed stream is split deterministically so the whole
    concatenation is reproducible from one seed.  The result is a
    :class:`ConcatenatedFamilies`, so protocols sharing it compile the
    concatenation once.
    """
    _, n = validate_k_n(1, n)
    max_k = min(max_k, n)
    gen = as_generator(rng)
    j_max = max(1, ceil_log2(max(2, max_k)))
    families = ConcatenatedFamilies()
    for j in range(1, j_max + 1):
        target_k = min(2**j, n)
        if method == "random":
            fam = random_selective_family(n, target_k, rng=gen)
        elif method == "explicit":
            fam = strongly_selective_family(n, target_k)
        else:
            raise ValueError(f"unknown construction method {method!r}")
        families.append(fam)
    return families


class ConcatenatedFamilies(list):
    """A list of :class:`~repro.combinatorics.set_family.SetFamily` that
    compiles its concatenation once.

    :attr:`combined` — the one family running the list back to back — is
    built on first access and kept, so every protocol handed the same
    sequence (see :class:`repro.experiments.cache.FamilyCache`) shares one
    array set and one station index.  Editing the list drops the compiled
    form.
    """

    @property
    def combined(self) -> SetFamily:
        """The compiled concatenation of the sequence."""
        members, compiled = self.__dict__.get("_compiled", (None, None))
        if members != tuple(self):
            compiled = SetFamily.concatenated(self)
            self.__dict__["_compiled"] = (tuple(self), compiled)
        return compiled


def concatenate_families(families: Sequence[SetFamily]) -> SetFamily:
    """The single :class:`SetFamily` that runs ``families`` back to back.

    A :class:`ConcatenatedFamilies` sequence hands over its compiled
    concatenation; any other sequence is concatenated afresh.
    """
    if not families:
        raise ValueError("need at least one selective family")
    if isinstance(families, ConcatenatedFamilies):
        return families.combined
    return SetFamily.concatenated(families)
