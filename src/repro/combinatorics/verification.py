"""Verification of selectivity and cover-freeness properties.

The paper's algorithms rest on combinatorial properties that our randomized
constructions only satisfy with high probability, so this module provides the
checking machinery used by :mod:`repro.core.selective` (construct–verify–retry
loops), by the test suite, and by experiment E8:

* :func:`is_selective_for` — exact check of the paper's selectivity property
  for a single contender set ``X``;
* :func:`selectivity_violations` — exhaustive search for violating sets of a
  given size range (feasible for small ``n``/``k``);
* :func:`monte_carlo_selectivity` — sampled estimate of the violation rate for
  larger instances;
* :func:`is_strongly_selective_for` / :func:`is_cover_free` — the stronger
  properties guaranteed by explicit superimposed-code constructions.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro._util import RngLike, as_generator, ragged_arange, validate_k_n
from repro.combinatorics.selectors import SetFamily

__all__ = [
    "is_selective_for",
    "hits_exactly_one",
    "selectivity_violations",
    "exhaustive_selectivity_check",
    "monte_carlo_selectivity",
    "is_strongly_selective_for",
    "is_cover_free",
]

#: Contender sets checked per vectorized pass of an exhaustive search.
_CHUNK = 4096


def hits_exactly_one(family: SetFamily, contenders: Iterable[int]) -> Optional[int]:
    """Return the index of the first set intersecting ``contenders`` in exactly one element.

    Returns ``None`` when no such set exists.  This is the basic "isolation"
    event: the slot at which exactly one awake station transmits.
    """
    _, slots = _grants(family, _members(contenders))
    hits = np.flatnonzero(np.bincount(slots, minlength=family.length) == 1)
    return int(hits[0]) if hits.size else None


def _members(contenders: Iterable[int]) -> np.ndarray:
    """The distinct contender IDs, ascending."""
    return np.unique(np.fromiter((int(x) for x in contenders), dtype=np.int64))


def _grants(family: SetFamily, members: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every transmit grant of ``members``: ``(position in members, set index)``.

    Read off the family's station index, so the cost is the members'
    memberships, not the whole family's.  IDs outside ``[1, n]`` belong to
    no set.
    """
    index = family.station_index()
    inside = np.flatnonzero((members >= 1) & (members <= family.n))
    lo = index.ptr[members[inside]]
    counts = index.ptr[members[inside] + 1] - lo
    slots = index.slots[np.repeat(lo, counts) + ragged_arange(counts)]
    return np.repeat(inside, counts), slots


def _selects_each(family: SetFamily, contender_sets: np.ndarray) -> np.ndarray:
    """Vectorized :func:`is_selective_for` over the rows of a 2-D array.

    Each row holds one contender set of distinct IDs.
    """
    rows, size = contender_sets.shape
    length = family.length
    selected = np.zeros(rows, dtype=bool)
    if not length:
        return selected
    pos, slots = _grants(family, contender_sets.ravel())
    keys, hits = np.unique((pos // size) * length + slots, return_counts=True)
    selected[keys[hits == 1] // length] = True
    return selected


def is_selective_for(family: SetFamily, contenders: Iterable[int]) -> bool:
    """Return True iff some set of ``family`` intersects ``contenders`` in exactly one element."""
    return hits_exactly_one(family, contenders) is not None


def selectivity_violations(
    family: SetFamily,
    k: int,
    *,
    min_size: Optional[int] = None,
    max_sets: Optional[int] = None,
) -> List[Tuple[int, ...]]:
    """Exhaustively find contender sets that the family fails to select.

    Checks every subset ``X ⊆ [n]`` with ``min_size <= |X| <= k`` (the paper's
    definition uses ``k/2 <= |X| <= k``; pass ``min_size=k//2`` — the default —
    to match it).  Exponential in ``n``; intended for the small instances used
    in unit tests.

    Parameters
    ----------
    family:
        Candidate family.
    k:
        Upper bound of the contender-set size range.
    min_size:
        Lower bound of the range (defaults to ``max(1, k // 2)``).
    max_sets:
        If given, stop after collecting this many violations.

    Returns
    -------
    list of tuples
        Each violating contender set, as a sorted tuple of station IDs.
    """
    k, n = validate_k_n(k, family.n)
    lo = max(1, k // 2) if min_size is None else max(1, min_size)
    violations: List[Tuple[int, ...]] = []
    universe = range(1, n + 1)
    for size in range(lo, k + 1):
        subsets = combinations(universe, size)
        while chunk := list(islice(subsets, _CHUNK)):
            batch = np.array(chunk, dtype=np.int64)
            for row in np.flatnonzero(~_selects_each(family, batch)):
                violations.append(chunk[row])
                if max_sets is not None and len(violations) >= max_sets:
                    return violations
    return violations


def exhaustive_selectivity_check(family: SetFamily, k: int) -> bool:
    """Return True iff ``family`` is an ``(n, k)``-selective family (exact check).

    Uses the paper's definition: for every ``X`` with ``k/2 <= |X| <= k`` some
    set intersects ``X`` in exactly one element.  Exponential; use only for
    small ``n``.
    """
    return not selectivity_violations(family, k, max_sets=1)


def monte_carlo_selectivity(
    family: SetFamily,
    k: int,
    *,
    trials: int = 1000,
    rng: RngLike = None,
    min_size: Optional[int] = None,
) -> float:
    """Estimate the fraction of random contender sets that the family selects.

    Samples ``trials`` subsets with sizes uniform in ``[min_size, k]`` (default
    ``[max(1, k//2), k]``) and members uniform without replacement, and returns
    the fraction for which the selectivity property holds.  A correct selective
    family returns 1.0; randomized constructions that have not been verified
    may return slightly less.
    """
    k, n = validate_k_n(k, family.n)
    lo = max(1, k // 2) if min_size is None else max(1, min_size)
    if lo > k:
        raise ValueError(f"min_size {lo} exceeds k {k}")
    gen = as_generator(rng)
    # Draw every trial first (same stream as one draw per check), then check
    # the trials of each contender-set size in one vectorized pass.
    by_size: dict = {}
    for _ in range(trials):
        size = int(gen.integers(lo, k + 1))
        size = min(size, n)
        by_size.setdefault(size, []).append(gen.choice(n, size=size, replace=False) + 1)
    successes = sum(
        int(np.count_nonzero(_selects_each(family, np.array(draws))))
        for draws in by_size.values()
    )
    return successes / trials


def is_strongly_selective_for(family: SetFamily, contenders: Iterable[int]) -> bool:
    """Return True iff *every* contender is isolated by some set of the family.

    Strong selectivity means: for every ``x`` in the contender set ``X`` there
    exists a set ``F`` with ``X ∩ F = {x}``.  Explicit superimposed-code
    constructions guarantee this for all ``|X| <= k + 1``.
    """
    members = _members(contenders)
    pos, slots = _grants(family, members)
    isolating = np.bincount(slots, minlength=family.length)[slots] == 1
    return np.array_equal(np.unique(members[pos[isolating]]), members)


def is_cover_free(family: SetFamily, k: int, *, exhaustive_limit: int = 2**16) -> bool:
    """Check the k-cover-freeness of the *dual* code of a set family.

    Interpreting the family as a code (station ``u``'s codeword is its
    membership vector across sets), the family is ``k``-cover-free iff no
    codeword is covered by the union of any ``k`` others.  The check is
    exhaustive over all ``(k+1)``-subsets and is guarded by
    ``exhaustive_limit`` on the number of subsets examined.
    """
    k, n = validate_k_n(k, family.n)
    matrix = family.membership_matrix()  # (length, n) boolean
    codewords = matrix.T  # (n, length)
    from math import comb

    total = comb(n, 1) * comb(n - 1, min(k, n - 1)) if n > 1 else 1
    if total > exhaustive_limit:
        raise ValueError(
            f"exhaustive cover-freeness check would examine ~{total} subsets, "
            f"exceeding exhaustive_limit={exhaustive_limit}"
        )
    stations = list(range(n))
    for target in stations:
        others = [s for s in stations if s != target]
        for cover in combinations(others, min(k, len(others))):
            union = np.zeros(codewords.shape[1], dtype=bool)
            for c in cover:
                union |= codewords[c]
            if bool(np.all(union[codewords[target]])):
                return False
    return True
