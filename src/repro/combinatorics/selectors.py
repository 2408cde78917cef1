"""Set families, binary selectors and strongly selective families.

A *set family* over the universe ``[n] = {1..n}`` is simply an ordered list of
subsets; each subset is a *transmission set*: the stations allowed to transmit
in the corresponding time slot.  This is the representation shared by
selective families (Section 3 of the paper), the concatenated schedules of
``wait_and_go`` (Section 4), and each row of the transmission matrix
(Section 5).

The :class:`~repro.combinatorics.set_family.SetFamily` container itself lives
in :mod:`repro.combinatorics.set_family`.  This module provides a few
classical explicit constructions of it, used as baselines and as fallbacks
when the randomized constructions of :mod:`repro.core.selective` are not
wanted:

* :func:`singleton_family` — the round-robin family ``{1},{2},...,{n}``;
* :func:`binary_selector` — the bit-wise family that isolates any station out
  of *two* contenders (a ``(n, 2)``-selective family of length ``2⌈log n⌉``);
* :func:`strongly_selective_family` — an explicit ``(n, k)``-strongly-selective
  family built from a Kautz–Singleton superimposed code, of length
  ``O(k² log²_k n)`` (quadratically worse than the existential bound but fully
  constructive).
"""

from __future__ import annotations

import numpy as np

from repro._util import ceil_log2, validate_k_n, validate_positive_int
from repro.combinatorics.set_family import SetFamily, StationIndex
from repro.combinatorics.superimposed import code_to_set_family, kautz_singleton_code

__all__ = [
    "SetFamily",
    "StationIndex",
    "singleton_family",
    "binary_selector",
    "strongly_selective_family",
]


def singleton_family(n: int) -> SetFamily:
    """Return the round-robin family ``({1}, {2}, ..., {n})``.

    This is trivially an ``(n, k)``-selective family for every ``k`` and is the
    building block of the round-robin arm that the paper interleaves with the
    selective-family arm in Scenarios A and B.
    """
    n = validate_positive_int(n, "n")
    return SetFamily._trusted(
        n,
        np.arange(n + 1, dtype=np.int64),
        np.arange(1, n + 1, dtype=np.int64),
        f"round-robin({n})",
    )


def binary_selector(n: int) -> SetFamily:
    """Return the bit-selector family of length ``2 * ceil(log2 n)``.

    For each bit position ``b`` it contains the set of stations whose ID has
    bit ``b`` equal to 1, and the complementary set.  For any two distinct
    awake stations there is a bit on which they differ, hence a set containing
    exactly one of them: the family is ``(n, 2)``-selective.
    """
    n = validate_positive_int(n, "n")
    if n == 1:
        return SetFamily.from_csr(1, [0, 1], [1], label="binary-selector(1)")
    stations = np.arange(1, n + 1, dtype=np.int64)
    rows = []
    for b in range(ceil_log2(n)):
        bit = ((stations >> b) & 1).astype(bool)
        rows += [stations[bit], stations[~bit]]
    offsets = np.cumsum([0] + [row.size for row in rows])
    return SetFamily.from_csr(n, offsets, np.concatenate(rows), label=f"binary-selector({n})")


def strongly_selective_family(n: int, k: int) -> SetFamily:
    """Explicit ``(n, k)``-strongly-selective family via Kautz–Singleton codes.

    A family is *strongly selective* for ``k`` if for every subset ``X`` of at
    most ``k`` stations and every ``x ∈ X`` there is a set ``F`` with
    ``X ∩ F = {x}`` — every member of every small subset gets isolated, which
    is stronger than the paper's selectivity requirement (some member gets
    isolated).  Strong selectivity is what a ``(k-1)``-cover-free family
    provides, and Kautz–Singleton superimposed codes give an explicit one of
    length ``q²`` with ``q = O(k log_k n)``, i.e. ``O(k² log²_k n)``.

    The construction is deterministic and needs no verification, at the price
    of a quadratically longer family than the existential
    ``O(k log(n/k))`` bound; it is exposed both as a baseline for experiment
    E8 and as a fallback when deterministic explicitness matters more than
    length.
    """
    k, n = validate_k_n(k, n)
    if k == 1 or n == 1:
        return singleton_family(n)
    family = code_to_set_family(kautz_singleton_code(n=n, k=k))
    # Relabel without re-validating: the arrays are read-only and shared.
    return SetFamily._trusted(n, family.offsets, family.flat, f"kautz-singleton({n},{k})")
