"""Combinatorial substrate: primes, finite fields, superimposed codes, selectors.

The deterministic algorithms in the paper are driven by combinatorial objects
— *(n, k)-selective families* and the *waking matrix*.  This subpackage
provides the raw building blocks used by :mod:`repro.core.selective` and
:mod:`repro.core.waking_matrix`:

* :mod:`repro.combinatorics.primes` — prime sieves and prime-power search used
  by explicit constructions;
* :mod:`repro.combinatorics.finite_field` — arithmetic in prime fields GF(p)
  and polynomial evaluation used by Reed–Solomon style codes;
* :mod:`repro.combinatorics.superimposed` — Kautz–Singleton superimposed codes
  (k-cover-free families), which yield explicit strongly selective families;
* :mod:`repro.combinatorics.selectors` — binary selectors / strongly selective
  families and their conversions to the set-family representation;
* :mod:`repro.combinatorics.verification` — exhaustive and Monte-Carlo
  verification of selectivity and cover-freeness properties.
"""

from repro.combinatorics.primes import (
    is_prime,
    next_prime,
    next_prime_power,
    primes_up_to,
    prime_factors,
)
from repro.combinatorics.finite_field import PrimeField, Polynomial
from repro.combinatorics.superimposed import (
    SuperimposedCode,
    kautz_singleton_code,
    code_to_set_family,
)
from repro.combinatorics.selectors import (
    SetFamily,
    binary_selector,
    strongly_selective_family,
    singleton_family,
)
from repro.combinatorics.verification import (
    is_selective_for,
    is_strongly_selective_for,
    is_cover_free,
    selectivity_violations,
    monte_carlo_selectivity,
)

__all__ = [
    "is_prime",
    "next_prime",
    "next_prime_power",
    "primes_up_to",
    "prime_factors",
    "PrimeField",
    "Polynomial",
    "SuperimposedCode",
    "kautz_singleton_code",
    "code_to_set_family",
    "SetFamily",
    "binary_selector",
    "strongly_selective_family",
    "singleton_family",
    "is_selective_for",
    "is_strongly_selective_for",
    "is_cover_free",
    "selectivity_violations",
    "monte_carlo_selectivity",
]
