"""Combinatorial substrate: primes, superimposed codes, selectors.

The deterministic algorithms in the paper are driven by combinatorial objects
— *(n, k)-selective families* and the *waking matrix*.  This subpackage
provides the raw building blocks used by :mod:`repro.core.selective` and
:mod:`repro.core.waking_matrix`:

* :mod:`repro.combinatorics.primes` — the primality test and next-prime
  search that size the Reed–Solomon field GF(q);
* :mod:`repro.combinatorics.superimposed` — Kautz–Singleton superimposed codes
  (k-cover-free families), which yield explicit strongly selective families;
  each station's polynomial over GF(q) is evaluated in one numpy pass;
* :mod:`repro.combinatorics.selectors` — binary selectors / strongly selective
  families and their conversions to the set-family representation;
* :mod:`repro.combinatorics.verification` — exhaustive and Monte-Carlo
  verification of selectivity and cover-freeness properties.
"""

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "is_prime": "repro.combinatorics.primes",
    "next_prime": "repro.combinatorics.primes",
    "SuperimposedCode": "repro.combinatorics.superimposed",
    "kautz_singleton_code": "repro.combinatorics.superimposed",
    "code_to_set_family": "repro.combinatorics.superimposed",
    "SetFamily": "repro.combinatorics.set_family",
    "binary_selector": "repro.combinatorics.selectors",
    "strongly_selective_family": "repro.combinatorics.selectors",
    "singleton_family": "repro.combinatorics.selectors",
    "is_selective_for": "repro.combinatorics.verification",
    "is_strongly_selective_for": "repro.combinatorics.verification",
    "is_cover_free": "repro.combinatorics.verification",
    "selectivity_violations": "repro.combinatorics.verification",
    "monte_carlo_selectivity": "repro.combinatorics.verification",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
