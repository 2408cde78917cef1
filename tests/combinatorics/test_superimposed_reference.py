"""The vectorized Kautz–Singleton code against a scalar Reed–Solomon reference.

:func:`~repro.combinatorics.superimposed.kautz_singleton_code` evaluates every
station's polynomial in one numpy Horner pass.  These tests rebuild the code
one station and one point at a time, from the power-sum form
``p_u(x) = sum_i c_i x^i mod q`` rather than Horner's rule, and pick
``(q, degree)`` by brute force, so neither oracle shares code with the
implementation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import ceil_log2
from repro.combinatorics.primes import is_prime
from repro.combinatorics.superimposed import kautz_singleton_code

#: The E8 explicit cells, the larger strengths E8 does not build, the k = 1
#: edge, and a few universe sizes that are not powers of two.
SHAPES = sorted(
    {(n, k) for n in (64, 128, 256, 512, 1024, 2048) for k in (2, 4, 8)}
    | {(n, k) for n in (256, 2048) for k in (16, 32, 64)}
    | {(2, 1), (3, 2), (10, 2), (64, 1), (100, 3), (257, 2), (999, 5), (2048, 1)}
)


def _reference_matrix(n: int, q: int, degree: int) -> np.ndarray:
    """Row ``u - 1`` marks ``(x, p_u(x))`` for every ``x`` in GF(q)."""
    matrix = np.zeros((n, q * q), dtype=bool)
    for u in range(n):
        coeffs = [(u // q**i) % q for i in range(degree + 1)]
        for x in range(q):
            y = sum(c * pow(x, i, q) for i, c in enumerate(coeffs)) % q
            matrix[u, x * q + y] = True
    return matrix


def _reference_parameters(n: int, k: int) -> tuple[int, int]:
    """Smallest ``q * q`` over the degrees scanned; ties go to the lower degree."""
    best = None
    for degree in range(1, max(1, ceil_log2(max(n, 2))) + 1):
        q = max(2, k * degree + 1)
        while not (is_prime(q) and q ** (degree + 1) >= n):
            q += 1
        if best is None or q < best[0]:
            best = (q, degree)
    return best


@pytest.mark.parametrize(("n", "k"), SHAPES)
def test_matrix_matches_scalar_reference(n, k):
    code = kautz_singleton_code(n, k)
    assert code.matrix.dtype == np.bool_
    assert np.array_equal(code.matrix, _reference_matrix(n, code.q, code.degree))


@pytest.mark.parametrize(("n", "k"), SHAPES)
def test_parameters_match_brute_force(n, k):
    code = kautz_singleton_code(n, k)
    assert (code.q, code.degree) == _reference_parameters(n, k)
    assert code.length == code.q**2


@given(
    n=st.integers(min_value=2, max_value=300),
    k=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_codewords_agree_on_at_most_degree_positions(n, k):
    # Two distinct polynomials of degree <= d agree on at most d points, and
    # every codeword has exactly one 1 in each of the q blocks of q columns.
    k = min(k, n)
    code = kautz_singleton_code(n, k)
    q = code.q
    assert (code.matrix.reshape(n, q, q).sum(axis=2) == 1).all()
    rows = code.matrix.astype(np.int64)
    overlap = rows @ rows.T
    np.fill_diagonal(overlap, 0)
    assert overlap.max() <= code.degree < q / k
