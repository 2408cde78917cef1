"""Kautz–Singleton superimposed codes (k-cover-free families).

A binary code ``C = {c_1, ..., c_n}`` of length ``L`` is *k-superimposed*
(equivalently, the supports form a ``k``-cover-free family) if no codeword is
covered by the bit-wise OR of any ``k`` others.  Superimposed codes give
*strongly selective* families: reading the code column-wise, column ``t`` is
the set of stations whose codeword has a 1 in position ``t``; for any ``k+1``
stations and any designated one of them there is a column containing the
designated station and none of the other ``k``.

The classical construction (Kautz & Singleton, 1964) concatenates a
Reed–Solomon outer code with the identity inner code:

1. pick a prime ``q`` and degree ``d`` with ``q**(d+1) >= n`` and ``q >= k*d + 1``;
2. encode station ``u`` as the degree-``d`` polynomial ``p_u`` over GF(q)
   whose base-``q`` digits are ``u-1``;
3. the codeword of ``u`` is the indicator of the set
   ``{(x, p_u(x)) : x ∈ GF(q)}`` inside the ``q × q`` grid.

Two distinct polynomials of degree ``≤ d`` agree on at most ``d`` points, so a
codeword (weight ``q``) can share at most ``k·d < q`` positions with the union
of ``k`` others — the code is ``k``-superimposed.  Length is ``q²``.

All ``n`` polynomials are evaluated at all ``q`` points in one vectorized
Horner pass over an ``(n, q)`` integer array; every intermediate stays below
``q²``, so int64 arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro._util import ceil_log2, validate_k_n
from repro.combinatorics.primes import next_prime

__all__ = ["SuperimposedCode", "kautz_singleton_code", "code_to_set_family"]


@dataclass(frozen=True)
class SuperimposedCode:
    """A binary superimposed code, stored as a boolean matrix.

    Attributes
    ----------
    n:
        Number of codewords (stations).
    length:
        Code length ``L`` (number of columns when read as a set family).
    strength:
        The cover-freeness parameter ``k`` the construction targets.
    matrix:
        Boolean array of shape ``(n, length)``; row ``u-1`` is the codeword of
        station ``u``.
    q, degree:
        The Reed–Solomon parameters used (prime field size and polynomial
        degree); recorded for reporting and tests.
    """

    n: int
    length: int
    strength: int
    matrix: np.ndarray
    q: int
    degree: int

    def __post_init__(self) -> None:
        if self.matrix.shape != (self.n, self.length):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match (n, length)="
                f"({self.n}, {self.length})"
            )

    def codeword(self, station: int) -> np.ndarray:
        """Return the boolean codeword of ``station`` (1-based ID)."""
        if not 1 <= station <= self.n:
            raise ValueError(f"station must be in [1, {self.n}], got {station}")
        return self.matrix[station - 1]

    def weight(self, station: int) -> int:
        """Hamming weight of a codeword (always ``q`` for Kautz–Singleton)."""
        return int(self.codeword(station).sum())


def _ceil_root(n: int, exponent: int) -> int:
    """Smallest integer ``r >= 1`` with ``r ** exponent >= n``, found exactly.

    A floating-point ``ceil(n ** (1 / exponent))`` can round past an exact
    root (``3125 ** (1 / 5)`` is ``5.000000000000001``), so this bisects in
    integers.
    """
    low, high = 1, 1 << -(-n.bit_length() // exponent)
    while low < high:
        mid = (low + high) // 2
        if mid**exponent >= n:
            high = mid
        else:
            low = mid + 1
    return low


def _choose_parameters(n: int, k: int) -> Tuple[int, int]:
    """Choose Reed–Solomon parameters ``(q, degree)`` for a k-superimposed code.

    We need ``q**(degree+1) >= n`` (enough polynomials to give every station a
    distinct one) and ``q > k * degree`` (so k codewords cannot cover another).
    To keep the length ``q**2`` small we scan degrees and take the smallest
    resulting prime ``q``, the smallest degree on a tie.
    """
    best: Tuple[int, int] | None = None
    max_degree = max(1, ceil_log2(max(n, 2)))
    for degree in range(1, max_degree + 1):
        q = next_prime(max(_ceil_root(n, degree + 1), k * degree + 1, 2))
        if best is None or q < best[0]:
            best = (q, degree)
    assert best is not None
    return best


def kautz_singleton_code(n: int, k: int) -> SuperimposedCode:
    """Construct an explicit ``k``-superimposed code with ``n`` codewords.

    Parameters
    ----------
    n:
        Number of codewords (stations), ``n >= 1``.
    k:
        Cover-freeness strength: no codeword is covered by the union of any
        ``k`` others.  ``1 <= k <= n``.

    Returns
    -------
    SuperimposedCode
        Code of length ``q**2`` where ``q = O(k log_k n)``.
    """
    k, n = validate_k_n(k, n)
    if n == 1:
        return SuperimposedCode(
            n=1, length=1, strength=k, matrix=np.ones((1, 1), dtype=bool), q=1, degree=0
        )
    q, degree = _choose_parameters(n, k)
    # Base-q digits of u - 1, least significant first: the coefficients of p_u.
    digits = []
    rest = np.arange(n, dtype=np.int64)
    for _ in range(degree + 1):
        rest, digit = np.divmod(rest, q)
        digits.append(digit)
    # Horner's rule from the leading coefficient: acc[u, x] = p_u(x) mod q.
    x = np.arange(q, dtype=np.int64)
    acc = np.zeros((n, q), dtype=np.int64)
    for digit in reversed(digits):
        acc = (acc * x + digit[:, None]) % q
    length = q * q
    matrix = np.zeros((n, length), dtype=bool)
    matrix[np.arange(n)[:, None], x * q + acc] = True
    return SuperimposedCode(n=n, length=length, strength=k, matrix=matrix, q=q, degree=degree)


def code_to_set_family(code: SuperimposedCode):
    """Convert a superimposed code into a :class:`~repro.combinatorics.selectors.SetFamily`.

    Column ``t`` of the code becomes transmission set ``t``: the set of
    stations whose codeword has a 1 in that position.  Columns that are empty
    (no station selected) are dropped since they can never produce a
    successful transmission.
    """
    from repro.combinatorics.selectors import SetFamily

    # Column-major nonzeros: sets in column order, members ascending.
    columns, members = np.nonzero(code.matrix.T)
    counts = np.bincount(columns, minlength=code.length)
    offsets = np.cumsum(np.concatenate(([0], counts[counts > 0])))
    return SetFamily.from_csr(
        code.n,
        offsets,
        members + 1,
        label=f"superimposed({code.n},{code.strength})",
    )
