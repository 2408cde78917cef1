"""Tests for repro.combinatorics.superimposed (Kautz–Singleton codes)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.combinatorics.superimposed import (
    SuperimposedCode,
    code_to_set_family,
    kautz_singleton_code,
)


class TestKautzSingletonCode:
    def test_codeword_count_and_shape(self):
        code = kautz_singleton_code(n=20, k=2)
        assert code.n == 20
        assert code.matrix.shape == (20, code.length)
        assert code.length == code.q * code.q

    def test_constant_weight(self):
        code = kautz_singleton_code(n=30, k=3)
        for u in range(1, 31):
            assert code.weight(u) == code.q

    def test_codewords_distinct(self):
        code = kautz_singleton_code(n=40, k=2)
        rows = {tuple(row.tolist()) for row in code.matrix}
        assert len(rows) == 40

    def test_cover_freeness_exhaustive_small(self):
        # No codeword is covered by the union of any k=2 others.
        code = kautz_singleton_code(n=10, k=2)
        for target in range(10):
            others = [i for i in range(10) if i != target]
            for pair in combinations(others, 2):
                union = code.matrix[pair[0]] | code.matrix[pair[1]]
                assert not np.all(union[code.matrix[target]]), (target, pair)

    def test_parameters_satisfy_constraints(self):
        for n, k in [(16, 2), (100, 3), (64, 4), (257, 2)]:
            code = kautz_singleton_code(n=n, k=k)
            assert code.q ** (code.degree + 1) >= n
            assert code.q > k * code.degree

    def test_single_station_universe(self):
        code = kautz_singleton_code(n=1, k=1)
        assert code.length == 1
        assert code.matrix.shape == (1, 1)

    def test_codeword_validation(self):
        code = kautz_singleton_code(n=5, k=2)
        with pytest.raises(ValueError):
            code.codeword(0)
        with pytest.raises(ValueError):
            code.codeword(6)

    def test_mismatched_matrix_shape_rejected(self):
        with pytest.raises(ValueError):
            SuperimposedCode(
                n=2, length=3, strength=1, matrix=np.ones((2, 2), dtype=bool), q=2, degree=1
            )


class TestCodeToSetFamily:
    def test_column_sets_match_matrix(self):
        code = kautz_singleton_code(n=12, k=2)
        family = code_to_set_family(code)
        # Every station appears exactly `weight` = q times across the family.
        counts = {u: 0 for u in range(1, 13)}
        for s in family:
            for u in s:
                counts[u] += 1
        for u in range(1, 13):
            assert counts[u] == code.q

    def test_empty_columns_dropped(self):
        code = kautz_singleton_code(n=3, k=2)
        family = code_to_set_family(code)
        assert all(len(s) > 0 for s in family)
        assert family.length <= code.length


def _brute_force_parameters(n_max: int, k: int) -> dict:
    """``n -> (q, degree)`` for every ``n < n_max`` by scanning primes upward.

    For each degree, the smallest prime ``q > k * degree`` with
    ``q ** (degree + 1) >= n``; the smallest ``q`` over the degrees
    ``1..max(1, ceil(log2 n))`` wins, the smallest degree on a tie.
    """
    primes = [p for p in range(2, 400) if all(p % d for d in range(2, int(p**0.5) + 1))]
    max_degree = (n_max - 1).bit_length()
    first = {d: next(i for i, p in enumerate(primes) if p > k * d) for d in range(1, max_degree + 1)}
    pointer = dict(first)
    out = {}
    for n in range(1, n_max):
        best = None
        for d in range(1, max(1, (max(n, 2) - 1).bit_length()) + 1):
            while primes[pointer[d]] ** (d + 1) < n:
                pointer[d] += 1
            q = primes[pointer[d]]
            if best is None or q < best[0]:
                best = (q, d)
        out[n] = best
    return out


class TestChooseParameters:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_matches_brute_force_search(self, k):
        from repro.combinatorics.superimposed import _choose_parameters

        expected = _brute_force_parameters(20_000, k)
        got = {n: _choose_parameters(n, k) for n in expected}
        assert got == expected

    @pytest.mark.parametrize(
        "n, k, q, degree", [(3125, 1, 5, 4), (16807, 1, 7, 4), (1024, 1, 5, 4)]
    )
    def test_exact_roots_at_perfect_powers(self, n, k, q, degree):
        code = kautz_singleton_code(n, k)
        assert (code.q, code.degree) == (q, degree)
