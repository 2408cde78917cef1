"""Tests for repro.combinatorics.primes."""

from __future__ import annotations

import pytest

from repro.combinatorics.primes import is_prime, next_prime


class TestIsPrime:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97, 101, 7919])
    def test_primes_recognized(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("x", [-5, 0, 1, 4, 6, 9, 15, 100, 7917])
    def test_composites_and_small_values_rejected(self, x):
        assert not is_prime(x)


class TestNextPrime:
    def test_next_prime_at_prime_is_identity(self):
        assert next_prime(13) == 13

    def test_next_prime_rounds_up(self):
        assert next_prime(14) == 17
        assert next_prime(90) == 97

    def test_next_prime_floor_at_two(self):
        assert next_prime(-10) == 2
        assert next_prime(0) == 2

