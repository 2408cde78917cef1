"""Tests for repro.combinatorics.selectors (SetFamily and explicit constructions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.combinatorics.selectors import (
    SetFamily,
    binary_selector,
    singleton_family,
    strongly_selective_family,
)
from repro.combinatorics.verification import (
    is_selective_for,
    is_strongly_selective_for,
)


class TestSetFamily:
    def test_rejects_out_of_range_station(self):
        with pytest.raises(ValueError):
            SetFamily(4, (frozenset({5}),))
        with pytest.raises(ValueError):
            SetFamily(4, (frozenset({0}),))

    def test_length_and_indexing(self):
        fam = SetFamily(4, (frozenset({1}), frozenset({2, 3})))
        assert len(fam) == 2
        assert fam.length == 2
        assert fam[1] == frozenset({2, 3})
        assert fam.contains(2, 1)
        assert not fam.contains(4, 1)

    def test_membership_matrix_shape_and_content(self):
        fam = SetFamily(4, (frozenset({1, 3}), frozenset({2})))
        mat = fam.membership_matrix()
        assert mat.shape == (2, 4)
        assert mat[0].tolist() == [True, False, True, False]
        assert mat[1].tolist() == [False, True, False, False]

    def test_concatenate(self):
        a = SetFamily(4, (frozenset({1}),), label="a")
        b = SetFamily(4, (frozenset({2}),), label="b")
        c = SetFamily.concatenated([a, b])
        assert c.length == 2
        assert c.sets == (frozenset({1}), frozenset({2}))

    def test_concatenate_rejects_mismatched_universe(self):
        a = SetFamily(4, (frozenset({1}),))
        b = SetFamily(5, (frozenset({2}),))
        with pytest.raises(ValueError):
            SetFamily.concatenated([a, b])


class TestSingletonFamily:
    def test_is_round_robin(self):
        fam = singleton_family(5)
        assert fam.length == 5
        assert fam.sets == tuple(frozenset({u}) for u in range(1, 6))

    def test_selective_for_any_subset(self):
        fam = singleton_family(8)
        assert is_selective_for(fam, [3, 5, 7])
        assert is_strongly_selective_for(fam, [1, 2, 3, 4, 5, 6, 7, 8])


class TestBinarySelector:
    def test_length(self):
        assert binary_selector(8).length == 2 * 3
        assert binary_selector(9).length == 2 * 4
        assert binary_selector(1).length == 1

    def test_selects_any_pair(self):
        fam = binary_selector(16)
        for a in range(1, 17):
            for b in range(a + 1, 17):
                assert is_selective_for(fam, [a, b]), (a, b)

    def test_every_station_appears(self):
        fam = binary_selector(10)
        appearing = set()
        for s in fam:
            appearing |= s
        assert appearing == set(range(1, 11))


class TestStronglySelectiveFamily:
    def test_small_instance_is_strongly_selective(self):
        fam = strongly_selective_family(12, 3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            size = int(rng.integers(1, 4))
            subset = rng.choice(12, size=size, replace=False) + 1
            assert is_strongly_selective_for(fam, subset.tolist())

    def test_k_equal_one_falls_back_to_singletons(self):
        fam = strongly_selective_family(6, 1)
        assert fam.length == 6

    def test_universe_of_one(self):
        fam = strongly_selective_family(1, 1)
        assert fam.length == 1
        assert fam.contains(1, 0)
