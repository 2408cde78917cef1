"""Tests for repro.core.selective (selective-family constructions)."""

from __future__ import annotations

import pytest

from repro._util import ceil_log2
from repro.combinatorics.verification import exhaustive_selectivity_check
from repro.core.selective import (
    concatenated_families,
    explicit_selective_family,
    random_selective_family,
    selective_family_target_length,
)


class TestTargetLength:
    def test_shape_of_the_target(self):
        # k * (log2(n/k) + 1) with multiplier 1.
        assert selective_family_target_length(64, 2, multiplier=1.0) == 2 * (5 + 1)
        assert selective_family_target_length(64, 64, multiplier=1.0) == 64 * 2

    def test_multiplier_scales_linearly(self):
        base = selective_family_target_length(128, 8, multiplier=1.0)
        assert selective_family_target_length(128, 8, multiplier=3.0) == 3 * base

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            selective_family_target_length(16, 2, multiplier=0)


class TestRandomSelectiveFamily:
    def test_metadata(self):
        fam = random_selective_family(32, 4, rng=0)
        assert fam.n == 32 and fam.k == 4
        assert fam.method == "random"
        assert fam.length == selective_family_target_length(32, 4)
        assert len(fam) == fam.length

    def test_reproducible_given_seed(self):
        a = random_selective_family(32, 4, rng=7)
        b = random_selective_family(32, 4, rng=7)
        assert a.family.sets == b.family.sets

    def test_k_one_is_singleton_family(self):
        fam = random_selective_family(16, 1, rng=0)
        assert fam.method == "singleton"
        assert fam.length == 16

    def test_exhaustive_verification_small_instance(self):
        fam = random_selective_family(10, 4, rng=3, verification="exhaustive")
        assert fam.verified == "exhaustive"
        assert exhaustive_selectivity_check(fam.family, 4)

    def test_monte_carlo_verification(self):
        fam = random_selective_family(64, 8, rng=3, verification="monte-carlo")
        assert fam.verified == "monte-carlo"

    def test_exhaustive_verification_guard(self):
        with pytest.raises(ValueError):
            random_selective_family(256, 32, rng=0, verification="exhaustive")

    def test_unknown_verification_mode(self):
        with pytest.raises(ValueError):
            random_selective_family(16, 4, rng=0, verification="bogus")

    def test_selects_random_contender_sets(self, rng):
        fam = random_selective_family(64, 8, rng=1)
        for _ in range(50):
            size = int(rng.integers(4, 9))
            contenders = rng.choice(64, size=size, replace=False) + 1
            assert fam.selects(contenders.tolist())


class TestExplicitSelectiveFamily:
    def test_construction_and_metadata(self):
        fam = explicit_selective_family(32, 4)
        assert fam.method == "explicit"
        assert fam.verified == "constructive"

    @pytest.mark.parametrize(("n", "k"), [(8, 2), (8, 4), (12, 3), (16, 4)])
    def test_is_exhaustively_selective(self, n, k):
        fam = explicit_selective_family(n, k)
        assert (fam.n, fam.k) == (n, k)
        assert exhaustive_selectivity_check(fam.family, k)

    def test_is_selective_on_samples(self, rng):
        fam = explicit_selective_family(32, 4)
        for _ in range(30):
            size = int(rng.integers(2, 5))
            contenders = rng.choice(32, size=size, replace=False) + 1
            assert fam.selects(contenders.tolist())


class TestConcatenatedFamilies:
    def test_number_of_families(self):
        fams = concatenated_families(64, 16, rng=0)
        assert len(fams) == ceil_log2(16)
        assert [f.k for f in fams] == [2, 4, 8, 16]

    def test_max_k_capped_at_n(self):
        fams = concatenated_families(8, 100, rng=0)
        assert fams[-1].k == 8

    def test_reproducible(self):
        a = concatenated_families(32, 8, rng=5)
        b = concatenated_families(32, 8, rng=5)
        assert all(x.family.sets == y.family.sets for x, y in zip(a, b))

    def test_lengths_grow_with_k(self):
        fams = concatenated_families(128, 64, rng=0)
        lengths = [f.length for f in fams]
        assert lengths == sorted(lengths)

    @pytest.mark.parametrize("n", [8, 12])
    def test_explicit_method(self, n):
        fams = concatenated_families(n, n, method="explicit")
        assert [f.k for f in fams] == [min(2**j, n) for j in range(1, ceil_log2(n) + 1)]
        for fam in fams:
            assert fam.method == "explicit"
            assert exhaustive_selectivity_check(fam.family, fam.k)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            concatenated_families(16, 4, method="nope")

    def test_describe(self):
        fam = random_selective_family(16, 4, rng=0)
        assert "n=16" in fam.describe() and "k=4" in fam.describe()
