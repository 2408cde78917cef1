"""Tests for repro.core.selective (selective-family constructions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import ceil_log2
from repro.combinatorics.selectors import singleton_family, strongly_selective_family
from repro.combinatorics.set_family import SetFamily
from repro.combinatorics.verification import (
    exhaustive_selectivity_check,
    is_selective_for,
)
from repro.core.selective import (
    ConcatenatedFamilies,
    concatenate_families,
    concatenated_families,
    random_selective_family,
    selective_family_target_length,
)


def _row_by_row(n, k, seed):
    """The random construction's sets drawn one ``random(n)`` call per set."""
    draw = np.random.default_rng(seed)
    length = selective_family_target_length(n, k)
    return tuple(
        frozenset((np.nonzero(draw.random(n) < 1.0 / k)[0] + 1).tolist())
        for _ in range(length)
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
    def test_set_family_of_target_length(self):
        fam = random_selective_family(32, 4, rng=0)
        assert isinstance(fam, SetFamily)
        assert fam.n == 32 and fam.label == "random-selective(32,4)"
        assert fam.length == selective_family_target_length(32, 4)
        assert len(fam) == fam.length

    def test_reproducible_given_seed(self):
        a = random_selective_family(32, 4, rng=7)
        b = random_selective_family(32, 4, rng=7)
        assert a.sets == b.sets

    def test_k_one_is_singleton_family(self):
        fam = random_selective_family(16, 1, rng=0)
        assert fam == singleton_family(16)

    def test_draws_one_seed_from_the_caller_stream(self):
        gen = np.random.default_rng(5)
        fam = random_selective_family(64, 8, rng=gen)
        ref = np.random.default_rng(5)
        seed = int(ref.integers(0, 2**63 - 1))
        assert gen.bit_generator.state == ref.bit_generator.state
        assert fam.sets == _row_by_row(64, 8, seed)

    def test_k_one_leaves_the_caller_stream_untouched(self):
        gen = np.random.default_rng(9)
        random_selective_family(16, 1, rng=gen)
        assert gen.bit_generator.state == np.random.default_rng(9).bit_generator.state

    def test_blocked_draw_equals_one_set_at_a_time(self):
        # n = 1024 draws 64 sets per block, so k = 32 (1152 sets) spans many.
        seed = int(np.random.default_rng(2).integers(0, 2**63 - 1))
        fam = random_selective_family(1024, 32, rng=2)
        assert fam.sets == _row_by_row(1024, 32, seed)

    def test_small_instance_is_exhaustively_selective(self):
        assert exhaustive_selectivity_check(random_selective_family(10, 4, rng=3), 4)

    def test_selects_random_contender_sets(self, rng):
        fam = random_selective_family(64, 8, rng=1)
        for _ in range(50):
            size = int(rng.integers(4, 9))
            contenders = rng.choice(64, size=size, replace=False) + 1
            assert is_selective_for(fam, contenders.tolist())


class TestExplicitSelectiveFamily:
    @pytest.mark.parametrize(("n", "k"), [(8, 2), (8, 4), (12, 3), (16, 4)])
    def test_is_exhaustively_selective(self, n, k):
        fam = strongly_selective_family(n, k)
        assert fam.n == n
        assert exhaustive_selectivity_check(fam, k)

    def test_is_selective_on_samples(self, rng):
        fam = strongly_selective_family(32, 4)
        for _ in range(30):
            size = int(rng.integers(2, 5))
            contenders = rng.choice(32, size=size, replace=False) + 1
            assert is_selective_for(fam, contenders.tolist())


class TestConcatenatedFamilies:
    def test_number_of_families(self):
        fams = concatenated_families(64, 16, rng=0)
        assert len(fams) == ceil_log2(16)
        assert [f.length for f in fams] == [
            selective_family_target_length(64, k) for k in (2, 4, 8, 16)
        ]

    def test_max_k_capped_at_n(self):
        fams = concatenated_families(8, 100, rng=0)
        assert fams[-1].label == "random-selective(8,8)"

    def test_reproducible(self):
        a = concatenated_families(32, 8, rng=5)
        b = concatenated_families(32, 8, rng=5)
        assert all(x.sets == y.sets for x, y in zip(a, b))

    def test_lengths_grow_with_k(self):
        fams = concatenated_families(128, 64, rng=0)
        lengths = [f.length for f in fams]
        assert lengths == sorted(lengths)

    @pytest.mark.parametrize("n", [8, 12])
    def test_explicit_method(self, n):
        fams = concatenated_families(n, n, method="explicit")
        ks = [min(2**j, n) for j in range(1, ceil_log2(n) + 1)]
        assert fams == [strongly_selective_family(n, k) for k in ks]
        for fam, k in zip(fams, ks):
            assert exhaustive_selectivity_check(fam, k)

    def test_draws_each_family_from_the_caller_stream_in_turn(self):
        gen = np.random.default_rng(4)
        expected = [random_selective_family(64, k, rng=gen) for k in (2, 4, 8)]
        assert concatenated_families(64, 8, rng=4) == expected

    def test_combined_is_compiled_once(self):
        fams = concatenated_families(64, 16, rng=0)
        assert isinstance(fams, ConcatenatedFamilies)
        assert all(isinstance(fam, SetFamily) for fam in fams)
        combined = fams.combined
        assert fams.combined is combined
        assert concatenate_families(fams) is combined
        assert combined == SetFamily.concatenated(list(fams))

    def test_editing_the_list_recompiles(self):
        fams = concatenated_families(64, 16, rng=0)
        before = fams.combined
        fams.pop()
        assert fams.combined is not before
        assert fams.combined.length == sum(fam.length for fam in fams)

    def test_concatenate_families_of_a_plain_list(self):
        fams = concatenated_families(32, 8, rng=1)
        assert concatenate_families(list(fams)) == fams.combined
        with pytest.raises(ValueError):
            concatenate_families([])

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            concatenated_families(16, 4, method="nope")
