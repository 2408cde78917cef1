"""Tests for repro.experiments.config."""

from __future__ import annotations


from repro.experiments.config import FULL, QUICK, STANDARD, ExperimentScale


class TestScales:
    def test_presets_are_ordered_by_size(self):
        assert len(QUICK.n_values) <= len(STANDARD.n_values) <= len(FULL.n_values)
        assert QUICK.seeds <= STANDARD.seeds <= FULL.seeds
        assert QUICK.max_slots <= STANDARD.max_slots <= FULL.max_slots

    def test_names(self):
        assert QUICK.name == "quick"
        assert STANDARD.name == "standard"
        assert FULL.name == "full"


class TestKValues:
    def test_powers_of_two_present(self):
        ks = QUICK.k_values(64)
        for power in (2, 4, 8, 16, 32, 64):
            assert power in ks

    def test_fraction_points_added(self):
        scale = ExperimentScale(
            name="t",
            n_values=(64,),
            k_fractions=(0.75,),
            seeds=1,
            patterns_per_seed=1,
            max_slots=1000,
        )
        assert 48 in scale.k_values(64)

    def test_values_sorted_unique_and_bounded(self):
        ks = STANDARD.k_values(128)
        assert ks == sorted(set(ks))
        assert all(2 <= k <= 128 for k in ks)

    def test_cap(self):
        ks = QUICK.k_values(128, cap=16)
        assert max(ks) <= 16

    def test_small_n(self):
        ks = QUICK.k_values(2)
        assert ks == [2]
