"""Property-based tests on selective families and related combinatorial objects."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.combinatorics.selectors import binary_selector, singleton_family
from repro.combinatorics.superimposed import code_to_set_family, kautz_singleton_code
from repro.combinatorics.verification import is_selective_for, is_strongly_selective_for
from repro.core.selective import random_selective_family, selective_family_target_length


class TestSelectiveFamilyProperties:
    @given(
        n=st.integers(min_value=4, max_value=64),
        k=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_family_selects_random_contender_sets(self, n, k, seed, data):
        assume(k <= n)
        family = random_selective_family(n, k, rng=seed)
        size = data.draw(st.integers(min_value=max(1, k // 2), max_value=k))
        size = min(size, n)
        contenders = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        assert is_selective_for(family, contenders)

    @given(n=st.integers(min_value=2, max_value=128), k=st.integers(min_value=1, max_value=128))
    @settings(max_examples=60, deadline=None)
    def test_target_length_monotone_in_k_for_small_k(self, n, k):
        assume(k <= n)
        assume(2 * k <= n)
        shorter = selective_family_target_length(n, k)
        longer = selective_family_target_length(n, 2 * k)
        assert longer >= shorter

    @given(n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_singleton_family_strongly_selective_for_any_subset(self, n):
        fam = singleton_family(n)
        rng = np.random.default_rng(n)
        size = int(rng.integers(1, n + 1))
        subset = (rng.choice(n, size=size, replace=False) + 1).tolist()
        assert is_strongly_selective_for(fam, subset)

    @given(
        n=st.integers(min_value=2, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_selector_isolates_every_pair(self, n, data):
        fam = binary_selector(n)
        a = data.draw(st.integers(min_value=1, max_value=n))
        b = data.draw(st.integers(min_value=1, max_value=n))
        assume(a != b)
        assert is_selective_for(fam, [a, b])


class TestSuperimposedCodeProperties:
    @given(
        n=st.integers(min_value=2, max_value=64),
        k=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_strong_selectivity_on_sampled_subsets(self, n, k, data):
        assume(k + 1 <= n)
        code = kautz_singleton_code(n=n, k=k)
        family = code_to_set_family(code)
        subset = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=1,
                max_size=k + 1,
                unique=True,
            )
        )
        assert is_strongly_selective_for(family, subset)

    @given(n=st.integers(min_value=2, max_value=128), k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_codeword_weights_equal_q(self, n, k):
        assume(k <= n)
        code = kautz_singleton_code(n=n, k=k)
        weights = {code.weight(u) for u in range(1, n + 1)}
        assert weights == {code.q}
