"""Contract of the CSR-backed SetFamily against plain frozenset semantics.

A :class:`~repro.combinatorics.selectors.SetFamily` stores its sets as two
integer arrays.  Every query it answers must equal what a tuple of
frozensets would answer: arbitrary families, empty sets, duplicate members
and the one-station universe included.
"""

from __future__ import annotations

import pickle
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.combinatorics.selectors import SetFamily
from repro.combinatorics.verification import (
    hits_exactly_one,
    is_strongly_selective_for,
    monte_carlo_selectivity,
    selectivity_violations,
)


@st.composite
def raw_families(draw, n=None, max_sets=10):
    """``(n, sets)``: sets as member lists, possibly empty or with repeats."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=20))
    sets = draw(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=n), max_size=8),
            max_size=max_sets,
        )
    )
    return n, sets


labels = st.sampled_from(["", "a", "random-selective(8,2)"])


def reference(sets):
    return tuple(frozenset(s) for s in sets)


def first_isolating(ref, contenders):
    contender_set = frozenset(contenders)
    return next((j for j, s in enumerate(ref) if len(s & contender_set) == 1), None)


def strongly_isolates(ref, contenders):
    contender_set = frozenset(contenders)
    isolated = {
        next(iter(s & contender_set)) for s in ref if len(s & contender_set) == 1
    }
    return isolated == contender_set


class TestQueriesMatchFrozensets:
    @given(raw=raw_families(), label=labels)
    @settings(max_examples=60, deadline=None)
    def test_sets_indexing_and_sizes(self, raw, label):
        n, sets = raw
        family = SetFamily(n, sets, label=label)
        ref = reference(sets)
        assert family.sets == ref
        assert tuple(family) == ref
        assert len(family) == family.length == len(ref)
        for j in range(-len(ref), len(ref)):
            assert family[j] == ref[j]
        assert family[1:] == ref[1:]
        assert np.diff(family.offsets).tolist() == [len(s) for s in ref]
        assert family.flat.size == sum(len(s) for s in ref)

    @given(raw=raw_families())
    @settings(max_examples=60, deadline=None)
    def test_contains_and_station_index(self, raw):
        n, sets = raw
        family = SetFamily(n, sets)
        ref = reference(sets)
        index = family.station_index()
        for u in range(1, n + 1):
            for j, s in enumerate(ref):
                assert family.contains(u, j) == (u in s)
            expected = [j for j, s in enumerate(ref) if u in s]
            assert index.slots_of(u).tolist() == expected
        for j in range(len(ref)):
            assert not family.contains(0, j)
            assert not family.contains(n + 1, j)
        assert index.slots_of(0).size == index.slots_of(n + 1).size == 0
        grants = sorted(u * len(ref) + j for j, s in enumerate(ref) for u in s)
        assert index.keys.tolist() == grants

    @given(raw=raw_families())
    @settings(max_examples=60, deadline=None)
    def test_membership_matrix(self, raw):
        n, sets = raw
        expected = np.zeros((len(sets), n), dtype=bool)
        for j, s in enumerate(reference(sets)):
            for u in s:
                expected[j, u - 1] = True
        assert np.array_equal(SetFamily(n, sets).membership_matrix(), expected)

    @given(
        raw=raw_families(),
        contenders=st.lists(st.integers(min_value=-1, max_value=22), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_verification_queries(self, raw, contenders):
        n, sets = raw
        family = SetFamily(n, sets)
        ref = reference(sets)
        assert hits_exactly_one(family, contenders) == first_isolating(ref, contenders)
        assert is_strongly_selective_for(family, contenders) == strongly_isolates(
            ref, contenders
        )

    @given(raw=raw_families(n=6), k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_exhaustive_and_sampled_checks(self, raw, k):
        n, sets = raw
        family = SetFamily(n, sets)
        ref = reference(sets)
        lo = max(1, k // 2)
        expected = [
            subset
            for size in range(lo, k + 1)
            for subset in combinations(range(1, n + 1), size)
            if first_isolating(ref, subset) is None
        ]
        assert selectivity_violations(family, k) == expected
        # The sampled rate only counts checks of the drawn sets: it is 1.0
        # exactly when no violation exists among the sizes it draws.
        rate = monte_carlo_selectivity(family, k, trials=50, rng=0)
        assert 0.0 <= rate <= 1.0
        if not expected:
            assert rate == 1.0


class TestConcatenationEqualityAndErrors:
    @given(
        n=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_many_way_concatenation_equals_pairwise_chain(self, n, data):
        parts = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            _, sets = data.draw(raw_families(n=n, max_sets=4))
            parts.append(SetFamily(n, sets, label=data.draw(labels)))
        chained = reduce(lambda a, b: SetFamily.concatenated([a, b]), parts)
        combined = SetFamily.concatenated(parts)
        assert combined == chained
        assert hash(combined) == hash(chained)
        assert combined.label == chained.label
        assert combined.sets == sum((p.sets for p in parts), ())

    @given(raw=raw_families(), label=labels, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_equality_and_hash_follow_sets_in_order(self, raw, label, data):
        n, sets = raw
        family = SetFamily(n, sets, label=label)
        # Member order and repeats do not matter; sets, order, n and label do.
        shuffled = [data.draw(st.permutations(s)) + list(s) for s in sets]
        twin = SetFamily(n, shuffled, label=label)
        assert family == twin and hash(family) == hash(twin)
        assert len({family, twin}) == 1
        assert family != SetFamily(n, sets, label=label + "x")
        assert family != SetFamily(n + 1, sets, label=label)
        assert family != SetFamily(n, sets + [[1]], label=label)
        assert SetFamily.from_csr(n, family.offsets, family.flat, label) == family
        assert pickle.loads(pickle.dumps(family)) == family

    @given(raw=raw_families(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_message_is_unchanged(self, raw, data):
        n, sets = raw
        sets = sets or [[]]
        j = data.draw(st.integers(min_value=0, max_value=len(sets) - 1))
        bad = data.draw(
            st.one_of(st.integers(max_value=0), st.integers(min_value=n + 1))
        )
        sets[j] = sets[j] + [bad]
        with pytest.raises(ValueError) as excinfo:
            SetFamily(n, sets)
        assert str(excinfo.value) == f"set #{j} contains station {bad} outside [1, {n}]"

    def test_arrays_are_read_only(self):
        family = SetFamily(3, [[1, 2], [3]])
        with pytest.raises(ValueError):
            family.flat[0] = 3
        with pytest.raises(AttributeError):
            family.n = 4

    def test_from_csr_rejects_unsorted_or_repeated_members(self):
        with pytest.raises(ValueError, match="ascending and distinct"):
            SetFamily.from_csr(4, [0, 2], [2, 1])
        with pytest.raises(ValueError, match="ascending and distinct"):
            SetFamily.from_csr(4, [0, 2], [2, 2])
        with pytest.raises(ValueError, match="offsets"):
            SetFamily.from_csr(4, [0, 3], [1, 2])
        # A set boundary may step down: each set is checked on its own.
        assert SetFamily.from_csr(4, [0, 1, 2], [3, 1]).sets == (
            frozenset({3}),
            frozenset({1}),
        )
