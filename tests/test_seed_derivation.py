"""The one-pass seed derivation against numpy's ``SeedSequence.spawn``.

``spawn_generators`` and ``indexed_generators`` compute every child's PCG64
seed words in one vectorized pass; numpy's own ``SeedSequence`` is the
oracle here.  Every child must match it bit for bit: its full
``bit_generator.state`` and its first draws.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import indexed_generators, spawn_generators, stable_key
from repro.adversary import evaluation_generators

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 1]
KEYS = [(), ("campaign",), (0,), (2**32,), (2**64 + 5, "uniform"), ("adversary-step", "ab12", 0)]
COUNTS = [0, 1, 2, 257]


def _oracle(entropy, count):
    words = [stable_key(k) if isinstance(k, str) else k for k in entropy]
    return [np.random.default_rng(child) for child in np.random.SeedSequence(words).spawn(count)]


def _assert_same_streams(ours, oracle):
    assert len(ours) == len(oracle)
    for a, b in zip(ours, oracle):
        assert a.bit_generator.state == b.bit_generator.state
        assert a.integers(0, 2**63, size=3).tolist() == b.integers(0, 2**63, size=3).tolist()


class TestSpawnGenerators:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("keys", KEYS)
    @pytest.mark.parametrize("count", COUNTS)
    def test_matches_seed_sequence_spawn(self, seed, keys, count):
        _assert_same_streams(spawn_generators(seed, count, *keys), _oracle([seed, *keys], count))

    @given(
        seed=st.integers(0, 2**96),
        keys=st.lists(st.one_of(st.text(max_size=8), st.integers(0, 2**96)), max_size=5),
        count=st.integers(0, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_seed_sequence_spawn_on_random_entropy(self, seed, keys, count):
        _assert_same_streams(spawn_generators(seed, count, *keys), _oracle([seed, *keys], count))

    def test_generator_seed_draws_the_parent_from_it(self):
        parent = int(np.random.default_rng(11).integers(0, 2**63))
        ours = spawn_generators(np.random.default_rng(11), 5, "campaign")
        _assert_same_streams(ours, _oracle([parent, "campaign"], 5))

    def test_none_seed_uses_fresh_entropy(self, monkeypatch):
        real = np.random.SeedSequence
        drawn = []

        def recording(*args, **kwargs):
            sequence = real(*args, **kwargs)
            drawn.append(sequence.entropy)
            return sequence

        monkeypatch.setattr(np.random, "SeedSequence", recording)
        ours = spawn_generators(None, 3, "campaign")
        monkeypatch.setattr(np.random, "SeedSequence", real)
        assert len(drawn) == 1
        _assert_same_streams(ours, _oracle([drawn[0], "campaign"], 3))
        again = spawn_generators(None, 3, "campaign")
        assert again[0].bit_generator.state != ours[0].bit_generator.state

    def test_rows_are_prefix_stable(self):
        short = spawn_generators(5, 3, "uniform")
        long = spawn_generators(5, 300, "uniform")[:3]
        _assert_same_streams(short, long)

    @pytest.mark.parametrize("seed, keys", [(-1, ()), (3, (-1,)), (3, ("campaign", -(2**40)))])
    def test_negative_entropy_raises(self, seed, keys):
        with pytest.raises(ValueError):
            spawn_generators(seed, 2, *keys)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(3, -1)

    def test_children_pickle_and_do_not_spawn(self):
        (child,) = spawn_generators(3, 1, "campaign")
        clone = pickle.loads(pickle.dumps(child))
        assert clone.bit_generator.state == child.bit_generator.state
        assert clone.random(4).tolist() == child.random(4).tolist()
        if hasattr(child, "spawn"):  # Generator.spawn exists from numpy 1.25
            with pytest.raises(TypeError):
                child.spawn(1)
        with pytest.raises(ValueError):
            child.bit_generator.seed_seq.generate_state(8, np.uint32)


class TestIndexedGenerators:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_evaluation_generators_match_seed_sequence(self, seed):
        indices = [0, 1, 7, 2**31, 2**32 - 1]
        ours = evaluation_generators(seed, "abcd", 2, indices)
        oracle = [_oracle([seed, "adversary-eval", "abcd", 2, i], 1)[0] for i in indices]
        _assert_same_streams(ours, oracle)

    @given(
        seed=st.integers(0, 2**70),
        spec_hash=st.text(max_size=16),
        step=st.integers(0, 2**40),
        indices=st.lists(st.integers(0, 2**32 - 1), max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_evaluation_generators_on_random_coordinates(self, seed, spec_hash, step, indices):
        ours = evaluation_generators(seed, spec_hash, step, indices)
        oracle = [_oracle([seed, "adversary-eval", spec_hash, step, i], 1)[0] for i in indices]
        _assert_same_streams(ours, oracle)

    def test_equals_one_spawn_per_index(self):
        ours = indexed_generators(9, range(4), "a", "b", "c")
        _assert_same_streams(ours, [spawn_generators(9, 1, "a", "b", "c", i)[0] for i in range(4)])

    @pytest.mark.parametrize("indices", [[-1], [2**32], [0, 2**40]])
    def test_index_out_of_range_raises(self, indices):
        with pytest.raises(ValueError):
            evaluation_generators(3, "abcd", 2, indices)

    @pytest.mark.parametrize("seed, step", [(-1, 0), (3, -2)])
    def test_negative_entropy_raises(self, seed, step):
        with pytest.raises(ValueError):
            evaluation_generators(seed, "abcd", step, [0])

    def test_entropy_that_does_not_fill_the_pool_raises(self):
        with pytest.raises(ValueError):
            indexed_generators(3, [0, 1], 4)
