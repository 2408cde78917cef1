"""Tests for repro.experiments.cache.FamilyCache."""

from __future__ import annotations


from repro._util import ceil_log2
from repro.experiments.cache import FAMILY_CACHE_SIZE, FamilyCache, shared_cache
from repro.sweeps.runner import resolve_config
from repro.sweeps.spec import SweepConfig


class TestFamilyCache:
    def test_prefix_property(self):
        cache = FamilyCache()
        long = cache.concatenation(32, 32, seed=1)
        short = cache.concatenation(32, 4, seed=1)
        assert len(short) == ceil_log2(4)
        for a, b in zip(short, long):
            assert a.sets == b.sets

    def test_extension_rebuild_is_consistent(self):
        cache = FamilyCache()
        short_first = cache.concatenation(32, 4, seed=1)
        long_after = cache.concatenation(32, 32, seed=1)
        # The prefix of the longer sequence equals the earlier short sequence.
        for a, b in zip(short_first, long_after):
            assert a.sets == b.sets

    def test_caching_returns_same_objects(self):
        cache = FamilyCache()
        a = cache.concatenation(16, 16, seed=0)
        b = cache.concatenation(16, 16, seed=0)
        assert all(x is y for x, y in zip(a, b))

    def test_different_seeds_are_distinct_entries(self):
        cache = FamilyCache()
        a = cache.concatenation(16, 4, seed=0)
        b = cache.concatenation(16, 4, seed=1)
        assert any(x.sets != y.sets for x, y in zip(a, b))
        assert len(cache) == 2

    def test_clear(self):
        cache = FamilyCache()
        cache.concatenation(16, 4, seed=0)
        cache.clear()
        assert len(cache) == 0

    def test_max_k_capped_at_n(self):
        cache = FamilyCache()
        fams = cache.concatenation(8, 64, seed=0)
        assert len(fams) == ceil_log2(8)


class TestBoundedCache:
    def test_least_recently_used_key_is_evicted(self):
        cache = FamilyCache()
        first = cache.concatenation(8, 4, seed=0)
        for seed in range(1, FAMILY_CACHE_SIZE):
            cache.concatenation(8, 4, seed=seed)
        # Touching seed 0 makes seed 1 the least recently used key.
        assert cache.concatenation(8, 4, seed=0) is first
        cache.concatenation(8, 4, seed=FAMILY_CACHE_SIZE)
        assert len(cache) == FAMILY_CACHE_SIZE
        assert cache.concatenation(8, 4, seed=0) is first
        assert cache.concatenation(8, 4, seed=1) is not None
        assert len(cache) == FAMILY_CACHE_SIZE

    def test_same_levels_share_one_compiled_concatenation(self):
        cache = FamilyCache()
        a = cache.concatenation(32, 8, seed=2)
        b = cache.concatenation(32, 5, seed=2)  # also 3 levels
        assert a is b
        assert a.combined is b.combined
        # Extending rebuilds the sequence from the seed: the new prefix is
        # equal to the old one and is again shared between calls.
        full = cache.concatenation(32, 32, seed=2)
        assert full.combined.length > a.combined.length
        prefix = cache.concatenation(32, 8, seed=2)
        assert prefix.combined == a.combined
        assert cache.concatenation(32, 8, seed=2).combined is prefix.combined

    def test_seed_sweep_stays_bounded_and_matches_fresh_resolves(self):
        configs = [
            SweepConfig(
                protocol="scenario-b", n=16, k=4, workload="uniform", batch=4, seed=seed
            )
            for seed in range(300)
        ]
        shared_cache.clear()
        try:
            records = [resolve_config(config) for config in configs]
            assert len(shared_cache) <= FAMILY_CACHE_SIZE
            # Early (long evicted) and recent seeds alike match a resolve
            # from an empty cache.
            for index in [*range(0, 300, 37), 298, 299]:
                shared_cache.clear()
                assert resolve_config(configs[index]) == records[index]
        finally:
            shared_cache.clear()
