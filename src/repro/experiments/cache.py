"""Caching of constructed combinatorial objects across an experiment sweep.

Selective families are by far the most expensive objects the experiments
build (a full concatenation for ``n = 512`` touches millions of random draws),
and sweeps ask for them repeatedly: ``WakeupWithK(n, k)`` for every ``k`` in a
sweep needs the prefix of the same family sequence.  :class:`FamilyCache`
builds the longest concatenation once per ``(n, seed, method)`` and hands out
prefixes, which keeps benchmark times dominated by simulation rather than
construction.

Each prefix is a :class:`~repro.core.selective.ConcatenatedFamilies`, kept per
``(n, seed, method, levels)``, so every protocol built from it shares one
compiled concatenation (one CSR array set and one station index) instead of
re-concatenating per build.  The cache is a least-recently-used map bounded
by :data:`FAMILY_CACHE_SIZE` keys: a long-lived service worker or a seed
sweep keeps a fixed footprint however many seeds it meets.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.obs import core as obs
from repro._util import ceil_log2
from repro.core.selective import ConcatenatedFamilies, concatenated_families

__all__ = ["FAMILY_CACHE_SIZE", "FamilyCache", "shared_cache"]

#: Most ``(n, seed, method)`` keys one cache holds; the least recently used
#: key is evicted past it.  Sized above the working set of the paper campaign
#: (13 keys at quick scale) and of a service worker's stream.
FAMILY_CACHE_SIZE = 32


@dataclass
class FamilyCache:
    """LRU cache of concatenated ``(n, 2^j)``-selective family sequences.

    Each key maps to ``{levels: sequence}``; the entry with the most levels
    is the longest concatenation built so far, and shorter ones are its
    prefixes.
    """

    _store: "OrderedDict[Tuple[int, int, str], Dict[int, ConcatenatedFamilies]]" = field(
        default_factory=OrderedDict
    )

    def concatenation(
        self, n: int, max_k: int, *, seed: int = 0, method: str = "random"
    ) -> ConcatenatedFamilies:
        """Return the families for ``j = 1..⌈log₂ max_k⌉`` (building/extending as needed).

        The cache key ignores ``max_k``: the longest sequence built so far for
        ``(n, seed, method)`` is kept and prefixes are sliced from it, so
        requesting ``max_k = 8`` after ``max_k = 256`` is free.  The same
        ``levels`` always returns the same sequence object, whose compiled
        concatenation is therefore built once.
        """
        key = (int(n), int(seed), method)
        needed = max(1, ceil_log2(max(2, min(max_k, n))))
        prefixes = self._store.get(key, {})
        longest = prefixes[max(prefixes)] if prefixes else ()
        if len(longest) < needed:
            # Gauges, not counters: cache state is per-process, so hit/miss
            # totals legitimately vary with the sweep worker count.
            obs.gauge("family_cache.misses")
            with obs.span("family_cache.build"):
                # Rebuild the whole sequence deterministically from the seed so
                # that prefixes are identical no matter in which order sizes
                # were requested.
                longest = concatenated_families(
                    n, min(2**needed, n), method=method, rng=seed
                )
            prefixes = {len(longest): longest}
        else:
            obs.gauge("family_cache.hits")
        self._store[key] = prefixes
        self._store.move_to_end(key)
        while len(self._store) > FAMILY_CACHE_SIZE:
            self._store.popitem(last=False)
        if needed not in prefixes:
            prefixes[needed] = ConcatenatedFamilies(longest[:needed])
        return prefixes[needed]

    def clear(self) -> None:
        """Drop every cached sequence."""
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)


#: Module-level cache shared by the benchmark harness (cleared between scales
#: only if the caller wants to measure construction cost explicitly).
shared_cache = FamilyCache()
