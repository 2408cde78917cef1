"""Campaign orchestration: resolve large pattern sets shard by shard.

A *campaign* is the unit of empirical confidence: thousands of wake-up
patterns pushed through one protocol.  :class:`Campaign` cuts the pattern set
into shards, resolves each shard with :func:`~repro.engine.batch.run_batch`
— the one kind dispatch of the batch layer, which sends deterministic
protocols to :func:`~repro.engine.batch.run_deterministic_batch` and
randomized policies to :func:`~repro.engine.batch.run_randomized_batch` — and
reassembles the per-shard columns in input order.  Both engines share one
chunked scan, so the campaign has a single execution path; the only per-kind
difference is that randomized shards carry their patterns' child generators.

Two invariants make campaigns reproducible and composable:

* **Sharding never changes results.**  Deterministic batches are sharding-
  oblivious by construction; for randomized policies every pattern gets its
  own child generator derived with ``numpy.random.SeedSequence.spawn`` (see
  :mod:`repro._util`) *before* sharding, so the outcome of pattern ``i`` does
  not depend on the shard size.  This covers feedback-driven policies
  too: their stochastic feedback updates (backoff windows, splitting
  coins) draw from the same per-pattern streams — whether resolved through
  the vectorized feedback engine
  (:func:`~repro.engine.feedback_batch.run_feedback_batch`) or the slot-loop
  fallback — so binary exponential backoff and tree splitting campaigns are
  reproducible at any shard size.  Parallelism lives one layer up, in the
  process-sharded sweeps (:mod:`repro.sweeps`).
* **Construction cost is shared.**  The selective-family constructions behind
  Scenario A/B protocols are served from a
  :class:`~repro.experiments.cache.FamilyCache`
  (:meth:`Campaign.for_scenario_b`), so a campaign sweep pays for each
  ``(n, seed)`` concatenation once.

Example
-------
>>> from repro.core.round_robin import RoundRobin
>>> from repro.engine import Campaign
>>> from repro.workloads import WorkloadSuite
>>> patterns = WorkloadSuite().generate("uniform", n=64, k=8, batch=32, seed=0)
>>> campaign = Campaign(RoundRobin(64), shard_size=8)
>>> result = campaign.run(patterns)
>>> len(result), bool(result.solved.all())
(32, True)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro._util import RngLike, spawn_generators
from repro.channel.protocols import DeterministicProtocol, RandomizedPolicy
from repro.channel.simulator import DEFAULT_MAX_SLOTS
from repro.channel.wakeup import WakeupPattern
from repro.engine.batch import BatchResult, run_batch

__all__ = ["Campaign"]

#: One shard job: the patterns plus their per-pattern generators (``None``
#: for deterministic protocols, which need no randomness).
_Shard = Tuple[List[WakeupPattern], Optional[List[np.random.Generator]]]


@dataclass
class Campaign:
    """Shard-and-merge executor for large pattern batches.

    Parameters
    ----------
    protocol:
        A :class:`~repro.channel.protocols.DeterministicProtocol` or a
        :class:`~repro.channel.protocols.RandomizedPolicy`; either kind is
        resolved by its batched engine (one vectorized chunked scan per
        shard).
    max_slots, chunk:
        Forwarded to the underlying engines; ``chunk=None`` (the default)
        lets each engine use its own initial chunk length (the randomized
        scan starts shorter because expected randomized latencies are
        logarithmic).
    shard_size:
        Number of patterns per shard; it bounds the scan's working memory
        for large batches.  Results are identical for every shard size.
    seed:
        Base seed for randomized policies; each pattern's generator is derived
        from it via ``SeedSequence.spawn`` before sharding.  Ignored for
        deterministic protocols.
    """

    protocol: object
    max_slots: int = DEFAULT_MAX_SLOTS
    chunk: Optional[int] = None
    shard_size: int = 256
    seed: RngLike = None

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, (DeterministicProtocol, RandomizedPolicy)):
            raise TypeError(
                "Campaign requires a DeterministicProtocol or RandomizedPolicy, "
                f"got {type(self.protocol).__name__}"
            )
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")

    @classmethod
    def for_scenario_b(
        cls,
        n: int,
        k: int,
        *,
        cache=None,
        family_seed: int = 0,
        **options,
    ) -> "Campaign":
        """Build a campaign around ``wakeup_with_k`` with cached families.

        The selective families backing the protocol are served from ``cache``
        (defaulting to the module-level
        :data:`~repro.experiments.cache.shared_cache`), so sweeping many
        ``k`` values for one ``n`` constructs the concatenation once.
        """
        from repro.core.scenario_b import WakeupWithK
        from repro.experiments.cache import shared_cache

        cache = shared_cache if cache is None else cache
        families = cache.concatenation(n, k, seed=family_seed)
        return cls(WakeupWithK(n, k, families=families), **options)

    # -- execution -----------------------------------------------------------

    def run(self, patterns: Sequence[WakeupPattern]) -> BatchResult:
        """Resolve every pattern; rows align with the input order."""
        patterns = list(patterns)
        if not patterns:
            return BatchResult.empty(self.protocol)
        generators: Optional[List[np.random.Generator]] = None
        if isinstance(self.protocol, RandomizedPolicy):
            # One child generator per pattern, derived before sharding so the
            # stream assignment is independent of shard_size.
            generators = list(spawn_generators(self.seed, len(patterns), "campaign"))
        jobs: List[_Shard] = [
            (
                patterns[i : i + self.shard_size],
                None if generators is None else generators[i : i + self.shard_size],
            )
            for i in range(0, len(patterns), self.shard_size)
        ]
        with obs.span(
            "campaign.run", shards=len(jobs), patterns=len(patterns)
        ):
            results = [self._run_shard(job) for job in jobs]
        obs.add("campaign.shards", len(jobs))
        obs.add("campaign.patterns", len(patterns))
        return BatchResult.concat(results)

    def _run_shard(self, job: _Shard) -> BatchResult:
        """The single engine dispatch: one batched call per shard."""
        shard, rngs = job
        return run_batch(
            self.protocol, shard, rngs=rngs, max_slots=self.max_slots, chunk=self.chunk
        )
