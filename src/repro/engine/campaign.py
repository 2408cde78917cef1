"""Campaign orchestration: resolve large pattern sets shard by shard.

A *campaign* is the unit of empirical confidence: thousands of wake-up
patterns pushed through one protocol.  :class:`Campaign` cuts the pattern set
into shards of :data:`SHARD_SIZE` patterns, resolves each shard with
:func:`~repro.engine.batch.run_batch` — the one kind dispatch of the batch
layer, which sends deterministic protocols to
:func:`~repro.engine.batch.run_deterministic_batch` and randomized policies
to :func:`~repro.engine.batch.run_randomized_batch` — and reassembles the
per-shard columns in input order.  Both engines share one chunked scan, so
the campaign has a single execution path; the only per-kind difference is
that randomized shards carry their patterns' child generators.

**Sharding never changes results.**  Deterministic batches are sharding-
oblivious by construction; for randomized policies every pattern gets its
own ``SeedSequence`` child generator, derived by ``spawn_generators`` (see
:mod:`repro._util`) *before* sharding, so the outcome of pattern ``i`` does
not depend on the shard size.  This covers feedback-driven policies too:
their stochastic feedback updates (backoff windows, splitting coins) draw
from the same per-pattern streams in the vectorized feedback engine
(:func:`~repro.engine.feedback_batch.run_feedback_batch`), so binary
exponential backoff and tree splitting campaigns are reproducible at any
shard size.  Parallelism lives one layer up, in the process-sharded sweeps
(:mod:`repro.sweeps`).

Example
-------
>>> from repro.core.round_robin import RoundRobin
>>> from repro.engine import Campaign
>>> from repro.workloads import WorkloadSuite
>>> patterns = WorkloadSuite().generate("uniform", n=64, k=8, batch=32, seed=0)
>>> result = Campaign(RoundRobin(64)).run(patterns)
>>> len(result), bool(result.solved.all())
(32, True)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.obs import core as obs
from repro._util import RngLike, spawn_generators
from repro.channel.protocols import DeterministicProtocol, RandomizedPolicy
from repro.channel.simulator import DEFAULT_MAX_SLOTS
from repro.channel.wakeup import PatternBatch
from repro.engine.batch import run_batch
from repro.engine.result import BatchResult, Patterns, _pattern_batch

__all__ = ["Campaign", "SHARD_SIZE"]

#: Patterns per shard; it bounds the scan's working memory for large
#: batches.  Results are identical for every shard size.
SHARD_SIZE = 256

#: One shard job: a slice of the batch plus its per-pattern generators
#: (``None`` for deterministic protocols, which need no randomness).
_Shard = Tuple[PatternBatch, Optional[List[np.random.Generator]]]


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
    max_slots:
        Horizon forwarded to the underlying engines.
    seed:
        Base seed for randomized policies; each pattern's generator is derived
        from it by ``spawn_generators`` before sharding.  Ignored for
        deterministic protocols.
    """

    protocol: object
    max_slots: int = DEFAULT_MAX_SLOTS
    seed: RngLike = None

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, (DeterministicProtocol, RandomizedPolicy)):
            raise TypeError(
                "Campaign requires a DeterministicProtocol or RandomizedPolicy, "
                f"got {type(self.protocol).__name__}"
            )

    def run(self, patterns: Patterns) -> BatchResult:
        """Resolve every pattern; rows align with the input order.

        ``patterns`` is a :class:`~repro.channel.wakeup.PatternBatch` (what
        :meth:`~repro.workloads.WorkloadSuite.generate` draws) or a sequence
        of patterns, converted once; each shard is a slice of the batch.
        """
        batch = _pattern_batch(self.protocol, patterns)
        if not len(batch):
            return BatchResult.empty(self.protocol)
        generators: Optional[List[np.random.Generator]] = None
        if isinstance(self.protocol, RandomizedPolicy):
            # One child generator per pattern, derived before sharding so the
            # stream assignment is independent of the shard size.
            generators = list(spawn_generators(self.seed, len(batch), "campaign"))
        jobs: List[_Shard] = [
            (
                batch[i : i + SHARD_SIZE],
                None if generators is None else generators[i : i + SHARD_SIZE],
            )
            for i in range(0, len(batch), SHARD_SIZE)
        ]
        with obs.span("campaign.run"):
            results = [self._run_shard(job) for job in jobs]
        obs.add("campaign.shards", len(jobs))
        obs.add("campaign.patterns", len(batch))
        return BatchResult.concat(results)

    def _run_shard(self, job: _Shard) -> BatchResult:
        """The single engine dispatch: one batched call per shard."""
        shard, rngs = job
        return run_batch(self.protocol, shard, rngs=rngs, max_slots=self.max_slots)
