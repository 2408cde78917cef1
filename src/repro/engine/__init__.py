"""Batched simulation engine: resolve many wake-up patterns per call.

All bounds in the paper are worst-case over the adversary's choice of wake-up
pattern, so empirical confidence scales with how many patterns the harness
can push through the channel simulator.  This package is the batch-execution
layer on top of :mod:`repro.channel`, with **one** chunked-scan core shared
by both protocol kinds:

* :func:`~repro.engine.batch.run_deterministic_batch` — one vectorized
  chunked scan resolving B patterns (2-D transmit-count accumulation,
  per-row first-success extraction).  Every deterministic protocol family in
  the library answers its per-chunk ``batch_transmit_slots`` query natively:
  periodic schedules (round-robin, TDMA), family schedules and their cyclic /
  interleaved combinators (scenarios A and B, Komlós–Greenberg), and the
  Scenario C waking-matrix protocols (global- and local-clock) via
  :func:`~repro.core.waking_matrix.matrix_batch_transmit_slots`, which
  hashes each distinct ``(station, start)`` key's cells once; only ad-hoc
  user protocols fall back to the pair-by-pair loop;
* :func:`~repro.engine.batch.run_randomized_batch` — the same scan fed by
  Bernoulli samples over each policy's
  :meth:`~repro.channel.protocols.RandomizedPolicy.transmit_probability_matrix`,
  one ``SeedSequence``-spawned child generator per pattern (bit-for-bit
  identical to the slot-loop engine given the same generators);
* :func:`~repro.engine.feedback_batch.run_feedback_batch` — the
  feedback-driven third engine: policies whose decisions react to channel
  signals (binary exponential backoff, tree splitting) subclass
  :class:`~repro.channel.protocols.FeedbackVectorizedPolicy` and advance B
  patterns *per slot* with vectorized state arrays, again bit-for-bit
  identical to the slot loop under matched per-pattern streams
  (``run_randomized_batch`` dispatches every such policy to it by class);
* :class:`~repro.engine.result.BatchResult` — column-oriented results with
  summary statistics, convertible row-by-row to
  :class:`~repro.channel.simulator.WakeupResult`;
* :class:`~repro.engine.campaign.Campaign` — resolves large pattern sets in
  memory-bounded shards (:data:`~repro.engine.campaign.SHARD_SIZE`
  patterns each) through a single engine dispatch.

The scenario generators that feed this engine live in
:mod:`repro.workloads`; the layer above it — whole config grids sharded
across worker *processes*, with an on-disk resumable store — is
:mod:`repro.sweeps`.
"""

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "BatchResult": "repro.engine.result",
    "run_batch": "repro.engine.batch",
    "run_deterministic_batch": "repro.engine.batch",
    "run_randomized_batch": "repro.engine.batch",
    "run_feedback_batch": "repro.engine.feedback_batch",
    "Campaign": "repro.engine.campaign",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
