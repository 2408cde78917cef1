"""Vectorized batch execution for feedback-driven policies.

Feedback-driven policies (binary exponential backoff, tree splitting) are the
one protocol family the chunked scans in :mod:`repro.engine.batch` cannot
touch: a station's decision at slot ``t + 1`` depends on what the channel did
at slot ``t``, so transmit events cannot be sampled ahead of the outcomes
they react to.  What *can* be batched is the other axis — patterns.  One
pattern's state never influences another's, so B executions advance in
lockstep, one slot at a time, with every per-station quantity held in flat
int64 arrays aligned to the engine's ``(pattern, station, wake)`` pair
arrays (conceptually a ``(B, n)`` sheet of per-row counters, stored ragged):

1. per slot, one :meth:`~repro.channel.protocols.FeedbackVectorizedPolicy.batch_transmit_mask`
   query yields every pattern's transmitters at once;
2. a single ``bincount`` over the transmitting pairs' rows resolves every
   pattern's slot outcome (silence / success / collision);
3. outcomes map to per-station signals through the feedback model's
   :func:`~repro.channel.feedback.signal_table` (six scalar calls tabulate
   the model exactly);
4. one :meth:`~repro.channel.protocols.FeedbackVectorizedPolicy.batch_observe`
   call applies the slot's feedback to every pattern's state arrays;
5. resolved rows drop out, and slots where no unresolved pattern has an
   awake station are skipped in one jump.

Outcomes are **bit for bit** identical to resolving each pattern with the
slot-loop reference engine (:func:`repro.channel.simulator.run_randomized`)
under the same per-pattern child generators, including ``slots_examined``,
because the batch consumes each pattern's stream in the slot loop's exact
order: slots ascending; within a slot, first one uniform per transmitting
station (the slot loop's transmit decision draws — burned, since the
vectorized surface covers 0/1-probability policies), then the observe draws
(backoff windows, splitting coins) for exactly the stations whose scalar
``observe`` would draw, in pattern order.  The property suite in
``tests/properties/test_property_feedback_engine.py`` holds the engine to
this contract.

Example
-------
>>> from repro.baselines import TreeSplitting
>>> from repro.channel.wakeup import WakeupPattern
>>> from repro.engine import run_feedback_batch
>>> patterns = [WakeupPattern(8, {1: 0, 2: 0}), WakeupPattern(8, {5: 1})]
>>> result = run_feedback_batch(TreeSplitting(8), patterns, seed=0)
>>> bool(result.solved.all())
True
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.obs import core as obs
from repro.channel.feedback import (
    CollisionDetection,
    FeedbackModel,
    NoCollisionDetection,
    signal_table,
)
from repro.channel.protocols import FeedbackVectorizedPolicy
from repro.channel.simulator import DEFAULT_MAX_SLOTS
from repro.engine.result import (
    BatchResult,
    Patterns,
    _pattern_batch,
    _resolve_generators,
)

__all__ = ["run_feedback_batch"]


def _make_row_draw(generators: List[np.random.Generator], pair_row: np.ndarray):
    """Build the ``draw(pairs)`` callable handed to ``batch_observe``.

    ``pairs`` must be ascending pair indices; because the pair arrays are
    row-major, the requested pairs group into runs of equal row, and each
    run is filled with one block draw from that row's generator — bit
    identical to the slot loop's per-station scalar draws, in its order.
    """

    def draw(pairs: np.ndarray) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        out = np.empty(pairs.size, dtype=np.float64)
        if pairs.size == 0:
            return out
        rows = pair_row[pairs]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        stops = np.append(starts[1:], rows.size)
        for start, stop in zip(starts, stops):
            generators[int(rows[start])].random(out=out[start:stop])
        return out

    return draw


def run_feedback_batch(
    policy: FeedbackVectorizedPolicy,
    patterns: Patterns,
    *,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    seed=None,
    max_slots: int = DEFAULT_MAX_SLOTS,
    feedback: Optional[FeedbackModel] = None,
) -> BatchResult:
    """Resolve B patterns against one feedback-driven policy, slot-synchronously.

    Parameters
    ----------
    policy:
        A :class:`~repro.channel.protocols.FeedbackVectorizedPolicy`; any
        other :class:`~repro.channel.protocols.RandomizedPolicy` is oblivious
        and belongs to :func:`~repro.engine.batch.run_randomized_batch`'s
        matrix scan.
    patterns:
        The batch, a :class:`~repro.channel.wakeup.PatternBatch` or a
        sequence of patterns; rows of the result align with its order.
    rngs:
        Optional per-pattern generators (one per pattern, consumed in order).
    seed:
        Base seed used to spawn per-pattern child generators when ``rngs`` is
        not given; the spawn matches :class:`~repro.engine.campaign.Campaign`
        and :func:`~repro.engine.batch.run_randomized_batch`.
    max_slots:
        Per-row horizon, measured from each row's own first wake-up.
    feedback:
        Channel feedback model; defaults to the model
        :func:`~repro.channel.simulator.run_randomized` would pick
        (:class:`~repro.channel.feedback.CollisionDetection` when the policy
        requires it, the paper's no-collision-detection model otherwise).

    Returns
    -------
    BatchResult
        Outcome columns (including ``slots_examined``) bit-for-bit identical
        to running ``run_randomized`` per pattern with the same generators.
    """
    if not isinstance(policy, FeedbackVectorizedPolicy):
        raise TypeError(
            f"expected a FeedbackVectorizedPolicy, got {type(policy).__name__}"
        )
    batch = _pattern_batch(policy, patterns)
    if not len(batch):
        return BatchResult.empty(policy)
    generators = _resolve_generators(rngs, seed, len(batch))
    if feedback is None:
        feedback = (
            CollisionDetection()
            if policy.requires_collision_detection
            else NoCollisionDetection()
        )
    lut = signal_table(feedback)

    B = len(batch)
    pair_row, pair_station, pair_wake = batch.pair_row, batch.stations, batch.wake_times
    first_wake = batch.first_wake
    max_slots = int(max_slots)
    horizon = first_wake + max_slots

    solved = np.zeros(B, dtype=bool)
    success_slot = np.full(B, -1, dtype=np.int64)
    winner = np.full(B, -1, dtype=np.int64)
    latency = np.full(B, -1, dtype=np.int64)
    row_done = np.zeros(B, dtype=bool)

    state = policy.batch_create_state(pair_row, pair_station, pair_wake)
    draw = _make_row_draw(generators, pair_row)
    alive_pair = np.ones(pair_row.shape[0], dtype=bool)
    slot = int(first_wake.min())
    # Slot counts are tallied locally and reported once after the loop:
    # per-slot obs calls would dominate the disabled-mode cost of this
    # slot-synchronous loop.
    awake_buf = np.empty(pair_row.shape[0], dtype=bool)
    slots_stepped = 0

    with obs.span("engine.feedback_batch"):
        while not row_done.all():
            # Retire rows whose horizon is exhausted (unsolved), exactly where
            # the slot loop would have given up on them.
            expired = ~row_done & (horizon <= slot)
            if expired.any():
                row_done[expired] = True
                if row_done.all():
                    break
                alive_pair = ~row_done[pair_row]

            awake = np.less_equal(pair_wake, slot, out=awake_buf)
            awake &= alive_pair
            if not awake.any():
                # No unresolved pattern has an awake station: the slot loop
                # would resolve empty slots with no draws and no state changes,
                # so jump straight to the next wake-up among unresolved
                # patterns.
                pending = pair_wake[alive_pair]
                upcoming = pending[pending > slot]
                if upcoming.size == 0:
                    break
                slot = int(upcoming.min())
                continue

            tx = np.asarray(policy.batch_transmit_mask(state, slot, awake), dtype=bool)
            tx &= awake
            tx_pairs = np.flatnonzero(tx)
            if tx_pairs.size:
                # Burn one uniform per transmitter: the slot loop draws one
                # transmit decision per awake station with positive probability,
                # and for a 0/1 policy those are exactly the transmitters.
                draw(tx_pairs)
                tx_per_row = np.bincount(pair_row[tx_pairs], minlength=B)
            else:
                tx_per_row = np.zeros(B, dtype=np.int64)

            # Outcome codes per row: 0 = silence, 1 = success, 2 = collision.
            outcome = np.minimum(tx_per_row, 2).astype(np.int8)
            signals = lut[outcome[pair_row], tx.astype(np.int8)]
            policy.batch_observe(state, slot, signals, tx, awake, draw)

            won = ~row_done & (tx_per_row == 1)
            if won.any():
                sole = tx_pairs[won[pair_row[tx_pairs]]]
                winner[pair_row[sole]] = pair_station[sole]
                won_rows = np.flatnonzero(won)
                solved[won_rows] = True
                success_slot[won_rows] = slot
                latency[won_rows] = slot - first_wake[won_rows]
                row_done[won_rows] = True
                alive_pair = ~row_done[pair_row]

            slot += 1
            slots_stepped += 1

    obs.add("engine.feedback_slots", slots_stepped)
    obs.add("engine.patterns", B)
    obs.add("engine.patterns_solved", int(np.count_nonzero(solved)))

    # Match the slot-loop engine's accounting exactly: a solved run examines
    # latency + 1 slots, an unsolved run the full horizon.
    slots_examined = np.where(solved, latency + 1, np.int64(max_slots))

    return BatchResult(
        protocol=policy.describe(),
        n=policy.n,
        solved=solved,
        k=batch.k,
        first_wake=first_wake,
        success_slot=success_slot,
        winner=winner,
        latency=latency,
        slots_examined=slots_examined,
    )
