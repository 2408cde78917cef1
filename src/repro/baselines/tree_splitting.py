"""Capetanakis-style binary tree splitting (stack algorithm).

Tree algorithms (Capetanakis 1979, reference [4] of the paper) resolve
contention by recursively splitting the set of colliding stations: after a
collision each involved station flips a fair coin; the "left" group retries
immediately while the "right" group waits until the left group has been fully
resolved.  The standard stack/counter implementation is used here:

* every station keeps a counter ``c`` (0 = allowed to transmit now);
* on a **collision**: stations with ``c = 0`` flip a coin — heads stay at 0,
  tails move to 1 — while every station with ``c > 0`` increments;
* on a **success or idle** slot: every station with ``c > 0`` decrements.

The algorithm requires ternary feedback (idle / success / collision), i.e. the
collision-detection channel the paper explicitly does *not* assume — the
comparison tables flag this.  New arrivals join with ``c = 0`` (the
"free-access" variant), which is the natural choice for the non-synchronized
wake-up workloads we benchmark.

The splitting coins come from the *pattern's* generator (the ``rng`` the
simulator passes to :meth:`~TreeSplitting.observe`), not from a policy-owned
stream, so each pattern's outcome depends on its own ``SeedSequence`` child
stream alone; that is what lets :func:`repro.engine.run_feedback_batch` batch
whole pattern sets through the native vectorized surface
(:class:`~repro.channel.protocols.FeedbackVectorizedPolicy`) with bit-for-bit
the slot loop's outcomes.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.channel.feedback import FeedbackSignal
from repro.channel.protocols import FeedbackVectorizedPolicy, StationState

__all__ = ["TreeSplitting"]

_COLLISION_CODE = FeedbackSignal.COLLISION.code


class TreeSplitting(FeedbackVectorizedPolicy):
    """Binary tree splitting with free access (counter/stack formulation)."""

    name = "tree-splitting"
    requires_collision_detection = True

    # -- scalar surface (the slot-loop reference path) -----------------------

    def create_state(self, station: int, wake_time: int) -> StationState:
        state = super().create_state(station, wake_time)
        state.extra["counter"] = 0
        return state

    def transmit_probability(self, state: StationState, slot: int) -> float:
        return 1.0 if state.extra["counter"] == 0 else 0.0

    def observe(
        self,
        state: StationState,
        slot: int,
        signal: FeedbackSignal,
        transmitted: bool,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().observe(state, slot, signal, transmitted, rng=rng)
        counter = state.extra["counter"]
        if signal is FeedbackSignal.COLLISION:
            if counter == 0:
                # The station was involved in the collision: split by coin flip.
                if rng.random() < 0.5:
                    state.extra["counter"] = 1
            else:
                state.extra["counter"] = counter + 1
        else:
            # Idle or success: the sub-tree at the top of the stack is resolved.
            if counter > 0:
                state.extra["counter"] = counter - 1

    # -- vectorized surface (run_feedback_batch) -----------------------------

    def batch_create_state(
        self, pair_row: np.ndarray, pair_station: np.ndarray, pair_wake: np.ndarray
    ) -> Dict[str, np.ndarray]:
        return {"counter": np.zeros(pair_wake.shape[0], dtype=np.int64)}

    def batch_transmit_mask(self, state: Any, slot: int, awake: np.ndarray) -> np.ndarray:
        return awake & (state["counter"] == 0)

    def batch_observe(
        self,
        state: Any,
        slot: int,
        signals: np.ndarray,
        transmitted: np.ndarray,
        awake: np.ndarray,
        draw,
    ) -> None:
        counter = state["counter"]
        collided = awake & (signals == _COLLISION_CODE)
        at_top = counter == 0
        splitting = np.flatnonzero(collided & at_top)
        waiting_up = collided & ~at_top
        # Non-collision signals reach only awake stations (sleeping stations
        # are never observed); success and idle both pop the stack.
        resolved_down = awake & (signals != _COLLISION_CODE) & ~at_top
        if splitting.size:
            coins = draw(splitting)
            counter[splitting[coins < 0.5]] = 1
        counter[waiting_up] += 1
        counter[resolved_down] -= 1

    def describe(self) -> str:
        return f"{self.name}(n={self.n})"
