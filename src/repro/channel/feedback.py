"""Channel feedback models.

The amount of feedback a station receives after each slot is a central
modelling choice (see the paper's Introduction).  The paper works in the
**weakest** model: no collision detection, so a listening station only learns
whether a successful transmission occurred (in which case it receives the
message) — silence and collision are indistinguishable.  Some of the baseline
algorithms we compare against (binary exponential backoff, Capetanakis tree
splitting) require the stronger ternary feedback with collision detection, so
both models are provided and every simulation records which one was used.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.channel.events import SlotOutcome

__all__ = [
    "FeedbackSignal",
    "FeedbackModel",
    "NoCollisionDetection",
    "CollisionDetection",
    "OUTCOME_CODES",
    "signal_table",
]


class FeedbackSignal(Enum):
    """What a station perceives at the end of a slot.

    ``QUIET`` is deliberately ambiguous: under :class:`NoCollisionDetection`
    it covers both true silence and collisions.

    Each signal carries a small integer :attr:`code` so vectorized engines
    can represent per-station signals as int8 arrays (see
    :func:`signal_table`).
    """

    QUIET = "quiet"
    SUCCESS = "success"
    COLLISION = "collision"

    @property
    def code(self) -> int:
        """Stable integer code used by vectorized signal arrays."""
        return _SIGNAL_CODES[self]


#: Stable integer codes for :class:`FeedbackSignal` members (the values the
#: batched feedback engine hands to ``batch_observe`` as an int8 array).
_SIGNAL_CODES = {
    FeedbackSignal.QUIET: 0,
    FeedbackSignal.SUCCESS: 1,
    FeedbackSignal.COLLISION: 2,
}

#: Stable integer codes for :class:`~repro.channel.events.SlotOutcome`
#: members, indexing the first axis of :func:`signal_table`.
OUTCOME_CODES = {
    SlotOutcome.SILENCE: 0,
    SlotOutcome.SUCCESS: 1,
    SlotOutcome.COLLISION: 2,
}


def signal_table(model: "FeedbackModel") -> np.ndarray:
    """Tabulate a feedback model as an int8 array ``lut[outcome, transmitted]``.

    The batched feedback engine (:func:`repro.engine.run_feedback_batch`)
    resolves one slot for B patterns at a time; translating the per-row slot
    outcome into per-station signals through :meth:`FeedbackModel.observe`
    station by station would reintroduce the scalar loop.  Because every
    model in the library is a pure function of ``(outcome, transmitted)``,
    six scalar calls tabulate it exactly: entry ``[OUTCOME_CODES[outcome],
    int(transmitted)]`` holds ``model.observe(outcome,
    transmitted=transmitted).code``.
    """
    table = np.empty((3, 2), dtype=np.int8)
    for outcome, row in OUTCOME_CODES.items():
        for transmitted in (False, True):
            signal = model.observe(outcome, transmitted=transmitted)
            table[row, int(transmitted)] = signal.code
    return table


class FeedbackModel(ABC):
    """Maps the ground-truth slot outcome to what stations can observe."""

    #: Human-readable name used in reports.
    name: str = "abstract"

    @abstractmethod
    def observe(self, outcome: SlotOutcome, *, transmitted: bool) -> FeedbackSignal:
        """Return the signal perceived by a station.

        Parameters
        ----------
        outcome:
            Ground-truth outcome of the slot.
        transmitted:
            Whether the observing station itself transmitted in this slot.
            (In every model a station knows its own action; in the paper's
            model a successful transmitter also learns of its success because
            all stations receive the message.)
        """


@dataclass(frozen=True)
class NoCollisionDetection(FeedbackModel):
    """The paper's model: no feedback on collisions.

    A station observes ``SUCCESS`` when some station transmits alone (it
    receives the message), and ``QUIET`` otherwise — whether the slot was
    silent or a collision.
    """

    name: str = "no-collision-detection"

    def observe(self, outcome: SlotOutcome, *, transmitted: bool) -> FeedbackSignal:
        if outcome is SlotOutcome.SUCCESS:
            return FeedbackSignal.SUCCESS
        return FeedbackSignal.QUIET


@dataclass(frozen=True)
class CollisionDetection(FeedbackModel):
    """Ternary feedback: silence / success / collision are all distinguishable.

    Not used by the paper's algorithms; needed by baseline protocols such as
    binary exponential backoff and tree-splitting, and by the lower bound of
    Greenberg–Winograd which holds *even with* collision detection.
    """

    name: str = "collision-detection"

    def observe(self, outcome: SlotOutcome, *, transmitted: bool) -> FeedbackSignal:
        if outcome is SlotOutcome.SUCCESS:
            return FeedbackSignal.SUCCESS
        if outcome is SlotOutcome.COLLISION:
            return FeedbackSignal.COLLISION
        return FeedbackSignal.QUIET
