"""The slot-by-slot multiple-access channel core.

:class:`Channel` implements the exact collision semantics of the paper's
model: a slot succeeds iff exactly one station transmits.  It is deliberately
tiny — the interesting machinery lives in the protocols and the simulator —
but it is the single place where the success/collision rule is encoded, and
both simulation paths (the slot loop for randomized policies and the
vectorized path for deterministic schedules) are tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro._util import validate_positive_int, validate_station_ids
from repro.channel.events import SlotOutcome, SlotRecord
from repro.channel.feedback import FeedbackModel, FeedbackSignal, NoCollisionDetection
from repro.channel.trace import ExecutionTrace

__all__ = ["Channel"]


@dataclass
class Channel:
    """A slotted multiple-access channel without central control.

    Parameters
    ----------
    n:
        Number of stations that can be attached (IDs ``1..n``).
    feedback:
        Feedback model determining what stations observe after each slot.
        Defaults to the paper's :class:`NoCollisionDetection`.
    record_trace:
        If True (default), every resolved slot is appended to :attr:`trace`.

    Examples
    --------
    >>> ch = Channel(8)
    >>> ch.resolve_slot(0, transmitters=[3])
    <SlotOutcome.SUCCESS: 'success'>
    >>> ch.resolve_slot(1, transmitters=[3, 5])
    <SlotOutcome.COLLISION: 'collision'>
    >>> ch.success_slot, ch.winner
    (0, 3)
    """

    n: int
    feedback: FeedbackModel = field(default_factory=NoCollisionDetection)
    record_trace: bool = True

    trace: ExecutionTrace = field(default_factory=ExecutionTrace, init=False)
    success_slot: Optional[int] = field(default=None, init=False)
    winner: Optional[int] = field(default=None, init=False)
    slots_resolved: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        validate_positive_int(self.n, "n")

    @property
    def has_succeeded(self) -> bool:
        """True once some slot carried exactly one transmission."""
        return self.success_slot is not None

    def resolve_slot(
        self,
        slot: int,
        transmitters: Iterable[int],
        *,
        awake: int = 0,
    ) -> SlotOutcome:
        """Resolve one slot given the set of transmitting stations.

        Parameters
        ----------
        slot:
            Absolute slot index (must be strictly increasing across calls when
            tracing is enabled).
        transmitters:
            Stations transmitting in this slot.  IDs are validated against
            ``[1, n]`` and must be distinct.
        awake:
            Optional diagnostic count of awake stations, stored in the trace.

        Returns
        -------
        SlotOutcome
            The ground-truth outcome of the slot.
        """
        ids = validate_station_ids(transmitters, self.n)
        outcome = SlotOutcome.from_transmitter_count(len(ids))
        if outcome is SlotOutcome.SUCCESS and not self.has_succeeded:
            self.success_slot = int(slot)
            self.winner = ids[0]
        if self.record_trace:
            self.trace.append(
                SlotRecord(
                    slot=int(slot),
                    transmitters=frozenset(ids),
                    outcome=outcome,
                    awake=int(awake),
                )
            )
        self.slots_resolved += 1
        return outcome

    def signal_for(self, outcome: SlotOutcome, *, transmitted: bool) -> FeedbackSignal:
        """Translate a ground-truth outcome into the station-visible signal."""
        return self.feedback.observe(outcome, transmitted=transmitted)

    def reset(self) -> None:
        """Clear all state so the channel can be reused for another run."""
        self.trace = ExecutionTrace()
        self.success_slot = None
        self.winner = None
        self.slots_resolved = 0
