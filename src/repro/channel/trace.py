"""Execution traces: the per-slot history of a simulation.

A trace records every slot from the first wake-up to the end of the
simulation.  Traces are optional (the vectorized simulator skips building them
unless asked) but invaluable for debugging protocols, rendering the paper's
Figure-2 style column-alignment pictures, and for the invariants checked in
tests (e.g. "no station transmits before its wake-up slot").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.channel.events import SlotRecord

__all__ = ["ExecutionTrace"]


@dataclass
class ExecutionTrace:
    """An append-only list of :class:`SlotRecord` for one simulation run."""

    records: List[SlotRecord] = field(default_factory=list)

    def append(self, record: SlotRecord) -> None:
        """Append a record; slots must be appended in strictly increasing order."""
        if self.records and record.slot <= self.records[-1].slot:
            raise ValueError(
                f"slot {record.slot} appended out of order (last was {self.records[-1].slot})"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SlotRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> SlotRecord:
        return self.records[index]

    def first_success(self) -> Optional[SlotRecord]:
        """The first successful slot, or ``None`` if no success was recorded."""
        for record in self.records:
            if record.outcome.is_success:
                return record
        return None
