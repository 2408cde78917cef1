"""Tests for repro.channel.trace.ExecutionTrace."""

from __future__ import annotations

import pytest

from repro.channel.events import SlotOutcome, SlotRecord
from repro.channel.trace import ExecutionTrace


def _record(slot, transmitters):
    return SlotRecord(
        slot=slot,
        transmitters=frozenset(transmitters),
        outcome=SlotOutcome.from_transmitter_count(len(transmitters)),
    )


class TestExecutionTrace:
    def test_append_and_iterate(self):
        trace = ExecutionTrace()
        trace.append(_record(0, []))
        trace.append(_record(1, [2, 3]))
        trace.append(_record(2, [4]))
        assert len(trace) == 3
        assert [r.slot for r in trace] == [0, 1, 2]
        assert trace[1].outcome is SlotOutcome.COLLISION

    def test_out_of_order_append_rejected(self):
        trace = ExecutionTrace()
        trace.append(_record(3, []))
        with pytest.raises(ValueError):
            trace.append(_record(3, []))
        with pytest.raises(ValueError):
            trace.append(_record(1, []))

    def test_first_success(self):
        trace = ExecutionTrace()
        trace.append(_record(0, [1, 2]))
        trace.append(_record(1, [5]))
        trace.append(_record(2, [6]))
        first = trace.first_success()
        assert first is not None and first.slot == 1 and first.winner == 5

    def test_first_success_none(self):
        trace = ExecutionTrace()
        trace.append(_record(0, [1, 2]))
        assert trace.first_success() is None
