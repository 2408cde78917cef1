"""Simulation engines for the slotted multiple-access channel.

Two execution paths are provided, both implementing exactly the same channel
semantics (a slot succeeds iff exactly one awake station transmits):

* :func:`run_deterministic` — for oblivious deterministic protocols
  (everything in :mod:`repro.core`).  Each awake station is asked for its
  transmit slots over a chunk of the timeline (a vectorized query), the
  per-slot transmitter counts are accumulated with :func:`numpy.add.at`, and
  the first slot with count 1 is the answer.  The timeline is scanned in
  geometrically growing chunks so short executions stay cheap and long ones
  do not re-scan earlier slots.

* :func:`run_randomized` — a slot-by-slot loop for randomized policies, which
  may be feedback-driven.  It is the *reference* engine: the batched
  randomized engine (:func:`repro.engine.run_randomized_batch`) reproduces
  its outcomes bit for bit given the same per-pattern generators, and the
  property suite holds the two to that contract.

Both return a :class:`WakeupResult`; the equivalence of the per-pattern and
batched paths (:mod:`repro.engine`) is covered by the test suite for both
protocol kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro._util import RngLike, as_generator
from repro.channel.channel import Channel
from repro.channel.events import SlotOutcome, SlotRecord
from repro.channel.feedback import CollisionDetection, FeedbackModel, NoCollisionDetection
from repro.channel.protocols import DeterministicProtocol, RandomizedPolicy
from repro.channel.trace import ExecutionTrace
from repro.channel.wakeup import WakeupPattern

__all__ = ["WakeupResult", "Simulator", "run_deterministic", "run_randomized"]

#: Default cap on the number of slots simulated after the first wake-up.
DEFAULT_MAX_SLOTS = 2_000_000

#: Initial chunk length for the chunked deterministic scan.
DEFAULT_CHUNK = 1024


@dataclass(frozen=True)
class WakeupResult:
    """Outcome of one simulated execution of a wake-up protocol.

    Attributes
    ----------
    solved:
        True iff some slot carried exactly one transmission within the horizon.
    n, k:
        Universe size and number of awakened stations.
    first_wake:
        ``s``, the slot of the first wake-up.
    success_slot:
        Absolute slot of the first success (``None`` if unsolved).
    winner:
        The station that transmitted alone (``None`` if unsolved).
    latency:
        ``success_slot - first_wake`` — the quantity every bound in the paper
        is stated in (``None`` if unsolved).
    slots_examined:
        Number of slots the simulator looked at (diagnostic).
    protocol:
        Name of the protocol/policy that produced the run.
    trace:
        Optional per-slot trace (only when requested).
    """

    solved: bool
    n: int
    k: int
    first_wake: int
    success_slot: Optional[int]
    winner: Optional[int]
    latency: Optional[int]
    slots_examined: int
    protocol: str
    trace: Optional[ExecutionTrace] = None

    def require_solved(self) -> int:
        """Return the latency, raising if the run did not solve wake-up."""
        if not self.solved or self.latency is None:
            raise RuntimeError(
                f"protocol {self.protocol!r} did not solve wake-up within the horizon"
            )
        return self.latency


def _winner_at(
    protocol: DeterministicProtocol, pattern: WakeupPattern, slot: int
) -> Optional[int]:
    """Identify the unique transmitter at ``slot``, if there is exactly one."""
    transmitters = [
        u
        for u, wake in pattern.wake_times.items()
        if wake <= slot and protocol.transmits(u, wake, slot)
    ]
    if len(transmitters) == 1:
        return transmitters[0]
    return None


def _build_trace(
    protocol: DeterministicProtocol,
    pattern: WakeupPattern,
    start: int,
    stop: int,
) -> ExecutionTrace:
    """Materialize a full per-slot trace for ``[start, stop)`` (small runs only)."""
    trace = ExecutionTrace()
    for slot in range(start, stop):
        transmitters = frozenset(
            u
            for u, wake in pattern.wake_times.items()
            if wake <= slot and protocol.transmits(u, wake, slot)
        )
        trace.append(
            SlotRecord(
                slot=slot,
                transmitters=transmitters,
                outcome=SlotOutcome.from_transmitter_count(len(transmitters)),
                awake=pattern.awake_count_at(slot),
            )
        )
    return trace


def run_deterministic(
    protocol: DeterministicProtocol,
    pattern: WakeupPattern,
    *,
    max_slots: int = DEFAULT_MAX_SLOTS,
    chunk: int = DEFAULT_CHUNK,
    record_trace: bool = False,
) -> WakeupResult:
    """Simulate a deterministic protocol against a wake-up pattern.

    Parameters
    ----------
    protocol:
        Any :class:`~repro.channel.protocols.DeterministicProtocol` over the
        same universe size as ``pattern``.
    pattern:
        The adversary's wake-up pattern.
    max_slots:
        Horizon: number of slots after the first wake-up to examine before
        giving up (an unsolved result is returned, not an exception).
    chunk:
        Initial chunk length for the scan; chunks double as the scan advances.
    record_trace:
        If True, a full per-slot trace from the first wake-up to the success
        slot (or the horizon) is attached to the result.  Quadratic-ish in
        cost; intended for small diagnostic runs.

    Returns
    -------
    WakeupResult
    """
    if protocol.n != pattern.n:
        raise ValueError(
            f"protocol universe n={protocol.n} does not match pattern n={pattern.n}"
        )
    start = pattern.first_wake
    horizon = start + int(max_slots)
    stations = pattern.wake_times

    chunk_start = start
    chunk_len = max(16, int(chunk))
    slots_examined = 0

    while chunk_start < horizon:
        chunk_stop = min(horizon, chunk_start + chunk_len)
        length = chunk_stop - chunk_start
        counts = np.zeros(length, dtype=np.int32)
        for station, wake in stations.items():
            if wake >= chunk_stop:
                continue
            slots = protocol.transmit_slots(station, wake, chunk_start, chunk_stop)
            if slots.size:
                np.add.at(counts, slots - chunk_start, 1)
        slots_examined += length
        singles = np.flatnonzero(counts == 1)
        if singles.size:
            success_slot = int(chunk_start + singles[0])
            winner = _winner_at(protocol, pattern, success_slot)
            # The vectorized count said "exactly one"; re-deriving the winner via
            # transmits() doubles as a consistency check between the two paths.
            if winner is None:
                raise RuntimeError(
                    "internal inconsistency: vectorized count found a singleton slot "
                    "but per-slot evaluation did not"
                )
            trace = (
                _build_trace(protocol, pattern, start, success_slot + 1)
                if record_trace
                else None
            )
            return WakeupResult(
                solved=True,
                n=pattern.n,
                k=pattern.k,
                first_wake=start,
                success_slot=success_slot,
                winner=winner,
                latency=success_slot - start,
                slots_examined=slots_examined,
                protocol=protocol.describe(),
                trace=trace,
            )
        chunk_start = chunk_stop
        chunk_len = min(chunk_len * 2, 1 << 20)

    trace = _build_trace(protocol, pattern, start, min(horizon, start + 4096)) if record_trace else None
    return WakeupResult(
        solved=False,
        n=pattern.n,
        k=pattern.k,
        first_wake=start,
        success_slot=None,
        winner=None,
        latency=None,
        slots_examined=slots_examined,
        protocol=protocol.describe(),
        trace=trace,
    )


def run_randomized(
    policy: RandomizedPolicy,
    pattern: WakeupPattern,
    *,
    rng: RngLike = None,
    max_slots: int = DEFAULT_MAX_SLOTS,
    feedback: Optional[FeedbackModel] = None,
    record_trace: bool = False,
) -> WakeupResult:
    """Simulate a randomized policy against a wake-up pattern.

    The channel feedback model defaults to the paper's no-collision-detection
    model; policies that declare ``requires_collision_detection`` get the
    ternary model automatically unless one is passed explicitly.

    The per-slot draw discipline — slots ascending, stations in pattern
    order, one uniform per awake station with positive probability — is a
    compatibility contract: :func:`repro.engine.run_randomized_batch`
    consumes generators in exactly this order so batches reproduce these
    outcomes bit for bit.
    """
    if policy.n != pattern.n:
        raise ValueError(
            f"policy universe n={policy.n} does not match pattern n={pattern.n}"
        )
    gen = as_generator(rng)
    if feedback is None:
        feedback = CollisionDetection() if policy.requires_collision_detection else NoCollisionDetection()

    channel = Channel(pattern.n, feedback=feedback, record_trace=record_trace)
    start = pattern.first_wake
    horizon = start + int(max_slots)
    states: Dict[int, object] = {}

    for slot in range(start, horizon):
        # Wake stations whose time has come.
        for station, wake in pattern.wake_times.items():
            if wake == slot or (wake < slot and station not in states):
                if station not in states:
                    states[station] = policy.create_state(station, wake)
        awake = [u for u, wake in pattern.wake_times.items() if wake <= slot]
        transmitters = []
        for station in awake:
            state = states[station]
            p = policy.transmit_probability(state, slot)  # type: ignore[arg-type]
            if p < 0.0 or p > 1.0:
                raise ValueError(
                    f"{policy.describe()} returned probability {p} outside [0, 1]"
                )
            if p > 0.0 and gen.random() < p:
                transmitters.append(station)
        outcome = channel.resolve_slot(slot, transmitters, awake=len(awake))
        for station in awake:
            transmitted = station in transmitters
            signal = channel.signal_for(outcome, transmitted=transmitted)
            # The pattern's generator is handed to observe so stochastic
            # feedback updates (backoff windows, splitting coins) draw from
            # the same per-pattern stream as the transmit decisions.
            policy.observe(states[station], slot, signal, transmitted, rng=gen)  # type: ignore[arg-type]
        if outcome is SlotOutcome.SUCCESS:
            return WakeupResult(
                solved=True,
                n=pattern.n,
                k=pattern.k,
                first_wake=start,
                success_slot=slot,
                winner=channel.winner,
                latency=slot - start,
                slots_examined=slot - start + 1,
                protocol=policy.describe(),
                trace=channel.trace if record_trace else None,
            )

    return WakeupResult(
        solved=False,
        n=pattern.n,
        k=pattern.k,
        first_wake=start,
        success_slot=None,
        winner=None,
        latency=None,
        slots_examined=horizon - start,
        protocol=policy.describe(),
        trace=channel.trace if record_trace else None,
    )


@dataclass
class Simulator:
    """Convenience façade bundling simulation options.

    Examples
    --------
    >>> from repro.core.round_robin import RoundRobin
    >>> from repro.channel import WakeupPattern
    >>> sim = Simulator(max_slots=10_000)
    >>> result = sim.run(RoundRobin(16), WakeupPattern(16, {5: 0, 9: 3}))
    >>> result.solved
    True
    """

    max_slots: int = DEFAULT_MAX_SLOTS
    chunk: int = DEFAULT_CHUNK
    record_trace: bool = False
    feedback: Optional[FeedbackModel] = None
    rng: RngLike = None

    def run(self, protocol, pattern: WakeupPattern) -> WakeupResult:
        """Run either kind of protocol, dispatching on its type."""
        if isinstance(protocol, DeterministicProtocol):
            return run_deterministic(
                protocol,
                pattern,
                max_slots=self.max_slots,
                chunk=self.chunk,
                record_trace=self.record_trace,
            )
        if isinstance(protocol, RandomizedPolicy):
            return run_randomized(
                protocol,
                pattern,
                rng=self.rng,
                max_slots=self.max_slots,
                feedback=self.feedback,
                record_trace=self.record_trace,
            )
        raise TypeError(
            f"expected a DeterministicProtocol or RandomizedPolicy, got {type(protocol).__name__}"
        )
