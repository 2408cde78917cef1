"""Multiple-access channel substrate: slotted channel, simulator, adversaries.

The paper's model is a *slotted* shared channel: in every time slot each
station either transmits or listens; a slot is **successful** iff exactly one
station transmits, in which case every station (awake or not-yet-awake, per
the paper's wake-up semantics the message is heard by all) receives the
message.  With two or more transmitters the messages collide; in the
no-collision-detection model (the one used by the paper) a collided slot is
indistinguishable from a silent one.

This subpackage implements that model exactly and provides:

* :mod:`repro.channel.events` — slot outcomes and per-slot records;
* :mod:`repro.channel.feedback` — feedback models (none / collision detection);
* :mod:`repro.channel.wakeup` — wake-up patterns (who wakes when);
* :mod:`repro.channel.channel` — the slot-by-slot channel core;
* :mod:`repro.channel.simulator` — execution engines for deterministic
  protocols (vectorized) and randomized policies (slot loop);
* :mod:`repro.channel.adversary` — adversarial and stochastic wake-up pattern
  generators, including the lower-bound adversary of Theorem 2.1.
"""

from repro.channel.events import SlotOutcome, SlotRecord
from repro.channel.feedback import (
    FeedbackModel,
    NoCollisionDetection,
    CollisionDetection,
    FeedbackSignal,
)
from repro.channel.wakeup import WakeupPattern
from repro.channel.channel import Channel
from repro.channel.protocols import (
    DeterministicProtocol,
    FeedbackVectorizedPolicy,
    RandomizedPolicy,
    StationState,
)
from repro.channel.trace import ExecutionTrace
from repro.channel.simulator import (
    WakeupResult,
    Simulator,
    run_deterministic,
    run_randomized,
)
from repro.channel.adversary import (
    simultaneous_pattern,
    staggered_pattern,
    batched_pattern,
    uniform_random_pattern,
    window_boundary_pattern,
    family_boundary_pattern,
    AdaptiveLowerBoundAdversary,
    PATTERN_GENERATORS,
)

__all__ = [
    "SlotOutcome",
    "SlotRecord",
    "FeedbackModel",
    "NoCollisionDetection",
    "CollisionDetection",
    "FeedbackSignal",
    "WakeupPattern",
    "Channel",
    "DeterministicProtocol",
    "FeedbackVectorizedPolicy",
    "RandomizedPolicy",
    "StationState",
    "ExecutionTrace",
    "WakeupResult",
    "Simulator",
    "run_deterministic",
    "run_randomized",
    "simultaneous_pattern",
    "staggered_pattern",
    "batched_pattern",
    "uniform_random_pattern",
    "window_boundary_pattern",
    "family_boundary_pattern",
    "AdaptiveLowerBoundAdversary",
    "PATTERN_GENERATORS",
]
