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
* :mod:`repro.channel.wakeup` — wake-up patterns (who wakes when), one at a
  time or as a columnar batch;
* :mod:`repro.channel.channel` — the slot-by-slot channel core;
* :mod:`repro.channel.simulator` — execution engines for deterministic
  protocols (vectorized) and randomized policies (slot loop);
* :mod:`repro.channel.adversary` — adversarial and stochastic wake-up pattern
  generators, including the lower-bound adversary of Theorem 2.1.
"""

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "SlotOutcome": "repro.channel.events",
    "SlotRecord": "repro.channel.events",
    "FeedbackModel": "repro.channel.feedback",
    "NoCollisionDetection": "repro.channel.feedback",
    "CollisionDetection": "repro.channel.feedback",
    "FeedbackSignal": "repro.channel.feedback",
    "WakeupPattern": "repro.channel.wakeup",
    "PatternBatch": "repro.channel.wakeup",
    "Channel": "repro.channel.channel",
    "DeterministicProtocol": "repro.channel.protocols",
    "FeedbackVectorizedPolicy": "repro.channel.protocols",
    "RandomizedPolicy": "repro.channel.protocols",
    "StationState": "repro.channel.protocols",
    "ExecutionTrace": "repro.channel.trace",
    "WakeupResult": "repro.channel.simulator",
    "Simulator": "repro.channel.simulator",
    "run_deterministic": "repro.channel.simulator",
    "run_randomized": "repro.channel.simulator",
    "simultaneous_pattern": "repro.channel.adversary",
    "staggered_pattern": "repro.channel.adversary",
    "batched_pattern": "repro.channel.adversary",
    "uniform_random_pattern": "repro.channel.adversary",
    "window_boundary_pattern": "repro.channel.adversary",
    "family_boundary_pattern": "repro.channel.adversary",
    "AdaptiveLowerBoundAdversary": "repro.channel.adversary",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
