"""repro — reproduction of *Contention Resolution in a Non-Synchronized Multiple Access Channel*.

The library implements the deterministic wake-up (contention-resolution)
algorithms of De Marco & Kowalski (IPDPS 2013) together with everything they
stand on: a slotted multiple-access channel simulator, selective-family and
waking-matrix constructions, adversarial wake-up pattern generators, classical
baselines, and the analysis/benchmark harness that validates every bound the
paper states.

Quickstart
----------

>>> from repro import WakeupWithK, WakeupPattern, run_deterministic
>>> protocol = WakeupWithK(n=64, k=8, rng=0)          # Scenario B: k known
>>> pattern = WakeupPattern(64, {5: 0, 17: 3, 40: 9})  # three stations wake up
>>> result = run_deterministic(protocol, pattern)
>>> result.solved, result.winner is not None
(True, True)

The three scenarios of the paper map to three protocol classes:

========  ======================  ======================================
Scenario  Knowledge               Protocol class
========  ======================  ======================================
A         start time ``s``        :class:`repro.core.scenario_a.WakeupWithS`
B         contender bound ``k``   :class:`repro.core.scenario_b.WakeupWithK`
C         nothing (only ``n``)    :class:`repro.core.scenario_c.WakeupProtocol`
========  ======================  ======================================

``repro paper report`` renders the paper-vs-measured record of every
experiment (E1–E11); ``README.md`` maps the package's modules.
"""

from repro.channel import (
    Channel,
    CollisionDetection,
    DeterministicProtocol,
    ExecutionTrace,
    FeedbackSignal,
    NoCollisionDetection,
    RandomizedPolicy,
    Simulator,
    SlotOutcome,
    WakeupPattern,
    WakeupResult,
    run_deterministic,
    run_randomized,
)
from repro.channel.adversary import (
    AdaptiveLowerBoundAdversary,
    batched_pattern,
    simultaneous_pattern,
    staggered_pattern,
    uniform_random_pattern,
)
from repro.adversary import (
    SearchCertificate,
    SearchSpec,
    adversarial_search,
    replay_certificate,
)
from repro.core import (
    FixedProbabilityPolicy,
    HashedTransmissionMatrix,
    InterleavedProtocol,
    RepeatedProbabilityDecrease,
    RoundRobin,
    SelectAmongTheFirst,
    SelectiveFamily,
    WaitAndGo,
    WakeupProtocol,
    WakeupWithK,
    WakeupWithS,
    concatenated_families,
    matrix_parameters,
    random_selective_family,
    scenario_ab_bound,
    scenario_c_bound,
    trivial_lower_bound,
)
from repro.engine import (
    BatchResult,
    Campaign,
    run_deterministic_batch,
    run_feedback_batch,
    run_randomized_batch,
)
from repro.experiments import (
    DEFINITIONS,
    QUICK,
    STANDARD,
    FULL,
    run_experiment,
)
from repro.service import (
    ResultsService,
    ServiceClient,
    normalize_query,
)
from repro.sweeps import (
    SweepConfig,
    SweepResult,
    SweepRunner,
    SweepSpec,
    SweepStore,
)
from repro.workloads import (
    WORKLOADS,
    WorkloadSuite,
    load_entry_point_workloads,
    register_workload,
)

__version__ = "1.0.0"

__all__ = [
    # channel substrate
    "Channel",
    "CollisionDetection",
    "DeterministicProtocol",
    "ExecutionTrace",
    "FeedbackSignal",
    "NoCollisionDetection",
    "RandomizedPolicy",
    "Simulator",
    "SlotOutcome",
    "WakeupPattern",
    "WakeupResult",
    "run_deterministic",
    "run_randomized",
    # adversaries / patterns
    "AdaptiveLowerBoundAdversary",
    "batched_pattern",
    "simultaneous_pattern",
    "staggered_pattern",
    "uniform_random_pattern",
    # guided adversarial search
    "SearchCertificate",
    "SearchSpec",
    "adversarial_search",
    "replay_certificate",
    # core algorithms
    "FixedProbabilityPolicy",
    "HashedTransmissionMatrix",
    "InterleavedProtocol",
    "RepeatedProbabilityDecrease",
    "RoundRobin",
    "SelectAmongTheFirst",
    "SelectiveFamily",
    "WaitAndGo",
    "WakeupProtocol",
    "WakeupWithK",
    "WakeupWithS",
    "concatenated_families",
    "matrix_parameters",
    "random_selective_family",
    "scenario_ab_bound",
    "scenario_c_bound",
    "trivial_lower_bound",
    # batch engine
    "BatchResult",
    "Campaign",
    "run_deterministic_batch",
    "run_feedback_batch",
    "run_randomized_batch",
    # results service
    "ResultsService",
    "ServiceClient",
    "normalize_query",
    # sweep orchestration
    "SweepConfig",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SweepStore",
    # workload suite
    "WORKLOADS",
    "WorkloadSuite",
    "load_entry_point_workloads",
    "register_workload",
    # experiments
    "DEFINITIONS",
    "QUICK",
    "STANDARD",
    "FULL",
    "run_experiment",
    "__version__",
]
