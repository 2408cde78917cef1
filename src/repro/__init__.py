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

Every name below is exported lazily (PEP 562): ``import repro`` runs no
submodule, and ``from repro import X`` imports only the module defining
``X``.  Each sub-package re-exports its names the same way.
"""

import importlib
import sys
from typing import Callable, Dict, List, Tuple

__version__ = "1.0.0"


def _export_lazily(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for a package that re-exports lazily.

    ``exports`` maps each public name to the module that defines it.  The
    first access to a name imports that module and caches the value in the
    package, so later lookups are plain attribute reads.
    """

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__


#: Public name -> the module defining it.
_EXPORTS = {
    # channel substrate
    "Channel": "repro.channel.channel",
    "CollisionDetection": "repro.channel.feedback",
    "DeterministicProtocol": "repro.channel.protocols",
    "ExecutionTrace": "repro.channel.trace",
    "FeedbackSignal": "repro.channel.feedback",
    "NoCollisionDetection": "repro.channel.feedback",
    "PatternBatch": "repro.channel.wakeup",
    "RandomizedPolicy": "repro.channel.protocols",
    "Simulator": "repro.channel.simulator",
    "SlotOutcome": "repro.channel.events",
    "WakeupPattern": "repro.channel.wakeup",
    "WakeupResult": "repro.channel.simulator",
    "run_deterministic": "repro.channel.simulator",
    "run_randomized": "repro.channel.simulator",
    # adversaries / patterns
    "AdaptiveLowerBoundAdversary": "repro.channel.adversary",
    "batched_pattern": "repro.channel.adversary",
    "simultaneous_pattern": "repro.channel.adversary",
    "staggered_pattern": "repro.channel.adversary",
    "uniform_random_pattern": "repro.channel.adversary",
    # guided adversarial search
    "SearchCertificate": "repro.adversary.certificates",
    "SearchSpec": "repro.adversary.search",
    "adversarial_search": "repro.adversary.search",
    "replay_certificate": "repro.adversary.certificates",
    # core algorithms
    "FixedProbabilityPolicy": "repro.core.randomized",
    "HashedTransmissionMatrix": "repro.core.waking_matrix",
    "InterleavedProtocol": "repro.core.schedules",
    "RepeatedProbabilityDecrease": "repro.core.randomized",
    "RoundRobin": "repro.core.round_robin",
    "SelectAmongTheFirst": "repro.core.scenario_a",
    "SelectiveFamily": "repro.core.selective",
    "WaitAndGo": "repro.core.scenario_b",
    "WakeupProtocol": "repro.core.scenario_c",
    "WakeupWithK": "repro.core.scenario_b",
    "WakeupWithS": "repro.core.scenario_a",
    "concatenated_families": "repro.core.selective",
    "matrix_parameters": "repro.core.matrix_params",
    "random_selective_family": "repro.core.selective",
    "scenario_ab_bound": "repro.core.lower_bounds",
    "scenario_c_bound": "repro.core.lower_bounds",
    "trivial_lower_bound": "repro.core.lower_bounds",
    # batch engine
    "BatchResult": "repro.engine.result",
    "Campaign": "repro.engine.campaign",
    "run_deterministic_batch": "repro.engine.batch",
    "run_feedback_batch": "repro.engine.feedback_batch",
    "run_randomized_batch": "repro.engine.batch",
    # results service
    "ResultsService": "repro.service.daemon",
    "ServiceClient": "repro.service.client",
    "normalize_query": "repro.service.api",
    # sweep orchestration
    "SweepConfig": "repro.sweeps.spec",
    "SweepResult": "repro.sweeps.runner",
    "SweepRunner": "repro.sweeps.runner",
    "SweepSpec": "repro.sweeps.spec",
    "SweepStore": "repro.sweeps.store",
    # workload suite
    "WORKLOADS": "repro.workloads.suite",
    "WorkloadSuite": "repro.workloads.suite",
    "register_workload": "repro.workloads.suite",
    # experiments
    "DEFINITIONS": "repro.experiments.registry",
    "QUICK": "repro.experiments.config",
    "STANDARD": "repro.experiments.config",
    "FULL": "repro.experiments.config",
    "run_experiment": "repro.experiments.campaign",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
