"""The paper's contribution: deterministic contention-resolution protocols.

This subpackage contains the algorithms of De Marco & Kowalski (IPDPS 2013):

* :mod:`repro.core.schedules` — schedule building blocks (family schedules,
  interleaving, silence) shared by all scenarios;
* :mod:`repro.core.round_robin` — the round-robin arm used in Scenarios A/B;
* :mod:`repro.core.selective` — (n, k)-selective families (randomized and
  explicit constructions) and the concatenated schedules built from them;
* :mod:`repro.core.scenario_a` — ``SELECT-AMONG-THE-FIRST`` and
  ``WAKEUP-WITH-S`` (known start time, Section 3);
* :mod:`repro.core.scenario_b` — ``WAIT-AND-GO`` and ``WAKEUP-WITH-K``
  (known bound on contenders, Section 4);
* :mod:`repro.core.matrix_params` — the waking matrix's integer parameters
  (rows, window, row spans, µ and ρ; Section 5.2);
* :mod:`repro.core.waking_matrix` — transmission matrices, window/µ machinery,
  well-balancedness and isolation checks (Section 5.2–5.3);
* :mod:`repro.core.scenario_c` — protocol ``WAKEUP(n)`` (Section 5.1);
* :mod:`repro.core.lower_bounds` — the paper's bound formulas (Section 2);
* :mod:`repro.core.randomized` — the randomized protocols discussed in
  Section 6 (RPD and variants).
"""

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "FamilySchedule": "repro.core.schedules",
    "CyclicFamilySchedule": "repro.core.schedules",
    "InterleavedProtocol": "repro.core.schedules",
    "SilentProtocol": "repro.core.schedules",
    "virtual_wake_time": "repro.core.schedules",
    "RoundRobin": "repro.core.round_robin",
    "selective_family_target_length": "repro.core.selective",
    "random_selective_family": "repro.core.selective",
    "concatenated_families": "repro.core.selective",
    "SelectAmongTheFirst": "repro.core.scenario_a",
    "WakeupWithS": "repro.core.scenario_a",
    "WaitAndGo": "repro.core.scenario_b",
    "WakeupWithK": "repro.core.scenario_b",
    "TransmissionMatrix": "repro.core.waking_matrix",
    "HashedTransmissionMatrix": "repro.core.waking_matrix",
    "ExplicitTransmissionMatrix": "repro.core.waking_matrix",
    "matrix_parameters": "repro.core.matrix_params",
    "MatrixParameters": "repro.core.matrix_params",
    "operational_sets": "repro.core.waking_matrix",
    "is_well_balanced_slot": "repro.core.waking_matrix",
    "isolated_station_at": "repro.core.waking_matrix",
    "first_isolation": "repro.core.waking_matrix",
    "WakeupProtocol": "repro.core.scenario_c",
    "trivial_lower_bound": "repro.core.lower_bounds",
    "clementi_lower_bound": "repro.core.lower_bounds",
    "scenario_ab_bound": "repro.core.lower_bounds",
    "scenario_c_bound": "repro.core.lower_bounds",
    "randomized_lower_bound": "repro.core.lower_bounds",
    "round_robin_worst_case": "repro.core.lower_bounds",
    "bound_table": "repro.core.lower_bounds",
    "RepeatedProbabilityDecrease": "repro.core.randomized",
    "DecayPolicy": "repro.core.randomized",
    "FixedProbabilityPolicy": "repro.core.randomized",
    "LocalClockWakeup": "repro.core.local_clock",
    "LocalClockScenarioC": "repro.core.local_clock",
    "MatrixVerificationReport": "repro.core.matrix_search",
    "adversarial_pattern_battery": "repro.core.matrix_search",
    "verify_matrix": "repro.core.matrix_search",
    "find_waking_matrix_seed": "repro.core.matrix_search",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
