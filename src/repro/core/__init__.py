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
* :mod:`repro.core.waking_matrix` — transmission matrices, window/µ machinery,
  well-balancedness and isolation checks (Section 5.2–5.3);
* :mod:`repro.core.scenario_c` — protocol ``WAKEUP(n)`` (Section 5.1);
* :mod:`repro.core.lower_bounds` — the paper's bound formulas (Section 2);
* :mod:`repro.core.randomized` — the randomized protocols discussed in
  Section 6 (RPD and variants).
"""

from repro.core.schedules import (
    FamilySchedule,
    CyclicFamilySchedule,
    InterleavedProtocol,
    SilentProtocol,
    virtual_wake_time,
)
from repro.core.round_robin import RoundRobin
from repro.core.selective import (
    SelectiveFamily,
    selective_family_target_length,
    random_selective_family,
    explicit_selective_family,
    concatenated_families,
)
from repro.core.scenario_a import SelectAmongTheFirst, WakeupWithS
from repro.core.scenario_b import WaitAndGo, WakeupWithK
from repro.core.waking_matrix import (
    TransmissionMatrix,
    HashedTransmissionMatrix,
    ExplicitTransmissionMatrix,
    matrix_parameters,
    MatrixParameters,
    operational_sets,
    is_well_balanced_slot,
    isolated_station_at,
    first_isolation,
)
from repro.core.scenario_c import WakeupProtocol
from repro.core.lower_bounds import (
    trivial_lower_bound,
    clementi_lower_bound,
    scenario_ab_bound,
    scenario_c_bound,
    randomized_lower_bound,
    round_robin_worst_case,
    bound_table,
)
from repro.core.randomized import (
    RepeatedProbabilityDecrease,
    DecayPolicy,
    FixedProbabilityPolicy,
)
from repro.core.local_clock import (
    LocalClockWakeup,
    LocalClockScenarioC,
)
from repro.core.matrix_search import (
    MatrixVerificationReport,
    adversarial_pattern_battery,
    verify_matrix,
    find_waking_matrix_seed,
)

__all__ = [
    "FamilySchedule",
    "CyclicFamilySchedule",
    "InterleavedProtocol",
    "SilentProtocol",
    "virtual_wake_time",
    "RoundRobin",
    "SelectiveFamily",
    "selective_family_target_length",
    "random_selective_family",
    "explicit_selective_family",
    "concatenated_families",
    "SelectAmongTheFirst",
    "WakeupWithS",
    "WaitAndGo",
    "WakeupWithK",
    "TransmissionMatrix",
    "HashedTransmissionMatrix",
    "ExplicitTransmissionMatrix",
    "matrix_parameters",
    "MatrixParameters",
    "operational_sets",
    "is_well_balanced_slot",
    "isolated_station_at",
    "first_isolation",
    "WakeupProtocol",
    "trivial_lower_bound",
    "clementi_lower_bound",
    "scenario_ab_bound",
    "scenario_c_bound",
    "randomized_lower_bound",
    "round_robin_worst_case",
    "bound_table",
    "RepeatedProbabilityDecrease",
    "DecayPolicy",
    "FixedProbabilityPolicy",
    "LocalClockWakeup",
    "LocalClockScenarioC",
    "MatrixVerificationReport",
    "adversarial_pattern_battery",
    "verify_matrix",
    "find_waking_matrix_seed",
]
