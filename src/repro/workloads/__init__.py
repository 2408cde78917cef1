"""Workload suite: named, reproducible wake-up scenario generators.

All bounds in the paper are worst-case over the adversary's choice of wake-up
pattern, so empirical coverage is a function of how many *different* pattern
shapes the harness exercises.  This package is the first-class library of
those shapes:

* :mod:`repro.workloads.generators` — the suite's own generators
  (heavy-tailed staggering, periodic duty-cycles, churn bursts, clustered-ID
  adversaries, density sweeps), complementing the structured attacks in
  :mod:`repro.channel.adversary`;
* :mod:`repro.workloads.suite` — the registry (:data:`WORKLOADS`, extended
  only through :func:`register_workload`) and the :class:`WorkloadSuite`
  façade yielding reproducible batches from ``(name, n, k, seed)``.

Batches from the suite feed the batch engine directly:

>>> from repro.engine import run_deterministic_batch
>>> from repro.workloads import WorkloadSuite
>>> from repro.core.round_robin import RoundRobin
>>> patterns = WorkloadSuite().generate("duty-cycle", n=64, k=8, batch=32, seed=1)
>>> run_deterministic_batch(RoundRobin(64), patterns).solved.all()
np.True_

From the command line: ``python -m repro workloads list`` /
``... workloads sample --workload churn`` / ``... workloads run --protocol
scenario-b --workload heavy-tailed --batch 256``.
"""

from repro.workloads.generators import (
    churn_burst_pattern,
    clustered_id_pattern,
    density_drawn_pattern,
    duty_cycle_pattern,
    heavy_tailed_pattern,
)
from repro.workloads.suite import (
    WORKLOADS,
    Workload,
    WorkloadSuite,
    register_workload,
)

__all__ = [
    "Workload",
    "WorkloadSuite",
    "WORKLOADS",
    "register_workload",
    "heavy_tailed_pattern",
    "duty_cycle_pattern",
    "churn_burst_pattern",
    "clustered_id_pattern",
    "density_drawn_pattern",
]
