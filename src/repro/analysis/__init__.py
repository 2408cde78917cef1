"""Analysis utilities: statistics, growth-model fitting, bound certificates, shape checks.

The reproduction cannot (and should not) match the paper's constants — the
bounds are asymptotic — so the experiment harness validates *shape* instead:

* :mod:`repro.analysis.statistics` — the numpy-free median of a sample;
* :mod:`repro.analysis.fitting` — least-squares fitting of measured latencies
  against candidate growth models (``k``, ``k log(n/k)``, ``k log n``,
  ``k log n log log n``, ...) and model selection;
* :mod:`repro.analysis.certificates` — "the measured latency divided by the
  theoretical bound stays below a constant" checks, the machine-checkable
  form of each claim in ``repro paper report``;
* :mod:`repro.analysis.shape` — who-wins comparisons between algorithms
  (e.g. round-robin vs the selective arm as ``k → n``).
"""

from repro.analysis.statistics import sorted_median
from repro.analysis.fitting import (
    GrowthModel,
    STANDARD_MODELS,
    FitResult,
    fit_model,
    best_model,
)
from repro.analysis.certificates import (
    BoundCertificate,
    bound_ratio,
    check_upper_bound,
    check_lower_bound,
)
from repro.analysis.shape import who_wins

__all__ = [
    "sorted_median",
    "GrowthModel",
    "STANDARD_MODELS",
    "FitResult",
    "fit_model",
    "best_model",
    "BoundCertificate",
    "bound_ratio",
    "check_upper_bound",
    "check_lower_bound",
    "who_wins",
]
