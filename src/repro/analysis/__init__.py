"""Analysis utilities: statistics, growth-model fitting, bound certificates, shape checks.

The reproduction cannot (and should not) match the paper's constants — the
bounds are asymptotic — so the experiment harness validates *shape* instead:

* :mod:`repro.analysis.statistics` — summaries over repeated runs (mean,
  median, quantiles, bootstrap confidence intervals);
* :mod:`repro.analysis.fitting` — least-squares fitting of measured latencies
  against candidate growth models (``k``, ``k log(n/k)``, ``k log n``,
  ``k log n log log n``, ...) and model selection;
* :mod:`repro.analysis.certificates` — "the measured latency divided by the
  theoretical bound stays below a constant" checks, the machine-checkable
  form of each claim in ``repro paper report``;
* :mod:`repro.analysis.shape` — who-wins comparisons and crossover detection
  between algorithms (e.g. round-robin vs the selective arm as ``k → n``).
"""

from repro.analysis.statistics import (
    SummaryStatistics,
    sorted_median,
    summarize,
    bootstrap_confidence_interval,
    geometric_mean,
)
from repro.analysis.fitting import (
    GrowthModel,
    STANDARD_MODELS,
    FitResult,
    fit_model,
    best_model,
    normalized_ratios,
)
from repro.analysis.certificates import (
    BoundCertificate,
    bound_ratio,
    check_upper_bound,
    check_lower_bound,
    ratio_table,
)
from repro.analysis.shape import (
    crossover_point,
    who_wins,
    monotonicity_violations,
    relative_gap,
)

__all__ = [
    "SummaryStatistics",
    "sorted_median",
    "summarize",
    "bootstrap_confidence_interval",
    "geometric_mean",
    "GrowthModel",
    "STANDARD_MODELS",
    "FitResult",
    "fit_model",
    "best_model",
    "normalized_ratios",
    "BoundCertificate",
    "bound_ratio",
    "check_upper_bound",
    "check_lower_bound",
    "ratio_table",
    "crossover_point",
    "who_wins",
    "monotonicity_violations",
    "relative_gap",
]
