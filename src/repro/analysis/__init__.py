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

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "sorted_median": "repro.analysis.statistics",
    "GrowthModel": "repro.analysis.fitting",
    "STANDARD_MODELS": "repro.analysis.fitting",
    "FitResult": "repro.analysis.fitting",
    "fit_model": "repro.analysis.fitting",
    "best_model": "repro.analysis.fitting",
    "BoundCertificate": "repro.analysis.certificates",
    "bound_ratio": "repro.analysis.certificates",
    "check_upper_bound": "repro.analysis.certificates",
    "check_lower_bound": "repro.analysis.certificates",
    "who_wins": "repro.analysis.shape",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
