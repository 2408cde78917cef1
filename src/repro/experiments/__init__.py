"""Experiment orchestration: configurations, the E1–E11 registry, and the campaign.

Every claim of the paper maps to one experiment of the E1–E11 registry;
this package contains the code that runs them.  Each experiment is
an :class:`~repro.experiments.campaign.ExperimentDefinition` — a ``plan``
function stating its measurement demand as content-hashable specs, plus a pure
``render`` over the resolved records — and the historical per-experiment
callables wrap the definitions, taking an
:class:`~repro.experiments.config.ExperimentScale` and returning an
:class:`~repro.experiments.runner.ExperimentResult` with raw rows, rendered
tables/figures, and bound certificates.
:class:`~repro.experiments.campaign.PaperCampaign` runs all of E1–E11 against
one shared, resumable :class:`~repro.sweeps.store.SweepStore` (``repro paper``
on the command line); ``repro paper report`` renders every experiment's
section (paper claim, certificates, tables, figures) through
:meth:`~repro.experiments.runner.ExperimentResult.summary`, and the
``benchmarks/`` tree runs the same registry.
"""

from repro.experiments.config import ExperimentScale, QUICK, STANDARD, FULL
from repro.experiments.cache import FamilyCache, shared_cache
from repro.experiments.runner import (
    ExperimentResult,
    measure_latency,
    worst_latency,
    mean_latency,
)
from repro.experiments.campaign import (
    CampaignResult,
    ExperimentDefinition,
    MeasurementSpec,
    PaperCampaign,
    ResolvedSpecs,
    dedup_specs,
    render_campaign_report,
    resolve_specs,
)
from repro.experiments.registry import (
    DEFINITIONS,
    EXPERIMENTS,
    run_experiment,
    experiment_e1_scenario_a,
    experiment_e2_scenario_b,
    experiment_e3_scenario_c,
    experiment_e4_lower_bound,
    experiment_e5_scenario_gap,
    experiment_e6_randomized,
    experiment_e7_matrix_structure,
    experiment_e8_selective_families,
    experiment_e9_baselines,
    experiment_e10_ablations,
    experiment_e11_global_vs_local_clock,
)

__all__ = [
    "ExperimentScale",
    "QUICK",
    "STANDARD",
    "FULL",
    "FamilyCache",
    "shared_cache",
    "ExperimentResult",
    "measure_latency",
    "worst_latency",
    "mean_latency",
    "CampaignResult",
    "ExperimentDefinition",
    "MeasurementSpec",
    "PaperCampaign",
    "ResolvedSpecs",
    "dedup_specs",
    "render_campaign_report",
    "resolve_specs",
    "DEFINITIONS",
    "EXPERIMENTS",
    "run_experiment",
    "experiment_e1_scenario_a",
    "experiment_e2_scenario_b",
    "experiment_e3_scenario_c",
    "experiment_e4_lower_bound",
    "experiment_e5_scenario_gap",
    "experiment_e6_randomized",
    "experiment_e7_matrix_structure",
    "experiment_e8_selective_families",
    "experiment_e9_baselines",
    "experiment_e10_ablations",
    "experiment_e11_global_vs_local_clock",
]
