"""Experiment orchestration: configurations, the E1–E11 registry, and the campaign.

Every claim of the paper maps to one experiment of the E1–E11 registry;
this package contains the code that runs them.  Each experiment is
an :class:`~repro.experiments.campaign.ExperimentDefinition` — a ``plan``
function stating its measurement demand as content-hashable specs, plus a pure
``render`` over the resolved records — run at an
:class:`~repro.experiments.config.ExperimentScale` into an
:class:`~repro.experiments.runner.ExperimentResult` with raw rows, rendered
tables/figures, and bound certificates.
:class:`~repro.experiments.campaign.PaperCampaign` runs all of E1–E11 against
one shared, resumable :class:`~repro.sweeps.store.SweepStore` (``repro paper``
on the command line); ``repro paper report`` renders every experiment's
section (paper claim, certificates, tables, figures) through
:meth:`~repro.experiments.runner.ExperimentResult.summary`.
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
    run_experiment,
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
    "run_experiment",
]
