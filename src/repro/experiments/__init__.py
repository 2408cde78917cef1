"""Experiment orchestration: configurations, the E1–E11 registry, and the campaign.

Every claim of the paper maps to one experiment of the E1–E11 registry;
this package contains the code that runs them.  Each experiment is stated
once, as an :class:`~repro.experiments.campaign.ExperimentDefinition`
record: its title, the paper claim it checks, a ``cells`` function laying
out its content-hashable measurement specs, and a pure ``render`` over the
resolved records.  The record's ``plan`` is derived from its cells.  It runs
at an :class:`~repro.experiments.config.ExperimentScale` into an
:class:`~repro.experiments.runner.ExperimentResult` with raw rows, rendered
tables/figures, and bound certificates.
:class:`~repro.experiments.campaign.PaperCampaign` is the one path that runs
them: all of E1–E11 against one shared, resumable
:class:`~repro.sweeps.store.SweepStore` for ``repro paper``, a single one for
``repro experiment`` (:func:`~repro.experiments.registry.run_experiment`).
Every experiment's section (paper claim, certificates, tables, figures) is
rendered by :meth:`~repro.experiments.runner.ExperimentResult.summary`.
"""

from repro.experiments.config import ExperimentScale, QUICK, STANDARD, FULL
from repro.experiments.cache import FamilyCache, shared_cache
from repro.experiments.runner import ExperimentResult
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
