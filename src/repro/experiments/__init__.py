"""Experiment orchestration: configurations, the E1–E11 registry, and the campaign.

Every claim of the paper maps to one experiment of the E1–E11 registry;
this package contains the code that runs them.  Each experiment is stated
once, as an :class:`~repro.experiments.definition.ExperimentDefinition`
record: its title, the paper claim it checks, a ``cells`` function laying
out its content-hashable measurement specs, and a pure ``render`` over the
resolved records.  The record's ``plan`` is derived from its cells.  It runs
at an :class:`~repro.experiments.config.ExperimentScale` into an
:class:`~repro.experiments.runner.ExperimentResult` with raw rows, rendered
tables/figures, and bound certificates.
:class:`~repro.experiments.campaign.PaperCampaign` is the one path that runs
them: all of E1–E11 against one shared, resumable
:class:`~repro.sweeps.store.SweepStore` for ``repro paper``, a single one for
``repro experiment`` (:func:`~repro.experiments.campaign.run_experiment`).
Every experiment's section (paper claim, certificates, tables, figures) is
rendered by :meth:`~repro.experiments.runner.ExperimentResult.summary`.
"""

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "ExperimentScale": "repro.experiments.config",
    "QUICK": "repro.experiments.config",
    "STANDARD": "repro.experiments.config",
    "FULL": "repro.experiments.config",
    "FamilyCache": "repro.experiments.cache",
    "shared_cache": "repro.experiments.cache",
    "ExperimentResult": "repro.experiments.runner",
    "CampaignResult": "repro.experiments.campaign",
    "ExperimentDefinition": "repro.experiments.definition",
    "MeasurementSpec": "repro.experiments.definition",
    "PaperCampaign": "repro.experiments.campaign",
    "ResolvedSpecs": "repro.experiments.definition",
    "dedup_specs": "repro.experiments.campaign",
    "render_campaign_report": "repro.experiments.campaign",
    "resolve_specs": "repro.experiments.campaign",
    "DEFINITIONS": "repro.experiments.registry",
    "run_experiment": "repro.experiments.campaign",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
