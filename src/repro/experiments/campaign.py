"""The paper campaign: plan → resolve → render over one shared result store.

This module is the one path that runs experiments: ``repro paper`` runs the
*paper* — all of E1–E11 — as a single resumable campaign, and ``repro
experiment`` runs a one-experiment campaign (:func:`run_experiment`).  The
registry (:mod:`repro.experiments.registry`) states each experiment once, as
an :class:`~repro.experiments.definition.ExperimentDefinition` record: ID,
title, paper claim, ``cells`` and ``render``.

* ``cells(scale)`` lays out what the experiment measures: plain tuples,
  lists and dicts holding :class:`MeasurementSpec` values — content-hashable
  sweep configs naming a protocol, ``(n, k)``, a workload and a seed
  derivation, never a live object;
* ``plan(scale)`` is derived, not written: every spec in the cells,
  depth-first and in order, so a render can never read a spec the plan
  left out;
* :func:`resolve_specs` deduplicates specs (within *and across* experiments —
  E1/E2/E3/E5/E10/E11 share grid cells), serves stored ones from the
  :class:`~repro.sweeps.store.SweepStore`, and shards the rest across
  :class:`~repro.sweeps.runner.SweepRunner` worker processes;
* the campaign makes each :class:`~repro.experiments.runner.ExperimentResult`
  from the record (ID, title, paper claim, scale), and
  ``render(result, resolved, cells, scale)`` fills it with rows, tables,
  figures and certificates; the campaign then stamps ``"experiment"`` as the
  first key of every row.  Compute that is not a spec measurement (E4's
  adaptive adversary table, E7's matrix figures, E8's family constructions)
  goes through :meth:`ResolvedSpecs.memo`, which keeps its result as a
  schema-versioned ``render/<hash>`` blob in the same store.

Because every measurement is keyed by its config hash, a
:class:`PaperCampaign` interrupted at any point resumes with zero
recomputation, a second run is a 100% store hit (``store.misses == 0``) that
simulates nothing — render-side compute is read back from its memo blobs —
and results are bit-identical at any worker count.  The CLI front end is
``repro paper run|status|report`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import core as obs
from repro.experiments.config import ExperimentScale, QUICK
from repro.experiments.definition import (
    RENDER_MEMO_SCHEMA,
    ExperimentDefinition,
    MeasurementSpec,
    ResolvedSpecs,
)
from repro.experiments.registry import DEFINITIONS
from repro.experiments.runner import ExperimentResult
from repro.sweeps.runner import SweepRunner
from repro.sweeps.store import SweepStore

__all__ = [
    "MANIFEST_NAME",
    "RENDER_MEMO_SCHEMA",
    "MeasurementSpec",
    "ResolvedSpecs",
    "dedup_specs",
    "resolve_specs",
    "ExperimentDefinition",
    "CampaignResult",
    "PaperCampaign",
    "run_experiment",
    "render_campaign_report",
]

#: File the campaign manifest is written to inside the store root.
MANIFEST_NAME = "campaign_manifest.json"


def dedup_specs(specs: Sequence[MeasurementSpec]) -> List[MeasurementSpec]:
    """Order-preserving dedup by config hash (first occurrence wins)."""
    seen: Dict[str, None] = {}
    out: List[MeasurementSpec] = []
    for spec in specs:
        key = spec.config_hash()
        if key not in seen:
            seen[key] = None
            out.append(spec)
    return out


def resolve_specs(
    specs: Sequence[MeasurementSpec],
    *,
    workers: int = 0,
    store: Optional[SweepStore] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ResolvedSpecs:
    """Resolve a spec list into a :class:`ResolvedSpecs` view.

    Specs are deduplicated by config hash first (a spec demanded by several
    experiments is computed once), stored ones are served from ``store``, and
    the rest run through a :class:`~repro.sweeps.runner.SweepRunner` — so the
    resolution inherits the sweep layer's process sharding, incremental
    persistence and worker-count-invariant results, plus its ``store.hits`` /
    ``store.misses`` counters.
    """
    unique = dedup_specs(specs)
    runner = SweepRunner(workers=workers, store=store)
    result = runner.run(unique, progress=progress)
    records = {
        spec.config_hash(): record for spec, record in zip(unique, result.records)
    }
    return ResolvedSpecs(
        records, hits=result.reused, misses=len(unique) - result.reused, store=store
    )


@dataclass
class CampaignResult:
    """Everything one campaign run produced: results by ID plus the manifest."""

    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    manifest: Dict[str, object] = field(default_factory=dict)

    @property
    def all_certificates_hold(self) -> bool:
        return all(r.all_certificates_hold for r in self.results.values())


def _definitions(
    experiments: Optional[Sequence[str]] = None,
) -> List[ExperimentDefinition]:
    """The requested :class:`ExperimentDefinition` list, registry order."""
    if experiments is None:
        return list(DEFINITIONS.values())
    out = []
    for experiment_id in experiments:
        try:
            out.append(DEFINITIONS[experiment_id.upper()])
        except KeyError:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; valid IDs: "
                f"{sorted(DEFINITIONS)}"
            ) from None
    return out


@dataclass
class PaperCampaign:
    """Run the whole paper — E1–E11 — against one shared, resumable store.

    The campaign plans every experiment, deduplicates the union of their
    specs, resolves all pending work process-parallel through the sweep
    layer, and renders each experiment from the shared result view.  With a
    ``store``, every resolved config is persisted the moment it completes:
    an interrupted run resumes with zero recomputation and a completed one
    replays entirely from disk.

    Parameters
    ----------
    scale:
        Experiment scale preset shared by every experiment.
    store:
        The shared :class:`~repro.sweeps.store.SweepStore` (``None`` runs
        ephemerally — still deduplicated, just not resumable).
    workers:
        Worker processes for the resolve phase (``None``: ``scale.workers``).
    experiments:
        Subset of experiment IDs (default: all, registry order).
    """

    scale: ExperimentScale = QUICK
    store: Optional[SweepStore] = None
    workers: Optional[int] = None
    experiments: Optional[Sequence[str]] = None

    def plan(self) -> Dict[str, List[MeasurementSpec]]:
        """Per-experiment spec lists (pre-dedup), in registry order."""
        with obs.span("experiments.plan"):
            return {
                definition.experiment: definition.plan(self.scale)
                for definition in _definitions(self.experiments)
            }

    def status(self) -> Dict[str, object]:
        """How much of the campaign the store already covers, per experiment."""
        plans = self.plan()
        per_experiment = {}
        all_specs: List[MeasurementSpec] = []
        for experiment_id, specs in plans.items():
            unique = dedup_specs(specs)
            stored = (
                len(self.store.completed(unique)) if self.store is not None else 0
            )
            per_experiment[experiment_id] = {
                "specs": len(specs),
                "unique": len(unique),
                "stored": stored,
            }
            all_specs.extend(specs)
        unique_all = dedup_specs(all_specs)
        return {
            "scale": self.scale.name,
            "experiments": per_experiment,
            "specs_total": len(all_specs),
            "specs_unique": len(unique_all),
            "stored": (
                len(self.store.completed(unique_all)) if self.store is not None else 0
            ),
        }

    def run(
        self, *, progress: Optional[Callable[[str], None]] = None
    ) -> CampaignResult:
        """Resolve and render every experiment; returns results + manifest."""
        definitions = _definitions(self.experiments)
        workers = self.scale.workers if self.workers is None else self.workers
        t_start = time.perf_counter()
        plans = self.plan()
        all_specs = [spec for specs in plans.values() for spec in specs]
        unique = dedup_specs(all_specs)
        t_resolve = time.perf_counter()
        with obs.span("experiments.resolve"):
            resolved = resolve_specs(
                unique,
                workers=workers,
                store=self.store,
                progress=progress,
            )
        resolve_seconds = time.perf_counter() - t_resolve

        results: Dict[str, ExperimentResult] = {}
        render_seconds: Dict[str, float] = {}
        for definition in definitions:
            t0 = time.perf_counter()
            result = ExperimentResult(
                experiment=definition.experiment,
                title=definition.title,
                scale=self.scale.name,
                paper_claim=definition.paper_claim,
            )
            with obs.span("experiments.render"):
                definition.render(result, resolved, definition.cells(self.scale), self.scale)
            result.rows = [{"experiment": definition.experiment, **row} for row in result.rows]
            results[definition.experiment] = result
            render_seconds[definition.experiment] = time.perf_counter() - t0

        hit_rate = (
            resolved.hits / len(unique) if len(unique) else 1.0
        )
        manifest: Dict[str, object] = {
            "scale": self.scale.name,
            "experiments": {
                experiment_id: {
                    "specs": len(plans[experiment_id]),
                    "unique": len(dedup_specs(plans[experiment_id])),
                    "render_seconds": round(render_seconds[experiment_id], 4),
                    "certificates_hold": results[experiment_id].all_certificates_hold,
                }
                for experiment_id in results
            },
            "specs_total": len(all_specs),
            "specs_unique": len(unique),
            "cross_experiment_duplicates": len(all_specs) - len(unique),
            "store_hits": resolved.hits,
            "store_misses": resolved.misses,
            "store_hit_rate": round(hit_rate, 4),
            "workers": workers,
            "resolve_seconds": round(resolve_seconds, 4),
            "total_seconds": round(time.perf_counter() - t_start, 4),
        }
        if self.store is not None:
            self.store.root.mkdir(parents=True, exist_ok=True)
            (self.store.root / MANIFEST_NAME).write_text(
                json.dumps(manifest, indent=2) + "\n"
            )
        return CampaignResult(results=results, manifest=manifest)


def run_experiment(experiment_id: str, scale: ExperimentScale = QUICK) -> ExperimentResult:
    """Run a single experiment by its ID (``"E1"`` ... ``"E11"``).

    A one-experiment :class:`PaperCampaign` without a store, so ``repro
    experiment`` and ``repro paper`` share one plan → resolve → render path.
    """
    campaign = PaperCampaign(scale=scale, experiments=[experiment_id])
    return next(iter(campaign.run().results.values()))


def render_campaign_report(campaign: CampaignResult) -> str:
    """Render a full paper report — every experiment plus the run manifest.

    Each experiment's section is its :meth:`ExperimentResult.summary`, the
    same text ``repro experiment`` prints.
    """
    manifest = campaign.manifest
    lines: List[str] = [
        "# Paper campaign report",
        "",
        "Generated by `repro paper` (see `repro.experiments.campaign`): all",
        "experiments planned as content-hashed measurement specs, resolved",
        "through one shared resumable store, and rendered below.",
        "",
        f"Scale: **{manifest.get('scale', '?')}** · "
        f"specs: {manifest.get('specs_total', '?')} planned / "
        f"{manifest.get('specs_unique', '?')} unique · "
        f"store: {manifest.get('store_hits', 0)} hits, "
        f"{manifest.get('store_misses', 0)} misses "
        f"(hit rate {manifest.get('store_hit_rate', 0.0):.0%})",
        "",
    ]
    lines += [result.summary() for result in campaign.results.values()]
    lines += ["## Campaign manifest", "", "```json"]
    lines.append(json.dumps(manifest, indent=2))
    lines += ["```", ""]
    return "\n".join(lines).rstrip() + "\n"
