"""The paper campaign: plan → resolve → render over one shared result store.

This module is the one path that runs experiments: ``repro paper`` runs the
*paper* — all of E1–E11 — as a single resumable campaign, and ``repro
experiment`` runs a one-experiment campaign
(:func:`~repro.experiments.registry.run_experiment`).  The registry
(:mod:`repro.experiments.registry`) states each experiment once, as an
:class:`ExperimentDefinition` record: ID, title, paper claim, ``cells`` and
``render``.

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

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro import obs
from repro.experiments.config import ExperimentScale, QUICK
from repro.experiments.runner import ExperimentResult
from repro.sweeps.runner import SweepRunner
from repro.sweeps.spec import SweepConfig
from repro.sweeps.store import ConfigRecord, StoreSchemaError, SweepStore

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
    "render_campaign_report",
]

#: A measurement demand is exactly a sweep config: protocol name, (n, k),
#: workload, batch, seed, horizon and parameter overrides — plain data with a
#: stable content hash, which is what lets the store memoize it.
MeasurementSpec = SweepConfig

#: File the campaign manifest is written to inside the store root.
MANIFEST_NAME = "campaign_manifest.json"

#: Schema of the render-memo blobs :meth:`ResolvedSpecs.memo` writes.  It is
#: part of every memo key and stamped into every blob; bump it whenever a
#: memoized payload changes shape or meaning, so no older blob is trusted.
RENDER_MEMO_SCHEMA = 1


class ResolvedSpecs:
    """Resolved measurements, addressable by the spec that demanded them.

    A read-only view handed to ``render`` functions: ``resolved[spec]`` is the
    :class:`~repro.sweeps.store.ConfigRecord` for that spec's config hash.
    The latency accessors implement the two disciplines the experiments use —
    *strict* (every pattern must have solved; raising otherwise, like
    ``worst_latency`` always did) and *capped* (unsolved patterns count as
    the spec's horizon, like the capped latency jobs).

    Attributes
    ----------
    hits, misses:
        Store traffic of the resolution that built this view (unique specs
        served from disk vs freshly computed).
    store:
        The store the records came from (``None`` for an ephemeral
        resolution); :meth:`memo` keeps render-side compute in it.
    """

    def __init__(
        self,
        records: Dict[str, ConfigRecord],
        *,
        hits: int = 0,
        misses: int = 0,
        store: Optional[SweepStore] = None,
    ) -> None:
        self._records = dict(records)
        self.hits = hits
        self.misses = misses
        self.store = store

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, spec: MeasurementSpec) -> bool:
        return spec.config_hash() in self._records

    def __getitem__(self, spec: MeasurementSpec) -> ConfigRecord:
        return self._records[spec.config_hash()]

    def latencies(self, spec: MeasurementSpec, *, capped: bool = False) -> List[int]:
        """Per-pattern latencies of one spec, strict or horizon-capped."""
        record = self[spec]
        solved = record.columns["solved"]
        raw = record.columns["latency"]
        if capped:
            return [int(v) if ok else int(spec.max_slots) for v, ok in zip(raw, solved)]
        if not all(solved):
            raise RuntimeError(
                f"{spec.label()}: {sum(1 for ok in solved if not ok)} pattern(s) "
                f"unsolved within max_slots={spec.max_slots}"
            )
        return [int(v) for v in raw]

    def worst(self, *specs: MeasurementSpec, capped: bool = False) -> int:
        """Worst (max) latency over every pattern of every given spec."""
        if not specs:
            raise ValueError("worst() needs at least one spec")
        return max(max(self.latencies(spec, capped=capped)) for spec in specs)

    def mean(self, spec: MeasurementSpec, *, capped: bool = False) -> float:
        """Mean latency over one spec's batch."""
        values = self.latencies(spec, capped=capped)
        return float(sum(values)) / len(values)

    def memo(
        self, experiment: str, key: Mapping[str, object], compute: Callable[[], Any]
    ) -> Any:
        """Render-side compute, kept in the store as a ``render/<hash>`` blob.

        ``key`` names every input the computation reads (the scale fields,
        the render seed); with the experiment ID and
        :data:`RENDER_MEMO_SCHEMA` it is hashed into the blob key.  A stored
        blob is used only when its schema and full identity match; a missing,
        unreadable or mismatched one is recomputed and overwritten.  Without
        a store the value is computed directly.  Either way the result is
        the JSON form of ``compute()``, so a value read back from a blob
        equals a freshly computed one exactly.
        """
        identity = json.dumps(
            {"experiment": experiment, "key": key, "schema": RENDER_MEMO_SCHEMA},
            sort_keys=True,
            separators=(",", ":"),
        )
        if self.store is None:
            return json.loads(json.dumps(compute()))
        blob_key = "render/" + hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]
        try:
            blob = self.store.load_blob(blob_key)
        except StoreSchemaError:
            blob = None
        if (
            blob is not None
            and blob.get("schema") == RENDER_MEMO_SCHEMA
            and blob.get("identity") == identity
            and "payload" in blob
        ):
            return blob["payload"]
        payload = json.loads(json.dumps(compute()))
        self.store.save_blob(
            blob_key,
            {"schema": RENDER_MEMO_SCHEMA, "identity": identity, "payload": payload},
        )
        return payload


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


def _specs_in(cells: Any) -> Iterator[MeasurementSpec]:
    """Every spec in ``cells``: depth-first through tuples, lists and dict values."""
    if isinstance(cells, MeasurementSpec):
        yield cells
    elif isinstance(cells, (tuple, list)):
        for item in cells:
            yield from _specs_in(item)
    elif isinstance(cells, dict):
        for item in cells.values():
            yield from _specs_in(item)


@dataclass(frozen=True)
class ExperimentDefinition:
    """One experiment, stated once: its report heading, its cells and its render.

    Attributes
    ----------
    experiment:
        Registry ID (``"E1"`` … ``"E11"``).
    title:
        The heading of the experiment's report section.
    paper_claim:
        The paper-side statement its report section quotes.
    cells:
        ``scale -> cells`` — what the experiment measures, as plain data
        (tuples, lists and dicts) holding every :class:`MeasurementSpec` the
        render reads.  Must be deterministic in ``scale`` alone.
    render:
        ``(result, resolved, cells, scale) -> None`` — fills the
        :class:`ExperimentResult` the campaign made from this record with
        rows, tables, figures, certificates and notes.  Render-side
        randomness (E4's adaptive adversary, E7/E8's constructions) uses a
        fixed seed per experiment and is memoized through
        :meth:`ResolvedSpecs.memo`; engine measurements are keyed by the
        specs' own seeds, so two renders over one store agree bit for bit.
    """

    experiment: str
    title: str
    paper_claim: str
    cells: Callable[[ExperimentScale], Any]
    render: Callable[[ExperimentResult, ResolvedSpecs, Any, ExperimentScale], None]

    def plan(self, scale: ExperimentScale) -> List[MeasurementSpec]:
        """The measurement demand: every spec in ``cells(scale)``, in order.

        A render reads specs only out of its cells, so it never reads one the
        plan left out.  A definition whose cells name no spec (E7, E8) has
        an empty plan.
        """
        return list(_specs_in(self.cells(scale)))


@dataclass
class CampaignResult:
    """Everything one campaign run produced: results by ID plus the manifest."""

    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    manifest: Dict[str, object] = field(default_factory=dict)

    @property
    def all_certificates_hold(self) -> bool:
        return all(r.all_certificates_hold for r in self.results.values())


def _definitions(experiments: Optional[Sequence[str]] = None):
    """The requested :class:`ExperimentDefinition` list, registry order.

    Imported lazily: the registry imports this module for the definition
    types, so the campaign side must not import it at module load.
    """
    from repro.experiments.registry import DEFINITIONS

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
