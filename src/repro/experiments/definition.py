"""What an experiment is, and what its render reads: the campaign's shared types.

The registry (:mod:`repro.experiments.registry`) states each experiment as an
:class:`ExperimentDefinition` whose cells hold :class:`MeasurementSpec`
values and whose render reads a :class:`ResolvedSpecs` view; the campaign
(:mod:`repro.experiments.campaign`) plans, resolves and renders those
definitions.  Both import these types from here, so the campaign can import
the registry without the registry importing the campaign.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.adversary.search import effective_latencies
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import ExperimentResult
from repro.sweeps.spec import SweepConfig
from repro.sweeps.store import ConfigRecord, StoreSchemaError, SweepStore

__all__ = [
    "RENDER_MEMO_SCHEMA",
    "MeasurementSpec",
    "ResolvedSpecs",
    "ExperimentDefinition",
]

#: A measurement demand is exactly a sweep config: protocol name, (n, k),
#: workload, batch, seed, horizon and parameter overrides — plain data with a
#: stable content hash, which is what lets the store memoize it.
MeasurementSpec = SweepConfig

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
    the spec's horizon: the adversarial search's scoring convention,
    :func:`~repro.adversary.search.effective_latencies`, so a capped
    latency means the same in a campaign table and in a search).

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
            return effective_latencies(raw, solved, spec.max_slots).tolist()
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
