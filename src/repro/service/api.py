"""Query normalization and canonical responses for the results service.

A service query is a plain JSON mapping naming the measurement it wants —
protocol name (plus optional ``protocol_params``), ``n``, ``k``, workload,
seed and scale knobs.  :func:`normalize_query` is the single gate that turns
such a mapping into a :class:`~repro.sweeps.spec.SweepConfig`: it coerces
string-typed integers (HTTP clients send text), rejects unknown fields,
unknown protocol/workload names and sizes over the fixed ceilings
(:data:`MAX_QUERY_N`, :data:`MAX_QUERY_BATCH`, :data:`MAX_QUERY_MAX_SLOTS`)
with a :class:`QueryError` (a 400, never a worker crash), and defers every
equivalence decision to the config's own canonical form.  Dict key order,
an explicitly empty ``protocol_params`` and ``"256"`` vs ``256`` all
normalize to the same content hash — and therefore to the same
:class:`~repro.sweeps.store.SweepStore` record, which is what makes the
store a memoization tier the CLI, sweeps and service can share.

Responses are rendered by :func:`render_response` as canonical JSON (sorted
keys, no whitespace) over the stored record alone — no timestamps, no cache
status, no worker counts — so the body for a given config hash is
byte-for-byte identical whether it was served warm from the store or freshly
computed, at any worker count.  Cache status travels out of band (the
``X-Repro-Cache`` HTTP header; see :mod:`repro.service.daemon`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional

from repro.sweeps.spec import SweepConfig
from repro.sweeps.store import ConfigRecord

__all__ = [
    "MAX_QUERY_BATCH",
    "MAX_QUERY_MAX_SLOTS",
    "MAX_QUERY_N",
    "RESPONSE_SCHEMA",
    "QueryError",
    "normalize_query",
    "render_response",
    "parse_response",
    "experiment_queries",
]

#: Version stamped into every response body; :func:`parse_response` rejects
#: anything else, so a client never misreads a newer server's payload.
RESPONSE_SCHEMA = 1

#: Largest ``n`` a query may ask for (the FULL campaign's largest is 2048).
MAX_QUERY_N = 4096

#: Largest ``batch`` a query may ask for (the FULL campaign's largest is 25,
#: a sweep's is 256).  Record columns, and so a response body, grow with it.
MAX_QUERY_BATCH = 1024

#: Largest ``max_slots`` a query may ask for (the FULL campaign's largest is
#: 4,000,000).
MAX_QUERY_MAX_SLOTS = 10_000_000

#: The ceilings above, by query field.
_CEILINGS = {
    "n": MAX_QUERY_N,
    "batch": MAX_QUERY_BATCH,
    "max_slots": MAX_QUERY_MAX_SLOTS,
}

#: Integer-valued query fields (coerced, so ``"256"`` and ``256`` agree).
_INT_FIELDS = ("n", "k", "batch", "seed", "max_slots")

#: Every field a query may carry; anything else is a typo, not a default.
_QUERY_FIELDS = frozenset(
    (
        "protocol",
        "n",
        "k",
        "workload",
        "batch",
        "seed",
        "max_slots",
        "params",
        "protocol_params",
    )
)


class QueryError(ValueError):
    """A query could not be normalized into a valid measurement spec.

    Raised for malformed shapes (unknown fields, non-integer ``n``), unknown
    protocol or workload names, sizes over a ceiling (``n`` above
    :data:`MAX_QUERY_N`) and invalid combinations (``k > n``) — the errors
    the HTTP front door answers with a 400 instead of handing the worker
    pool a config that can only crash.
    """


def _coerce_int(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise QueryError(
            f"query field {name!r} must be an integer, got {type(value).__name__}"
        )
    try:
        return int(value)
    except ValueError:
        raise QueryError(f"query field {name!r} is not an integer: {value!r}") from None


def normalize_query(query: Mapping[str, object]) -> SweepConfig:
    """Normalize one query mapping into its :class:`SweepConfig` identity.

    Missing fields take the :class:`SweepConfig` defaults (``workload``
    ``"uniform"``, ``batch`` 64, ``seed`` 0, ``max_slots`` 200000), so a
    minimal query is just ``{"protocol": ..., "n": ..., "k": ...}``.
    Equivalent queries — any key order, integers as strings, explicitly
    empty or default-valued ``params``/``protocol_params`` — normalize to
    one config and therefore one content hash.  ``n``, ``batch`` and
    ``max_slots`` above their ceilings are refused, because a worker would
    spend unbounded memory or time on them.
    """
    if not isinstance(query, Mapping):
        raise QueryError(f"query must be a JSON object, got {type(query).__name__}")
    unknown = sorted(set(query) - _QUERY_FIELDS)
    if unknown:
        raise QueryError(
            f"unknown query field(s) {unknown}; valid fields: {sorted(_QUERY_FIELDS)}"
        )
    for required in ("protocol", "n", "k"):
        if required not in query:
            raise QueryError(f"query is missing required field {required!r}")

    from repro.sweeps.protocols import PROTOCOL_BUILDERS
    from repro.workloads import WorkloadSuite

    protocol = query["protocol"]
    if protocol not in PROTOCOL_BUILDERS:
        raise QueryError(
            f"unknown protocol {protocol!r}; valid names: {sorted(PROTOCOL_BUILDERS)}"
        )
    known: Dict[str, object] = {"protocol": protocol}
    for name in _INT_FIELDS:
        if name in query:
            known[name] = _coerce_int(name, query[name])
            ceiling = _CEILINGS.get(name)
            if ceiling is not None and known[name] > ceiling:
                raise QueryError(
                    f"query field {name!r} is {known[name]}, "
                    f"over the ceiling of {ceiling}"
                )
    for name in ("params", "protocol_params"):
        value = query.get(name, {})
        if not isinstance(value, Mapping):
            raise QueryError(
                f"query field {name!r} must be a mapping, got {type(value).__name__}"
            )
        known[name] = dict(value)
    if "workload" in query:
        known["workload"] = query["workload"]
    try:
        config = SweepConfig(**known)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"invalid query: {exc}") from None
    if config.workload not in WorkloadSuite().names():
        raise QueryError(
            f"unknown workload {config.workload!r}; see `repro workloads list`"
        )
    return config


def render_response(record: ConfigRecord) -> str:
    """The canonical response body for one resolved record.

    Canonical JSON (sorted keys, compact separators) over the record's
    on-disk form plus its config hash: deterministic in the record content
    alone, so a warm store hit and a cold engine resolve of the same config
    hash produce byte-identical bodies (``tests/service`` and the CI smoke
    leg both hold a literal comparison over this).
    """
    payload = {
        "schema": RESPONSE_SCHEMA,
        "hash": record.config.config_hash(),
        "record": record.as_dict(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def parse_response(text: str) -> Dict[str, object]:
    """Parse one response body back into its payload dict, schema-checked."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise QueryError(f"response is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise QueryError("response is not a JSON object")
    schema = payload.get("schema")
    if schema != RESPONSE_SCHEMA:
        raise QueryError(
            f"response schema {schema!r} is not supported "
            f"(this client reads schema {RESPONSE_SCHEMA})"
        )
    if "hash" not in payload or "record" not in payload:
        raise QueryError("response is missing its hash/record fields")
    return payload


def experiment_queries(
    experiment_id: str, scale=None, *, limit: Optional[int] = None
) -> List[SweepConfig]:
    """The campaign cells of one experiment, as queryable configs.

    Every E1–E11 plan already *is* a list of content-hashable measurement
    specs (see :mod:`repro.experiments.campaign`), so the service can answer
    any campaign cell: this helper returns the deduplicated spec list of one
    experiment at ``scale`` (default ``QUICK``), optionally truncated to the
    first ``limit`` cells.  Render-only experiments (E7/E8) plan no
    measurements and raise :class:`QueryError` instead of returning an empty
    sweep silently.
    """
    from repro.experiments.campaign import dedup_specs
    from repro.experiments.config import QUICK
    from repro.experiments.registry import DEFINITIONS

    try:
        definition = DEFINITIONS[experiment_id.upper()]
    except KeyError:
        raise QueryError(
            f"unknown experiment {experiment_id!r}; valid IDs: {sorted(DEFINITIONS)}"
        ) from None
    specs = dedup_specs(definition.plan(QUICK if scale is None else scale))
    if not specs:
        raise QueryError(
            f"experiment {definition.experiment} plans no measurement specs "
            "(render-only experiment)"
        )
    if limit is not None:
        if limit < 1:
            raise QueryError(f"limit must be >= 1, got {limit}")
        specs = specs[:limit]
    return specs
