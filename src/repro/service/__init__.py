"""Long-lived results service over the sweep store's memoization tier.

The fourth layer of the execution stack.  The engine made one config fast,
:mod:`repro.sweeps` made a grid fast and resumable, the campaign
(:mod:`repro.experiments.campaign`) made the whole paper one memoized run —
this package turns that shared content-hash-keyed
:class:`~repro.sweeps.store.SweepStore` into something *queryable*: a
persistent worker-pool daemon plus a thin request/response API where
latency/measurement queries are answered straight from the store when a
hashed-config hit exists and computed (and cached) otherwise.

* :func:`~repro.service.api.normalize_query` — one JSON query mapping →
  one :class:`~repro.sweeps.spec.SweepConfig`; equivalent queries (key
  order, string-typed integers, default-valued ``protocol_params``)
  normalize to the same content hash and therefore the same store record;
* :class:`~repro.service.daemon.ResultsService` — store-first resolution
  over a long-lived :class:`~repro.sweeps.runner.WorkerPool` with
  single-flight misses;
  responses are bit-for-bit identical to the batch/campaign path for the
  same spec hash, at any worker count;
* :class:`~repro.service.daemon.ServiceServer` / :func:`~repro.service.daemon.serve`
  — the stdlib-HTTP front door (``POST /query``, ``GET /status``,
  ``POST /stop``) publishing its endpoint into the store;
* :class:`~repro.service.client.ServiceClient` — the matching stdlib
  client, returning response bodies byte-for-byte.

The CLI front end is ``repro service start|query|status|stop`` (see
:mod:`repro.cli`); the design and the warm/cold semantics are documented in
``docs/service.md``.
"""

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "RESPONSE_SCHEMA": "repro.service.wire",
    "QueryError": "repro.service.wire",
    "normalize_query": "repro.service.api",
    "render_response": "repro.service.api",
    "parse_response": "repro.service.wire",
    "experiment_queries": "repro.service.cells",
    "ResultsService": "repro.service.daemon",
    "ServiceServer": "repro.service.daemon",
    "serve": "repro.service.daemon",
    "ServiceClient": "repro.service.client",
    "discover_endpoint": "repro.service.client",
    "ENDPOINT_BLOB": "repro.service.wire",
    "ENDPOINT_SCHEMA": "repro.service.wire",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
