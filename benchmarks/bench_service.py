"""The results service's cold and warm cost per query, against fixed budgets.

The whole point of :mod:`repro.service` is that a query whose config hash is
already known costs zero engine work — answered from the daemon's in-memory
answer memo first, from the shared :class:`~repro.sweeps.store.SweepStore`
when the memo does not hold it — while a miss builds the protocol and
resolves it.  This gate resolves one engine-heavy config cold through
:class:`~repro.service.daemon.ResultsService`, reissues it warm (memo hits,
since the cold resolve memoized it), and asserts

* **cold budget** — the fastest of :data:`COLD_ROUNDS` cold resolves
  (protocol construction included) takes at most
  :data:`COLD_MS_PER_QUERY_BUDGET`; the frozenset-era construction path
  fails it;
* **warm budget** — the fastest warm lookup takes at most
  :data:`WARM_MS_PER_QUERY_BUDGET`, tighter than the old "warm >= 50x over
  cold" bar ever allowed;
* **zero recomputation** — the warm queries all count as ``hits`` (the
  service's miss counter never moves again);
* **bit-for-bit equality** — the rendered response body is identical warm
  and cold, and identical to the direct batch-path resolve of the same
  config (:func:`repro.sweeps.runner.resolve_config`).

A second gate times the same warm hit end to end over HTTP: a
:class:`~repro.service.client.ServiceClient` against an in-thread
:class:`~repro.service.daemon.ServiceServer`.  The median of
:data:`HTTP_HIT_ROUNDS` hits must stay within
:data:`HTTP_HIT_MS_BUDGET`, and every hit must travel over one connection.
A connection per query fails it, and so does a response that waits on a
delayed ACK (a body written after the headers with Nagle's algorithm on
costs about 40 ms).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -s
"""

from __future__ import annotations

import statistics
import threading
import time

from repro.experiments.cache import shared_cache
from repro.service import (
    ResultsService,
    ServiceClient,
    ServiceServer,
    normalize_query,
    render_response,
)
from repro.sweeps import SweepStore
from repro.sweeps.runner import resolve_config

#: One engine-heavy measurement: scenario B's selective-family construction
#: dominates the cold resolve, which is exactly the work a warm hit skips.
QUERY = {"protocol": "scenario-b", "n": 256, "k": 16, "batch": 64}

#: Cold repetitions, each from an empty store and an empty family cache.
COLD_ROUNDS = 5

#: Warm repetitions; the fastest one is the steady-state lookup cost.
WARM_ROUNDS = 20

#: Most milliseconds the cold resolve may take.
COLD_MS_PER_QUERY_BUDGET = 40.0

#: Most milliseconds the fastest warm lookup may take.
WARM_MS_PER_QUERY_BUDGET = 1.0

#: Warm hits timed over HTTP; the median is the gated figure.
HTTP_HIT_ROUNDS = 300

#: Most milliseconds the median warm hit over HTTP may take (client and
#: server in one process, so both sides share one interpreter).
HTTP_HIT_MS_BUDGET = 1.5


def test_service_query_cold_and_warm_budgets(record_gate, tmp_path):
    """Regression gate: cold and warm service queries stay inside their budgets."""
    config = normalize_query(QUERY)
    # Cold means cold: an empty store and no selective family built before.
    # One cold resolve is a single noisy sample, so the fastest of a few
    # (each against its own empty store) is the gated figure.
    cold_times = []
    for extra in range(COLD_ROUNDS - 1):
        shared_cache.clear()
        with ResultsService(SweepStore(tmp_path / f"cold-{extra}"), workers=0) as cold:
            t0 = time.perf_counter()
            cold.resolve(config)
            cold_times.append(time.perf_counter() - t0)
    shared_cache.clear()
    with ResultsService(SweepStore(tmp_path / "service-store"), workers=0) as service:
        t0 = time.perf_counter()
        cold_record, cold_cached = service.resolve(config)
        cold_times.append(time.perf_counter() - t0)
        cold_time = min(cold_times)
        assert not cold_cached and service.misses == 1

        warm_times = []
        for _ in range(WARM_ROUNDS):
            t0 = time.perf_counter()
            warm_record, warm_cached = service.resolve(config)
            warm_times.append(time.perf_counter() - t0)
            assert warm_cached
        warm_time = min(warm_times)
        assert service.hits == WARM_ROUNDS and service.misses == 1

    # The canonical response body is byte-identical warm vs cold, and both
    # match the direct batch-path resolve of the same config.
    cold_body = render_response(cold_record)
    assert render_response(warm_record) == cold_body
    assert render_response(resolve_config(config)) == cold_body

    cold_ms = cold_time * 1e3
    warm_ms = warm_time * 1e3
    print(
        f"service query ({config.protocol} n={config.n} k={config.k} "
        f"batch={config.batch}, hash {config.config_hash()}): "
        f"cold {cold_ms:.1f} ms (budget {COLD_MS_PER_QUERY_BUDGET}), "
        f"warm {warm_ms:.3f} ms (budget {WARM_MS_PER_QUERY_BUDGET})"
    )
    # Record before asserting so a regression still lands in the trajectory.
    record_gate(
        "service_query",
        threshold=COLD_MS_PER_QUERY_BUDGET,
        unit="ms/query",
        measurements=[
            {
                "protocol": config.protocol,
                "hash": config.config_hash(),
                "cold_ms_per_query": round(cold_ms, 3),
                "warm_ms_per_query": round(warm_ms, 4),
                "cold_budget_ms": COLD_MS_PER_QUERY_BUDGET,
                "warm_budget_ms": WARM_MS_PER_QUERY_BUDGET,
            }
        ],
    )
    assert cold_ms <= COLD_MS_PER_QUERY_BUDGET, (
        f"cold service query {cold_ms:.1f} ms "
        f"over its {COLD_MS_PER_QUERY_BUDGET} ms budget"
    )
    assert warm_ms <= WARM_MS_PER_QUERY_BUDGET, (
        f"warm service query {warm_ms:.3f} ms "
        f"over its {WARM_MS_PER_QUERY_BUDGET} ms budget"
    )


class _CountingServer(ServiceServer):
    """Counts accepted connections, so the gate sees connection reuse."""

    accepts = 0

    def get_request(self):
        request = super().get_request()
        self.accepts += 1
        return request


def test_service_http_hit_budget(record_gate, tmp_path):
    """Regression gate: a warm hit through the client and daemon stays cheap."""
    config = normalize_query(QUERY)
    service = ResultsService(SweepStore(tmp_path / "http-store"), workers=0)
    server = _CountingServer(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(server.endpoint, timeout=60) as client:
            cold_body, cache = client.query_raw(QUERY)
            assert cache == "miss"
            times = []
            for _ in range(HTTP_HIT_ROUNDS):
                t0 = time.perf_counter()
                body, cache = client.query_raw(QUERY)
                times.append(time.perf_counter() - t0)
                assert cache == "hit" and body == cold_body
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert cold_body.decode("utf-8") == render_response(resolve_config(config))
    assert service.hits == HTTP_HIT_ROUNDS and service.misses == 1

    ordered = sorted(times)
    median_ms = statistics.median(ordered) * 1e3
    p90_ms = ordered[int(0.9 * len(ordered))] * 1e3
    print(
        f"service HTTP hit ({config.protocol} n={config.n} k={config.k} "
        f"batch={config.batch}, {server.accepts} connection(s)): "
        f"median {median_ms:.3f} ms, p90 {p90_ms:.3f} ms "
        f"(budget {HTTP_HIT_MS_BUDGET})"
    )
    record_gate(
        "service_http",
        threshold=HTTP_HIT_MS_BUDGET,
        unit="ms/hit",
        measurements=[
            {
                "protocol": config.protocol,
                "hash": config.config_hash(),
                "http_ms_per_hit": round(median_ms, 4),
                "p90_ms": round(p90_ms, 4),
                "connections": server.accepts,
                "budget_ms": HTTP_HIT_MS_BUDGET,
            }
        ],
    )
    assert server.accepts == 1, f"{server.accepts} connections for one client"
    assert median_ms <= HTTP_HIT_MS_BUDGET, (
        f"warm HTTP hit {median_ms:.3f} ms "
        f"over its {HTTP_HIT_MS_BUDGET} ms budget"
    )
