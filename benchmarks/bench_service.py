"""The results service's cold and warm cost per query, against fixed budgets.

The whole point of :mod:`repro.service` is that a query whose config hash is
already in the shared :class:`~repro.sweeps.store.SweepStore` is a pure store
lookup — zero engine work — while a miss builds the protocol and resolves
it.  This gate resolves one engine-heavy config cold through
:class:`~repro.service.daemon.ResultsService`, reissues it warm, and asserts

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

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -s
"""

from __future__ import annotations

import time

from repro.experiments.cache import shared_cache
from repro.service import ResultsService, normalize_query, render_response
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
