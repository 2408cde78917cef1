"""Throughput of the guided search's batched candidate resolution.

The adversarial-search driver (:mod:`repro.adversary.search`) resolves each
step's whole candidate population through the batch engine in one chunked
scan instead of running candidates one `run_deterministic` call at a time.
These benchmarks record, for the reference configuration of one 64-candidate
step at n = 1024, k = 16, the candidates/sec of

* the per-candidate loop (one ``run_deterministic`` per pattern — the path
  a naive search driver would take), and
* one batched resolution of the same population (``_evaluate``, exactly
  the call the driver makes per step),

plus a hard regression gate asserting the batched path stays at least 10x
over the loop, with an in-loop check that both paths rank the candidates
identically (same winner, same effective latencies).

A second record, ``adversary_step``, times whole steps as the driver runs
them (``_step``: propose, check the rows into one batch, evaluate, observe)
for one anneal step and one evolution step of 64 candidates at the same
n and k, with no store.  It records candidates/sec for ``repro bench
compare`` and asserts no speed floor.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_adversary_search.py --benchmark-only
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.adversary.search import (
    SearchSpec,
    _evaluate,
    _step,
    _step_generators,
    effective_latencies,
    seed_population,
)
from repro.adversary.strategies import get_strategy
from repro.channel.simulator import run_deterministic
from repro.channel.wakeup import PatternBatch
from repro.sweeps.protocols import build_protocol

N, K, POPULATION = 1024, 16, 64
MAX_SLOTS = 200_000


def _spec() -> SearchSpec:
    return SearchSpec(
        protocol="scenario-b",
        n=N,
        k=K,
        budget=POPULATION,
        population=POPULATION,
        seed=0,
        window=256,
        max_slots=MAX_SLOTS,
    )


def _step_population(spec: SearchSpec):
    rows = seed_population(spec, POPULATION, np.random.default_rng(0))
    return list(PatternBatch.from_rows(spec.n, rows))


def _resolve_step(spec: SearchSpec, spec_hash: str, patterns, protocol):
    """Resolve one step population as ``adversarial_search`` does."""
    return _evaluate(spec, spec_hash, 0, patterns, protocol=protocol)


def _loop_effective(protocol, patterns, max_slots):
    latency = []
    solved = []
    for pattern in patterns:
        result = run_deterministic(protocol, pattern, max_slots=max_slots)
        solved.append(result.solved)
        latency.append(result.latency if result.solved else max_slots)
    return effective_latencies(np.asarray(latency), np.asarray(solved), max_slots)


def test_benchmark_per_candidate_loop(benchmark):
    """Baseline: one run_deterministic call per candidate."""
    spec = _spec()
    protocol = build_protocol(spec.protocol, N, K, seed=spec.seed)
    patterns = _step_population(spec)

    effective = benchmark(lambda: _loop_effective(protocol, patterns, MAX_SLOTS))
    assert len(effective) == POPULATION
    benchmark.extra_info["candidates_per_sec"] = POPULATION / benchmark.stats["mean"]


def test_benchmark_batched_step_resolution(benchmark):
    """One batched resolution of the same step population."""
    spec = _spec()
    protocol = build_protocol(spec.protocol, N, K, seed=spec.seed)
    patterns = _step_population(spec)
    spec_hash = spec.config_hash()

    effective, _, solved = benchmark(
        lambda: _resolve_step(spec, spec_hash, patterns, protocol)
    )
    assert len(effective) == POPULATION and bool(np.asarray(solved).all())
    benchmark.extra_info["candidates_per_sec"] = POPULATION / benchmark.stats["mean"]


def test_batched_resolution_is_at_least_10x(record_gate):
    """Regression gate: batched candidates/sec >= 10x the per-candidate loop."""
    spec = _spec()
    protocol = build_protocol(spec.protocol, N, K, seed=spec.seed)
    patterns = _step_population(spec)
    spec_hash = spec.config_hash()

    # Warm up both paths (page faults, lazy schedule caches).
    _resolve_step(spec, spec_hash, patterns[:8], protocol)
    _loop_effective(protocol, patterns[:8], MAX_SLOTS)

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    batch_time = best_of(
        lambda: _resolve_step(spec, spec_hash, patterns, protocol)
    )
    loop_time = best_of(lambda: _loop_effective(protocol, patterns, MAX_SLOTS))
    speedup = loop_time / batch_time

    # The speedup must not buy a different search: both paths must rank the
    # population identically.
    batched, _, _ = _resolve_step(spec, spec_hash, patterns, protocol)
    looped = _loop_effective(protocol, patterns, MAX_SLOTS)
    assert batched.tolist() == looped.tolist()
    assert int(np.argmax(batched)) == int(np.argmax(looped))

    print(
        f"adversary step: batched {POPULATION / batch_time:,.0f} candidates/s, "
        f"loop {POPULATION / loop_time:,.0f} candidates/s, speedup {speedup:.1f}x"
    )
    measurements = [
        {
            "protocol": spec.protocol,
            "config": f"B={POPULATION} n={N} k={K}",
            "speedup": round(speedup, 2),
            "batch_rate": round(POPULATION / batch_time, 1),
            "loop_rate": round(POPULATION / loop_time, 1),
        }
    ]
    # Record before asserting so a regression still lands in the trajectory.
    record_gate(
        "adversary_search",
        threshold=10.0,
        unit="candidates/sec",
        measurements=measurements,
    )
    assert speedup >= 10.0, (
        f"batched candidate resolution only {speedup:.1f}x over the "
        f"per-candidate loop at B={POPULATION} n={N} k={K}"
    )


def _whole_step_seconds(strategy_name: str, repeats: int = 5) -> float:
    """Best-of wall time of step 1 of a search, as ``adversarial_search`` runs it."""
    spec = replace(_spec(), strategy=strategy_name, budget=2 * POPULATION)
    spec_hash = spec.config_hash()
    protocol = build_protocol(spec.protocol, N, K, seed=spec.seed)
    strategy = get_strategy(strategy_name)
    seeds = next(_step_generators(spec, spec_hash, 0))
    initial = strategy.initial_state(spec)
    *_, state, _ = _step(
        spec, spec_hash, strategy, initial, 0, POPULATION, seeds, protocol=protocol
    )

    def one_step():
        rng = next(_step_generators(spec, spec_hash, 1))
        return _step(spec, spec_hash, strategy, state, 1, POPULATION, rng, protocol=protocol)

    one_step()  # warm up (lazy schedule caches)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        one_step()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_whole_step_rate(record_gate):
    """Ledger entry: candidates/sec of whole anneal and evolution steps."""
    measurements = []
    for strategy_name in ("anneal", "evolution"):
        seconds = _whole_step_seconds(strategy_name)
        print(
            f"{strategy_name} step: {seconds * 1e3:.2f} ms, "
            f"{POPULATION / seconds:,.0f} candidates/s"
        )
        measurements.append(
            {
                "strategy": strategy_name,
                "config": f"B={POPULATION} n={N} k={K}",
                "rate": round(POPULATION / seconds, 1),
            }
        )
    # No speed floor (threshold 1.0): the record exists so that `repro bench
    # compare` catches rate drift against the committed baseline.
    record_gate(
        "adversary_step",
        threshold=1.0,
        unit="candidates/sec",
        measurements=measurements,
    )
