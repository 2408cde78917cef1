"""Benchmark E8 — selective-family construction quality."""

from __future__ import annotations

from repro.core.selective import random_selective_family
from repro.experiments.registry import experiment_e8_selective_families


def bench_e8(scale):
    result = experiment_e8_selective_families(scale)
    assert all(row["random_selectivity"] >= 0.99 for row in result.rows), result.summary()
    return result


def test_benchmark_e8_selective_families(run_once, scale):
    """E8: constructed lengths vs the O(k log(n/k)) target, plus selectivity rates."""
    result = run_once(bench_e8, scale)
    print()
    print(result.summary())


def test_benchmark_family_construction_microbench(benchmark):
    """Micro-benchmark: cost of constructing one (256, 16)-selective family."""
    benchmark(lambda: random_selective_family(256, 16, rng=0))
