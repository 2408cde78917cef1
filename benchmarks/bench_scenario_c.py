"""Benchmark E3 — Scenario C (``wakeup(n)``)."""

from __future__ import annotations

from repro.experiments.registry import experiment_e3_scenario_c


def bench_e3(scale):
    result = experiment_e3_scenario_c(scale)
    assert result.all_certificates_hold, result.summary()
    return result


def test_benchmark_e3_scenario_c(run_once, scale):
    """E3: worst-case latency of the waking-matrix protocol vs k log n log log n."""
    result = run_once(bench_e3, scale)
    print()
    print(result.summary())
