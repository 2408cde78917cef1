"""Benchmark E6 — randomized protocols (Section 6)."""

from __future__ import annotations

from repro.experiments.registry import experiment_e6_randomized


def bench_e6(scale):
    result = experiment_e6_randomized(scale)
    assert result.all_certificates_hold, result.summary()
    return result


def test_benchmark_e6_randomized(run_once, scale):
    """E6: expected latency of RPD (with/without k), Decay and tuned ALOHA vs log n / log k."""
    result = run_once(bench_e6, scale)
    print()
    print(result.summary())
