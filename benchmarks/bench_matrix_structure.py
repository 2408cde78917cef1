"""Benchmark E7 — transmission-matrix structure (paper Figures 1–2)."""

from __future__ import annotations

from repro.experiments.registry import experiment_e7_matrix_structure


def bench_e7(scale):
    result = experiment_e7_matrix_structure(scale)
    agreement_rows = [r for r in result.rows if "agreement" in r]
    assert agreement_rows and agreement_rows[0]["agreement"], result.summary()
    return result


def test_benchmark_e7_matrix_structure(run_once, scale):
    """E7: row-traversal / column-alignment figures and membership probabilities."""
    result = run_once(bench_e7, scale)
    print()
    print(result.summary())
