"""Throughput of process-parallel sweeps vs. the serial config loop.

The sweep layer exists to raise configs/sec — with the batch engine making a
single config fast, the remaining wall-clock sink of an experiment campaign
is walking the config grid one Python call at a time on one core.  These
benchmarks run the reference grid — a 16-config E-series-style sweep
(``scenario-b``, n ∈ {512, 1024}, k ∈ {8..64}, 2 seeds, 192 patterns per
config) — through :class:`repro.sweeps.SweepRunner` serially and at 4 worker
processes, and gate three contracts:

* **speedup** — ≥ 2x configs/sec at 4 workers (skipped below 4 usable CPUs,
  where 4-way process parallelism cannot reach the bar by construction);
* **bit-for-bit equality** — the sharded sweep returns exactly the serial
  outcome columns;
* **resume** — a sweep restarted from a partial store completes to the same
  result without recomputing stored configs;
* **draw budget** — serial ``WorkloadSuite.generate`` over the five sweep
  workloads of perfbench's ``sweep-scan`` grid (n=1024, k ∈ {16, 64}, batch
  256) costs at most :data:`DRAW_US_PER_PATTERN_BUDGET` per pattern.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep_throughput.py -s
"""

from __future__ import annotations

import os
import time

import pytest

from repro.sweeps import SweepRunner, SweepSpec, SweepStore
from repro.workloads import WorkloadSuite

#: The reference grid: 16 configs (1 protocol x 2 n x 4 k x 2 seeds).
SPEC = SweepSpec(
    protocols=("scenario-b",),
    n_values=(512, 1024),
    k_values=(8, 16, 32, 64),
    seeds=(0, 1),
    batch=192,
    max_slots=200_000,
)

#: Smaller sibling grid for the (unskippable) correctness assertions.
SMALL_SPEC = SweepSpec(
    protocols=("scenario-b", "scenario-c"),
    n_values=(256,),
    k_values=(8, 16),
    seeds=(0, 1),
    batch=48,
    max_slots=200_000,
)


#: The sweep workloads, universe, contender budgets and batch of the draw gate.
DRAW_WORKLOADS = ("uniform", "churn", "heavy-tailed", "late-turn", "simultaneous")
DRAW_N = 1024
DRAW_KS = (16, 64)
DRAW_BATCH = 256

#: Timed passes over the draw grid; the fastest one is gated.
DRAW_PASSES = 7

#: Most microseconds one drawn pattern may cost, averaged over the draw grid:
#: 3x over the ~50 us of a quiet 2-vCPU host, whose readings drifted up to
#: ~95 us as the host slowed (the dict-building draw it replaced read 82-151).
DRAW_US_PER_PATTERN_BUDGET = 150.0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _columns(result):
    return [(r.config.config_hash(), r.columns) for r in result.records]


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_parallel_sweep_matches_serial_bit_for_bit():
    """Contract: sharding is scheduling only — outcomes are identical."""
    serial = SweepRunner(workers=0).run(SMALL_SPEC)
    parallel = SweepRunner(workers=4).run(SMALL_SPEC)
    assert serial.all_solved
    assert _columns(parallel) == _columns(serial)


def test_sweep_resumes_from_partial_store(tmp_path):
    """Contract: a partial store completes to the serial result, reusing disk."""
    serial = SweepRunner(workers=0).run(SMALL_SPEC)
    configs = SMALL_SPEC.configs()
    store = SweepStore(tmp_path / "store")
    SweepRunner(workers=0, store=store).run(configs[: len(configs) // 2])
    resumed = SweepRunner(workers=4, store=store).run(SMALL_SPEC)
    assert resumed.reused == len(configs) // 2
    assert _columns(resumed) == _columns(serial)


def test_sweep_parallel_speedup_is_at_least_2x(record_gate):
    """Regression gate: >= 2x configs/sec at 4 workers on the 16-config grid."""
    if _usable_cpus() < 4:
        # 4 workers on fewer than 4 cores cannot reach 2x by construction
        # (2 cores top out right at 2.0x before pool overhead), so the gate
        # only runs where it can meaningfully pass — e.g. CI's 4-vCPU runners.
        pytest.skip("the 4-worker speedup gate needs >= 4 usable CPUs")
    configs = SPEC.configs()
    assert len(configs) == 16
    serial_runner = SweepRunner(workers=0)
    parallel_runner = SweepRunner(workers=4)
    # Warm the family cache and page in both paths once; on fork platforms
    # the warmed cache is inherited by the worker processes.
    serial_runner.run(configs[:2])
    parallel_runner.run(configs[:2])

    serial_time = _best_of(lambda: serial_runner.run(SPEC), repeats=2)
    parallel_time = _best_of(lambda: parallel_runner.run(SPEC), repeats=2)
    speedup = serial_time / parallel_time
    print(
        f"sweep: serial {len(configs) / serial_time:,.1f} configs/s, "
        f"4 workers {len(configs) / parallel_time:,.1f} configs/s, "
        f"speedup {speedup:.2f}x"
    )
    # Record before asserting so a regression still lands in the trajectory.
    record_gate(
        "sweep_parallel",
        threshold=2.0,
        unit="configs/sec",
        measurements=[
            {
                "grid": f"{len(configs)} configs, 4 workers",
                "speedup": round(speedup, 2),
                "parallel_rate": round(len(configs) / parallel_time, 2),
                "serial_rate": round(len(configs) / serial_time, 2),
            }
        ],
    )
    assert speedup >= 2.0, (
        f"4-worker sweep only {speedup:.2f}x over serial "
        f"(serial {serial_time:.3f}s, parallel {parallel_time:.3f}s for {len(configs)} configs)"
    )


def test_workload_draw_budget(record_gate):
    """Regression gate: the per-pattern cost of drawing the sweep workloads.

    Every row is one vector draw from its own spawned generator, returned
    by the workload's row drawer as raw ``(stations, wake_times)`` arrays;
    each batch is concatenated and checked once as a ``PatternBatch``, with
    no per-row pattern object.  The fastest of :data:`DRAW_PASSES` passes
    over the grid is charged against the budget.
    """
    suite = WorkloadSuite()
    grid = [(name, k) for name in DRAW_WORKLOADS for k in DRAW_KS]
    patterns = len(grid) * DRAW_BATCH

    def draw_all():
        for seed, (name, k) in enumerate(grid):
            suite.generate(name, n=DRAW_N, k=k, batch=DRAW_BATCH, seed=seed)

    draw_all()
    us_per_pattern = _best_of(draw_all, repeats=DRAW_PASSES) / patterns * 1e6
    print(
        f"workload draw: {us_per_pattern:.1f} us/pattern over {patterns} patterns "
        f"(budget {DRAW_US_PER_PATTERN_BUDGET:.0f})"
    )
    record_gate(
        "workload_draw",
        threshold=DRAW_US_PER_PATTERN_BUDGET,
        unit="us/pattern",
        measurements=[
            {
                "grid": f"{'+'.join(DRAW_WORKLOADS)}, n={DRAW_N}, k={DRAW_KS}, batch={DRAW_BATCH}",
                "draw_us_per_pattern": round(us_per_pattern, 2),
                "budget_us": DRAW_US_PER_PATTERN_BUDGET,
            }
        ],
    )
    assert us_per_pattern <= DRAW_US_PER_PATTERN_BUDGET, (
        f"drawing the sweep workloads costs {us_per_pattern:.1f} us/pattern, "
        f"over the {DRAW_US_PER_PATTERN_BUDGET:.0f} us budget"
    )


def test_benchmark_sweep_serial(benchmark):
    """Baseline: the serial config loop on the reference grid."""
    result = benchmark.pedantic(
        lambda: SweepRunner(workers=0).run(SPEC), rounds=1, iterations=1
    )
    assert result.all_solved
    benchmark.extra_info["configs_per_sec"] = len(SPEC.configs()) / benchmark.stats["mean"]


def test_benchmark_sweep_4_workers(benchmark):
    """The same grid sharded across 4 worker processes."""
    result = benchmark.pedantic(
        lambda: SweepRunner(workers=4).run(SPEC), rounds=1, iterations=1
    )
    assert result.all_solved
    benchmark.extra_info["configs_per_sec"] = len(SPEC.configs()) / benchmark.stats["mean"]
