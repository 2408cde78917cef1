"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one experiment from the E1–E11 registry at the
``QUICK`` scale, so a full ``pytest benchmarks/ --benchmark-only`` run takes
on the order of a minute.  The experiment machinery itself accepts larger
scales; render every experiment at one with ``python -m repro paper report
--scale standard``.

Besides the fixtures, this module is the home of the **benchmark trajectory
recorder**: every hard throughput gate reports its measured speedups and
rates through :func:`record_gate_measurements`, which merges them into a
machine-readable ``BENCH_results.json`` (override the location with the
``BENCH_RESULTS_PATH`` environment variable).  CI uploads the file as a
build artifact, so the performance trajectory of every gate is preserved
run over run instead of being discarded in the logs.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.experiments.cache import FamilyCache
from repro.experiments.config import QUICK

#: Default location of the trajectory file: the repository root.
_DEFAULT_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_results.json"


def record_gate_measurements(gate, *, threshold, unit, measurements):
    """Merge one gate's measurements into ``BENCH_results.json``.

    Parameters
    ----------
    gate:
        Stable identifier of the throughput gate (e.g.
        ``"randomized_batch"``); one entry per gate is kept, so re-running a
        gate overwrites its own record and leaves the others alone.
    threshold:
        The speedup the gate asserts (the CI pass bar), recorded alongside
        the measurement so the trajectory shows headroom, not just rates.
    unit:
        What the rates count (``"patterns/sec"``, ``"configs/sec"``).
    measurements:
        List of flat dicts — one per protocol/configuration the gate timed.
    """
    path = Path(os.environ.get("BENCH_RESULTS_PATH", _DEFAULT_RESULTS_PATH))
    try:
        existing = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        existing = {}
    gates = existing.get("gates", {})
    # Provenance lives per gate entry: merging must never relabel another
    # gate's (possibly older) numbers with this run's commit or timestamp.
    gates[gate] = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": os.environ.get("GITHUB_SHA"),
        "python": platform.python_version(),
        "threshold_speedup": float(threshold),
        "unit": unit,
        "measurements": measurements,
    }
    payload = {"schema": 2, "gates": gates}
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


@pytest.fixture(scope="session")
def record_gate():
    """Session fixture handing gate tests the trajectory recorder."""
    return record_gate_measurements


@pytest.fixture(scope="session")
def scale():
    """The experiment scale used by the benchmark harness."""
    return QUICK


@pytest.fixture(scope="session")
def family_cache():
    """A benchmark-session-wide cache of selective-family constructions."""
    return FamilyCache()


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    Experiments are too slow for repeated benchmark rounds; one round is
    enough to record their wall-clock cost alongside the correctness outcome.
    """

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
