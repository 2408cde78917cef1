"""Startup: what a fresh ``repro`` process pays before it simulates a slot.

Every paper experiment, every shell query and every benchmark repetition is
a fresh interpreter, so module loading is paid on every run.  This records
the median wall time of six fresh processes, each started the same number
of times in alternating rounds so host drift spreads evenly over them:

* ``python -c pass`` (the bare interpreter) and ``import numpy`` (the floor
  any engine command pays);
* ``import repro`` (lazy exports: no submodule, no numpy);
* ``repro --help`` (the parser alone);
* ``import repro.sweeps.runner`` (what a sweep loads);
* ``import repro.service.client`` (what a shell query client loads);
* ``import repro.commands.query`` (what ``repro service query`` loads before
  it sends its query).

Bytecode is cached first, in a temporary ``PYTHONPYCACHEPREFIX``, so the
numbers are the steady state of an installed package rather than compile
time.  The ``startup`` entry of ``BENCH_results.json`` holds each median and
its excess over the bare interpreter; it has no threshold, like
``engine_throughput``.

Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_startup.py
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Alternating rounds; each round starts every command once.
ROUNDS = 9

#: The commands timed, by label.
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import repro": ["-c", "import repro"],
    "repro --help": ["-m", "repro", "--help"],
    "import repro.sweeps.runner": ["-c", "import repro.sweeps.runner"],
    "import repro.service.client": ["-c", "import repro.service.client"],
    "import repro.commands.query": ["-c", "import repro.commands.query"],
}


def _seconds(args, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL
    )
    return time.perf_counter() - t0


def test_startup_medians(record_gate, tmp_path):
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONDONTWRITEBYTECODE", "REPRO_OBS")
    }
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp_path))
    for args in COMMANDS.values():  # compiles and caches every module once
        _seconds(args, env)
    samples = {label: [] for label in COMMANDS}
    for _ in range(ROUNDS):
        for label, args in COMMANDS.items():
            samples[label].append(_seconds(args, env))
    medians = {label: statistics.median(values) for label, values in samples.items()}
    bare = medians["python -c pass"]
    measurements = []
    for label, value in medians.items():
        print(f"{label:<30} {value:.4f} s (+{value - bare:.4f} s over bare)")
        measurements.append(
            {
                "command": label,
                "median_s": round(value, 4),
                "over_bare_s": round(value - bare, 4),
                "rounds": ROUNDS,
            }
        )
    # No floor (threshold 1.0): the entry records where startup stands.
    record_gate("startup", threshold=1.0, unit="s", measurements=measurements)
