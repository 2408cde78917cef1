"""Experiment scales: how big a sweep each experiment runs.

Every experiment accepts an :class:`ExperimentScale` so the same code serves
three purposes:

* ``QUICK`` — seconds per experiment; used by the pytest-benchmark harness and
  by CI, where wall-clock time matters more than statistical power;
* ``STANDARD`` — the scale for a recorded ``repro paper report --scale
  standard``;
* ``FULL`` — an overnight-ish sweep for anyone who wants tighter constants.

Scales deliberately cap the universe size rather than the number of seeds
first: the paper's claims are about growth in ``n`` and ``k``, and a handful
of seeds per configuration is enough to see the shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["ExperimentScale", "QUICK", "STANDARD", "FULL", "SCALES"]


@dataclass(frozen=True)
class ExperimentScale:
    """Parameter preset shared by all experiments.

    Attributes
    ----------
    name:
        Preset name (appears in reports).
    n_values:
        Universe sizes swept by the scenario experiments.
    k_fractions:
        For each ``n``, the ``k`` values used are the powers of two up to
        ``n``; ``k_fractions`` additionally adds ``round(f * n)`` for each
        fraction ``f`` (to probe the round-robin crossover region).
    seeds:
        Number of independent seeds per configuration.
    patterns_per_seed:
        Number of wake-up patterns drawn per seed and pattern family.
    max_slots:
        Simulation horizon (slots after the first wake-up).
    workers:
        Worker processes the campaign's resolve phase shards its specs
        across, via :func:`repro.sweeps.runner.map_jobs`.  ``0``/``1``
        resolves configs serially; results are identical either way (the
        sweeps are deterministic), so the default quick scale stays serial to
        keep CI free of process-pool overhead.
    """

    name: str
    n_values: Tuple[int, ...]
    k_fractions: Tuple[float, ...]
    seeds: int
    patterns_per_seed: int
    max_slots: int
    workers: int = 0

    def k_values(self, n: int, *, cap: int | None = None) -> List[int]:
        """The ``k`` sweep for a given ``n``: powers of two plus fraction points."""
        ks = []
        k = 2
        while k <= n:
            ks.append(k)
            k *= 2
        for fraction in self.k_fractions:
            candidate = max(2, min(n, round(fraction * n)))
            ks.append(candidate)
        ks = sorted(set(ks))
        if cap is not None:
            ks = [k for k in ks if k <= cap]
        return ks


QUICK = ExperimentScale(
    name="quick",
    n_values=(64, 128),
    k_fractions=(0.5,),
    seeds=2,
    patterns_per_seed=2,
    max_slots=200_000,
)

STANDARD = ExperimentScale(
    name="standard",
    n_values=(64, 128, 256),
    k_fractions=(0.25, 0.5, 0.75),
    seeds=3,
    patterns_per_seed=3,
    max_slots=1_000_000,
    workers=4,
)

FULL = ExperimentScale(
    name="full",
    n_values=(64, 128, 256, 512, 1024, 2048),
    k_fractions=(0.25, 0.5, 0.75, 0.9),
    seeds=5,
    patterns_per_seed=5,
    max_slots=4_000_000,
    workers=8,
)

#: The presets by the name ``--scale`` takes on the command line.
SCALES = {"quick": QUICK, "standard": STANDARD, "full": FULL}
