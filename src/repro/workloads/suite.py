"""The workload registry and the :class:`WorkloadSuite` façade.

A *workload* is a named, parameterized recipe for drawing wake-up patterns:
``(name, n, k, seed)`` fully determines the batch it yields (per-pattern
generators are ``SeedSequence`` children derived by ``spawn_generators``, keyed
on the workload name — see the seed-derivation convention in :mod:`repro._util`), so
any latency number in a report can be regenerated from those four values.

The registry spans the :mod:`repro.channel.adversary` primitives
(simultaneous, staggered, batched, uniform) and the suite's own generators
(:mod:`repro.workloads.generators`).  Downstream code consumes workloads
through :class:`WorkloadSuite`:

>>> from repro.workloads import WorkloadSuite
>>> suite = WorkloadSuite()
>>> batch = suite.generate("heavy-tailed", n=64, k=8, batch=16, seed=0)
>>> batch
PatternBatch(n=64, rows=16, pairs=128)
>>> batch[0].k
8
>>> batch == suite.generate("heavy-tailed", n=64, k=8, batch=16, seed=0)
True

New workloads register with :func:`register_workload`, the one way to add a
project-specific traffic shape; once registered, the suite serves it like a
built-in one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro._util import RngLike, spawn_generators, validate_k_n
from repro.channel.adversary import (
    Row,
    batched_row,
    simultaneous_row,
    staggered_row,
    uniform_random_row,
)
from repro.channel.wakeup import PatternBatch, WakeupPattern
from repro.workloads.generators import (
    churn_burst_row,
    clustered_id_row,
    density_drawn_row,
    duty_cycle_row,
    family_boundary_workload_row,
    heavy_tailed_row,
    late_turn_row,
    window_boundary_workload_row,
)

__all__ = [
    "Workload",
    "WorkloadSuite",
    "WORKLOADS",
    "register_workload",
]


@dataclass(frozen=True)
class Workload:
    """A named scenario generator.

    Attributes
    ----------
    name:
        Registry key (kebab-case).
    description:
        One-line summary shown by ``repro workloads list``.
    factory:
        The *row drawer*: a callable ``(n, k, *, rng, **params) -> (stations,
        wake_times)`` returning one row as two aligned integer arrays, in
        pair order (the order the randomized engines draw in).  It draws all
        its randomness from ``rng``, in a fixed order, so a row depends only
        on its generator.  The suite calls it once per batch row with an
        independent child generator and checks the concatenated rows once,
        as a :class:`~repro.channel.wakeup.PatternBatch`.
    defaults:
        Default keyword parameters merged under any per-call overrides.
    """

    name: str
    description: str
    factory: Callable[..., Row]
    defaults: Dict[str, object] = field(default_factory=dict)

    def row(self, n: int, k: int, *, rng: RngLike = None, **overrides) -> Row:
        """Draw one row, merging ``overrides`` over the defaults."""
        return self.factory(n, k, rng=rng, **{**self.defaults, **overrides})

    def draw(self, n: int, k: int, *, rng: RngLike = None, **overrides) -> WakeupPattern:
        """Draw one row as a pattern: :meth:`row`, checked by ``from_arrays``."""
        return WakeupPattern.from_arrays(n, *self.row(n, k, rng=rng, **overrides))


#: The global workload registry, keyed by workload name.
WORKLOADS: Dict[str, Workload] = {}


def register_workload(
    name: str,
    description: str,
    factory: Callable[..., Row],
    *,
    defaults: Optional[Dict[str, object]] = None,
) -> Workload:
    """Register a named workload; returns the :class:`Workload` record.

    ``factory`` is the workload's row drawer: ``(n, k, *, rng, **params) ->
    (stations, wake_times)``, one row as aligned integer arrays, every draw
    taken from ``rng`` (see :class:`Workload`).  An existing name is
    refused, so no registration can silently shadow the built-in suite.
    """
    if name in WORKLOADS:
        raise ValueError(f"workload {name!r} is already registered")
    workload = Workload(name, description, factory, defaults=dict(defaults or {}))
    WORKLOADS[name] = workload
    return workload


register_workload(
    "simultaneous",
    "all k stations wake at the same slot (classical synchronized case)",
    simultaneous_row,
)
register_workload(
    "staggered",
    "stations wake one after another, a fixed gap apart",
    staggered_row,
    defaults={"gap": 1},
)
register_workload(
    "batched",
    "stations wake in fixed-size bursts separated by a fixed gap",
    batched_row,
)
register_workload(
    "uniform",
    "independent uniform wake times over a window",
    uniform_random_row,
)
register_workload(
    "heavy-tailed",
    "Pareto-staggered wake-ups: a dense head and a long straggler tail",
    heavy_tailed_row,
)
register_workload(
    "duty-cycle",
    "periodic sensor duty-cycles: bursts recurring every period slots",
    duty_cycle_row,
)
register_workload(
    "churn",
    "cohorts arriving in bursts separated by quiet gaps (membership churn)",
    churn_burst_row,
)
register_workload(
    "clustered-ids",
    "contiguous blocks of station IDs wake together (ID-structure adversary)",
    clustered_id_row,
)
register_workload(
    "density-sweep",
    "contender count drawn log-uniformly up to k, then uniform wake times",
    density_drawn_row,
)
register_workload(
    "late-turn",
    "the last k station IDs wake together (gap slots apart), deterministically",
    late_turn_row,
)
register_workload(
    "family-boundary",
    "wake-ups aligned to a named protocol's selective-family boundaries",
    family_boundary_workload_row,
)
register_workload(
    "window-boundary",
    "wake-ups straddling a waking-window boundary (Scenario C attack)",
    window_boundary_workload_row,
)


class WorkloadSuite:
    """Reproducible batches of wake-up patterns from ``(name, n, k, seed)``.

    The suite is a thin, seed-disciplined view over a workload registry
    (defaulting to the module-level :data:`WORKLOADS`): every batch row gets
    its own ``SeedSequence``-spawned generator keyed on the workload name, so

    * the same ``(name, n, k, batch, seed)`` always yields the same patterns,
    * row ``i`` is independent of the batch size (prefixes agree), and
    * two workloads never share streams even at the same seed.

    Examples
    --------
    >>> suite = WorkloadSuite()
    >>> "churn" in suite.names()
    True
    >>> a = suite.generate("churn", n=32, k=4, batch=8, seed=7)
    >>> b = suite.generate("churn", n=32, k=4, batch=12, seed=7)
    >>> a == b[:8]
    True
    """

    def __init__(self, registry: Optional[Dict[str, Workload]] = None) -> None:
        self.registry = WORKLOADS if registry is None else registry

    def names(self) -> List[str]:
        """Registered workload names, sorted."""
        return sorted(self.registry)

    def get(self, name: str) -> Workload:
        """Look up one workload, with a helpful error for unknown names."""
        try:
            return self.registry[name]
        except KeyError:
            raise KeyError(
                f"unknown workload {name!r}; registered: {self.names()}"
            ) from None

    def describe(self, name: str) -> str:
        """One-line description of a workload."""
        return self.get(name).description

    def sample(self, name: str, *, n: int, k: int, seed: int = 0, **overrides) -> WakeupPattern:
        """Draw the first pattern of the batch (``generate(...)[0]``, cheaper)."""
        return self.generate(name, n=n, k=k, batch=1, seed=seed, **overrides)[0]

    def generate(
        self,
        name: str,
        *,
        n: int,
        k: int,
        batch: int,
        seed: int = 0,
        **overrides,
    ) -> PatternBatch:
        """Draw a reproducible batch of ``batch`` patterns, as one :class:`PatternBatch`.

        Each row comes from the workload's row drawer; the rows are
        concatenated and checked once, with no per-row pattern object, and
        ``batch[i]`` is row ``i`` as a :class:`WakeupPattern`.

        Parameters
        ----------
        name:
            Registry key (see :meth:`names`).
        n, k:
            Universe size and contender budget passed to the generator.
        batch:
            Number of patterns; row ``i`` only depends on ``(name, seed, i)``.
        seed:
            Base seed; child generators are spawned per row (never reused
            across workload names, see :mod:`repro._util`).
        overrides:
            Extra generator parameters (e.g. ``gap=4`` for ``staggered``).
        """
        k, n = validate_k_n(k, n)
        if batch < 0:
            raise ValueError(f"batch must be >= 0, got {batch}")
        workload = self.get(name)
        params = {**workload.defaults, **overrides}
        generators = spawn_generators(seed, batch, name)
        return PatternBatch.from_rows(
            n, [workload.factory(n, k, rng=gen, **params) for gen in generators]
        )
