"""Scenario generators new to the workload suite.

:mod:`repro.channel.adversary` provides the structured patterns the paper's
experiments need (simultaneous, staggered, batched, uniform, boundary
attacks).  This module adds the generators that round the library out into a
workload *suite* — traffic shapes observed in real deployments plus adversary
classes that stress different structural assumptions:

* :func:`heavy_tailed_pattern` — Pareto-distributed wake staggering: most
  stations wake almost together, a heavy tail trickles in much later (flash
  crowds, cascading restarts);
* :func:`duty_cycle_pattern` — periodic sensor duty-cycles: wake-ups
  concentrate in short active windows that recur every ``period`` slots;
* :func:`churn_burst_pattern` — churn: cohorts of stations arrive in bursts
  separated by quiet gaps, each burst smeared over a few slots;
* :func:`clustered_id_pattern` — contiguous blocks of station IDs wake
  together, stressing schedules whose structure is keyed on ID arithmetic;
* :func:`density_drawn_pattern` — the building block of density sweeps: the
  number of contenders is itself drawn (log-uniformly up to ``k``), so a
  batch spans the whole density range instead of sitting at one ``k``;
* :func:`late_turn_pattern` — the deterministic worst-case subset: the last
  ``k`` station IDs (the ones a round-robin schedule serves last) wake
  simultaneously, or ``gap`` slots apart;
* :func:`family_boundary_workload_pattern` — wake-ups aligned to the
  selective-family boundaries of a *named protocol* (built from the sweep
  registry), the structure-aware attack the paper's Scenario B analysis is
  about;
* :func:`window_boundary_workload_pattern` — wake-ups straddling a waking
  window boundary, with the window length defaulting to the Scenario C
  matrix parameters for ``n``.

The last three exist so the experiment campaign can express its adversarial
pattern batteries as *named* workloads inside content-hashable sweep configs
(see :mod:`repro.experiments.campaign`), instead of materializing patterns
outside the store's addressing scheme.

Every generator follows the :mod:`repro.channel.adversary` conventions: it
is written once, as a *row drawer* ``*_row`` returning aligned ``(stations,
wake_times)`` arrays (what the workload registry draws its batches from), and
its ``*_pattern`` form is :func:`~repro.channel.adversary.pattern_drawer` over
the same drawer.  The signature starts ``(n, k, *, start=0, ...,
stations=None, rng=None)``, the station subset defaults to a uniform draw,
and one station is pinned to ``start`` so that ``s`` (the first wake-up) is
deterministic and latencies of different draws are comparable.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro._util import RngLike, as_generator, validate_k_n
from repro.channel.adversary import (
    Row,
    family_boundary_row,
    pattern_drawer,
    row_stations,
    simultaneous_row,
    staggered_row,
    uniform_random_row,
    window_boundary_row,
)

__all__ = [
    "heavy_tailed_row",
    "duty_cycle_row",
    "churn_burst_row",
    "clustered_id_row",
    "density_drawn_row",
    "late_turn_row",
    "family_boundary_workload_row",
    "window_boundary_workload_row",
    "heavy_tailed_pattern",
    "duty_cycle_pattern",
    "churn_burst_pattern",
    "clustered_id_pattern",
    "density_drawn_pattern",
    "late_turn_pattern",
    "family_boundary_workload_pattern",
    "window_boundary_workload_pattern",
]


def heavy_tailed_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    scale: float = 8.0,
    alpha: float = 1.2,
    cap: int = 100_000,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> Row:
    """Stations wake after Pareto-distributed (heavy-tailed) delays.

    Each wake offset is ``floor(scale * X)`` with ``X ~ Lomax(alpha)``: for
    ``alpha`` close to 1 most stations wake within a few ``scale`` of slots
    while a few stragglers arrive orders of magnitude later — the shape of
    flash crowds and cascading restarts.  Offsets are capped at ``cap`` so a
    single extreme draw cannot push the horizon out of reach.
    """
    k, n = validate_k_n(k, n)
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    gen = as_generator(rng)
    chosen = row_stations(n, k, stations, gen)
    offsets = np.minimum(np.floor(scale * gen.pareto(alpha, size=k)).astype(np.int64), cap)
    times = start + offsets
    times[0] = start
    return chosen, times


def duty_cycle_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    period: int = 64,
    periods: int = 4,
    active_fraction: float = 0.25,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> Row:
    """Periodic sensor duty-cycles: wake-ups cluster in recurring windows.

    Each station picks one of ``periods`` duty cycles and wakes inside that
    cycle's active window — the first ``active_fraction`` of the ``period``.
    The result is the comb-shaped arrival process of duty-cycled sensor
    networks: dense bursts at ``start + c * period``, silence in between.
    """
    k, n = validate_k_n(k, n)
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if not 0.0 < active_fraction <= 1.0:
        raise ValueError(f"active_fraction must be in (0, 1], got {active_fraction}")
    gen = as_generator(rng)
    chosen = row_stations(n, k, stations, gen)
    active_len = max(1, int(period * active_fraction))
    cycle = gen.integers(0, periods, size=k)
    offset = gen.integers(0, active_len, size=k)
    times = start + cycle * period + offset
    times[0] = start
    return chosen, times


def churn_burst_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    bursts: int = 3,
    burst_gap: int = 48,
    spread: int = 2,
    stations: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> Row:
    """Churn: cohorts of stations arrive in bursts separated by quiet gaps.

    Stations are dealt round-robin into ``bursts`` cohorts; cohort ``b``
    arrives around ``start + b * burst_gap``, each member jittered by up to
    ``spread`` slots.  This models membership churn — every ``burst_gap``
    slots a fresh cohort joins the contention while earlier cohorts are still
    unresolved.
    """
    k, n = validate_k_n(k, n)
    if bursts < 1:
        raise ValueError(f"bursts must be >= 1, got {bursts}")
    if burst_gap < 0:
        raise ValueError(f"burst_gap must be >= 0, got {burst_gap}")
    if spread < 0:
        raise ValueError(f"spread must be >= 0, got {spread}")
    gen = as_generator(rng)
    chosen = row_stations(n, k, stations, gen)
    jitter = gen.integers(0, spread + 1, size=k)
    times = start + (np.arange(k, dtype=np.int64) % bursts) * burst_gap + jitter
    times[0] = start
    return chosen, times


def clustered_id_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    clusters: int = 2,
    window: int = 32,
    rng: RngLike = None,
) -> Row:
    """Adversarially clustered IDs: contiguous blocks of stations wake together.

    The awakened set is the union of ``clusters`` contiguous runs of station
    IDs (wake times uniform over ``window``).  Many schedules in the library
    derive transmit slots from ID arithmetic (round-robin residues, selector
    block structure, matrix rows), so neighbouring IDs are exactly the
    correlated inputs a random subset never produces.
    """
    k, n = validate_k_n(k, n)
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    clusters = min(clusters, k)
    gen = as_generator(rng)
    # Split k into `clusters` contiguous runs and place each run at a random
    # base ID; collisions between runs are topped up with fresh random IDs so
    # the pattern always has exactly k stations.
    sizes = [k // clusters + (1 if c < k % clusters else 0) for c in range(clusters)]
    taken = np.zeros(n + 1, dtype=bool)
    for size in sizes:
        base = int(gen.integers(1, n - size + 2))
        taken[base : base + size] = True
    shortfall = k - int(np.count_nonzero(taken))
    if shortfall > 0:
        pool = np.flatnonzero(~taken[1:]) + 1
        taken[pool[gen.choice(pool.size, size=shortfall, replace=False)]] = True
    ordered = np.flatnonzero(taken)
    times = start + gen.integers(0, window, size=k)
    times[0] = start
    return ordered, times


def density_drawn_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    window: int = 128,
    k_min: int = 2,
    rng: RngLike = None,
) -> Row:
    """Draw the contender count itself, then a uniform pattern at that density.

    The effective ``k`` is sampled log-uniformly from ``[k_min, k]``, so a
    batch of these patterns sweeps the whole density range — sparse handfuls
    and near-``k`` crowds in one workload — instead of sitting at a single
    operating point.  ``pattern.k`` records the drawn density.
    """
    k, n = validate_k_n(k, n)
    k_min = max(1, min(int(k_min), k))
    gen = as_generator(rng)
    log_lo, log_hi = np.log(k_min), np.log(k + 1)
    k_eff = min(k, int(np.exp(gen.uniform(log_lo, log_hi))))
    return uniform_random_row(n, max(k_min, k_eff), start=start, window=window, rng=gen)


def late_turn_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    gap: int = 0,
    rng: RngLike = None,
) -> Row:
    """The last ``k`` station IDs wake together (or ``gap`` slots apart).

    The classical hard instance for ID-ordered schedules: stations
    ``n-k+1 .. n`` are exactly the ones a round-robin pass serves last, so
    this pattern realizes the ``n - k + 1``-ish worst cases the E-series
    certificates pin.  Fully deterministic — ``rng`` is accepted for the
    workload-factory convention but never drawn from, so every batch row is
    the identical pattern.
    """
    k, n = validate_k_n(k, n)
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    stations = np.arange(n - k + 1, n + 1, dtype=np.int64)
    if gap == 0:
        return simultaneous_row(n, k, start=start, stations=stations)
    return staggered_row(n, k, start=start, gap=gap, stations=stations)


@functools.lru_cache(maxsize=64)
def _family_boundaries(
    builder: Optional[Callable], protocol: str, n: int, k: int, proto_seed: int, periods: int
) -> Tuple[int, ...]:
    """The boundary slots :func:`family_boundary_workload_row` attacks, once per key.

    ``builder`` is the builder registered under ``protocol``, so a name
    registered anew never reads an old protocol's boundaries.
    """
    from repro.sweeps.protocols import build_protocol

    proto = build_protocol(protocol, n, k, seed=proto_seed)
    if hasattr(proto, "family_boundaries_absolute"):
        boundaries = proto.family_boundaries_absolute(
            up_to=periods * proto.wait_and_go_arm.period
        )
    elif hasattr(proto, "boundary_slots"):
        boundaries = proto.boundary_slots(up_to=periods * proto.period)
    else:
        boundaries = []
    return tuple(int(b) for b in boundaries)


def family_boundary_workload_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    protocol: str = "scenario-b",
    proto_seed: int = 0,
    periods: int = 4,
    rng: RngLike = None,
) -> Row:
    """Wake-ups aligned to a named protocol's selective-family boundaries.

    Builds ``protocol`` from the sweep registry and attacks the slots where
    its schedule switches families: ``family_boundaries_absolute`` for
    interleaved Scenario B constructions, ``boundary_slots`` for plain
    ``wait-and-go``.  The boundary list is computed once per ``(protocol, n,
    k, proto_seed, periods)`` and kept, so the rows of a batch build the
    protocol once.  Protocols exposing neither, or exposing no boundary
    below ``periods`` schedule periods, fall back to the deterministic
    late-turn instance so the workload is total over the registry.
    """
    from repro.sweeps.protocols import PROTOCOL_BUILDERS

    k, n = validate_k_n(k, n)
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    builder = PROTOCOL_BUILDERS.get(protocol)
    boundaries = _family_boundaries(builder, protocol, n, k, proto_seed, periods)
    if not boundaries:
        return late_turn_row(n, k, start=start, rng=rng)
    return family_boundary_row(n, k, boundaries=boundaries, start=start, rng=rng)


def window_boundary_workload_row(
    n: int,
    k: int,
    *,
    start: int = 0,
    window: int = 0,
    rng: RngLike = None,
) -> Row:
    """Wake-ups straddling a waking-window boundary (Scenario C's attack).

    ``window=0`` (the default) derives the window length from the Scenario C
    matrix parameters for ``n``, so the workload tracks the construction it
    attacks without the config having to repeat the derivation.
    """
    k, n = validate_k_n(k, n)
    if window <= 0:
        from repro.core.waking_matrix import matrix_parameters

        window = matrix_parameters(n).window
    return window_boundary_row(n, k, window_length=max(1, window), start=start, rng=rng)


# The WakeupPattern forms: the same drawers, one validated pattern per call.
heavy_tailed_pattern = pattern_drawer(heavy_tailed_row)
duty_cycle_pattern = pattern_drawer(duty_cycle_row)
churn_burst_pattern = pattern_drawer(churn_burst_row)
clustered_id_pattern = pattern_drawer(clustered_id_row)
density_drawn_pattern = pattern_drawer(density_drawn_row)
late_turn_pattern = pattern_drawer(late_turn_row)
family_boundary_workload_pattern = pattern_drawer(family_boundary_workload_row)
window_boundary_workload_pattern = pattern_drawer(window_boundary_workload_row)
