"""The experiment registry: E1–E11, each stated once as a definition record.

E1–E10 reproduce the paper's claims; E11 is the global-vs-local clock
extension (the paper's closing open question).

Every experiment is one
:class:`~repro.experiments.definition.ExperimentDefinition` in
:data:`DEFINITIONS`, holding its title, the paper claim its report section
quotes, and two functions:

* ``cells(scale)`` lays out what the experiment measures — ``(n, k)`` cells
  holding content-hashable
  :class:`~repro.experiments.definition.MeasurementSpec` sweep configs
  (protocol name, ``(n, k)``, workload, batch, seed, horizon), pure data
  with no live objects.  The definition's ``plan(scale)`` is every spec in
  the cells, in order, so nothing states the demand a second time;
* ``render(result, resolved, cells, scale)`` reads the resolved records
  back out of the same cells into the tables, figures and certificates of
  the :class:`~repro.experiments.runner.ExperimentResult` the campaign
  made from the record.

The split is what makes the paper campaign (:mod:`repro.experiments.campaign`)
possible: specs deduplicate across experiments (E1/E2/E3/E5/E10/E11 share
grid cells), resolve process-parallel through :mod:`repro.sweeps`, and
memoize in one :class:`~repro.sweeps.store.SweepStore`.  Render functions are
pure over the resolved records.  Compute that is not a spec measurement (E4's
adaptive-adversary table, E7's matrix figures, E8's family constructions),
driven by a fixed per-experiment seed (``_E4_SEED``, ``_E7_SEED``,
``_E8_SEED``), runs through
:meth:`~repro.experiments.definition.ResolvedSpecs.memo`: with a store it is
kept as a schema-versioned ``render/<hash>`` blob, so a warm rerun renders
from stored records and blobs alone and simulates nothing.

Every spec uses :data:`BATTERY_SEED` so overlapping cells hash identically
across experiments; the per-experiment seeds above only feed that
render-side randomness.  ``repro paper report`` renders every experiment's
section at any scale; ``repro experiment EX``
(:func:`~repro.experiments.campaign.run_experiment`, a one-experiment
campaign) renders one.

The paper is a theory paper without numeric tables, so each experiment
validates a stated theorem or comparative claim, quoted in its section.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro._util import as_generator, log2_safe, loglog2_safe
from repro.analysis.certificates import check_lower_bound, check_upper_bound
from repro.analysis.fitting import best_model
from repro.analysis.shape import who_wins
from repro.analysis.statistics import sorted_median
from repro.channel.adversary import AdaptiveLowerBoundAdversary
from repro.channel.simulator import run_deterministic
from repro.channel.wakeup import WakeupPattern
from repro.combinatorics.selectors import strongly_selective_family
from repro.combinatorics.verification import monte_carlo_selectivity
from repro.core.lower_bounds import (
    randomized_lower_bound,
    scenario_ab_bound,
    scenario_c_bound,
    trivial_lower_bound,
)
from repro.core.round_robin import RoundRobin
from repro.core.scenario_a import WakeupWithS
from repro.core.scenario_b import WakeupWithK
from repro.core.scenario_c import WakeupProtocol
from repro.core.selective import random_selective_family, selective_family_target_length
from repro.core.waking_matrix import first_isolation, matrix_parameters
from repro.experiments.cache import shared_cache
from repro.experiments.config import ExperimentScale
from repro.experiments.definition import ExperimentDefinition, MeasurementSpec, ResolvedSpecs
from repro.experiments.runner import ExperimentResult
from repro.reporting.figures import ascii_line_plot, render_matrix_occupancy, render_trace
from repro.reporting.tables import TextTable

__all__ = [
    "BATTERY_SEED",
    "DEFINITIONS",
]


# ---------------------------------------------------------------------------
# Shared planning helpers
# ---------------------------------------------------------------------------


#: Seed every measurement spec carries.  One shared value — not the
#: per-experiment seed — so a grid cell demanded by several experiments is
#: one store record; workload streams are still decorrelated per workload
#: name by the suite's ``SeedSequence`` discipline, and the per-experiment
#: render seeds feed only render-side randomness.
BATTERY_SEED = 0


def _spec(
    protocol: str,
    n: int,
    k: int,
    scale: ExperimentScale,
    workload: str,
    batch: int,
    params: Mapping[str, object] = (),
    *,
    protocol_params: Mapping[str, object] = (),
) -> MeasurementSpec:
    """One measurement spec at the campaign's shared seed and the scale's horizon."""
    return MeasurementSpec(
        protocol=protocol,
        n=n,
        k=k,
        workload=workload,
        batch=batch,
        seed=BATTERY_SEED,
        max_slots=scale.max_slots,
        params=params,
        protocol_params=protocol_params,
    )


def _battery(
    protocol: str,
    n: int,
    k: int,
    scale: ExperimentScale,
    *,
    protocol_params: Mapping[str, object] = (),
) -> List[MeasurementSpec]:
    """The standard adversarial pattern battery of the scenario sweeps, as specs.

    Mirrors the historical pattern batch: the structured choice "the k
    stations with the latest round-robin turns" (simultaneous and one slot
    apart) — which prevents the interleaved round-robin arm from ending a
    run by luck — plus random simultaneous/staggered/uniform draws sized by
    the scale.  Each element is one config the store can memoize.
    """
    def spec(workload: str, batch: int, params: Mapping[str, object] = ()):
        return _spec(
            protocol, n, k, scale, workload, batch, params,
            protocol_params=protocol_params,
        )

    return [
        spec("late-turn", 1),
        spec("late-turn", 1, {"gap": 1}),
        spec("simultaneous", scale.seeds),
        spec("staggered", scale.seeds, {"gap": 1}),
        spec("uniform", scale.seeds * scale.patterns_per_seed, {"window": max(16, 4 * k)}),
    ]


def _upper_bound_experiment(
    experiment: str,
    *,
    title: str,
    paper_claim: str,
    cells: Callable[[ExperimentScale], List[Tuple[int, int, List[MeasurementSpec]]]],
    bound: Callable[[int, int], float],
    bound_header: str,
    protocol: str,
    table_key: str,
    claim: str,
    tolerance: float,
    small_k: bool,
) -> ExperimentDefinition:
    """E1–E3: each ``(n, k)`` cell's worst latency against an upper bound.

    ``cells(scale)`` lists ``(n, k, specs)``; a cell's latency is the worst
    over its specs.  The render tabulates it beside ``bound(n, k)``,
    certifies ``claim`` within ``tolerance`` and notes the best-fitting
    growth model (on the k <= n/4 regime when ``small_k``).
    """

    def render(
        result: ExperimentResult, resolved: ResolvedSpecs, cells, scale: ExperimentScale
    ) -> None:
        table = TextTable(["n", "k", "worst latency", bound_header, "ratio"])
        points: List[Tuple[int, int, float]] = []
        for n, k, specs in cells:
            latency = resolved.worst(*specs)
            value = bound(n, k)
            ratio = latency / value
            table.add_row([n, k, latency, value, ratio])
            points.append((n, k, float(max(1, latency))))
            result.rows.append(
                {
                    "protocol": protocol,
                    "n": n,
                    "k": k,
                    "latency": latency,
                    "bound": value,
                    "ratio": ratio,
                }
            )
        result.tables[table_key] = table.render()
        result.certificates.append(
            check_upper_bound(points, bound, claim=claim, tolerance=tolerance)
        )
        # Beyond k ~ n/4 the interleaved round-robin arm takes over (the
        # paper's min{n-k+1, ...} regime) and no single monotone model
        # describes the whole sweep.
        fitted = [(n, k, y) for (n, k, y) in points if k <= n // 4] if small_k else []
        fit = best_model(fitted or points)
        regime = " on the k <= n/4 regime" if small_k else ""
        result.notes.append(
            f"best-fitting growth model{regime}: {fit.model.name} "
            f"(constant {fit.constant:.2f}, residual {fit.residual:.3f})"
        )

    return ExperimentDefinition(experiment, title, paper_claim, cells, render)


# ---------------------------------------------------------------------------
# E1 — Scenario A
# ---------------------------------------------------------------------------


def _e1_cells(scale: ExperimentScale):
    return [
        (n, k, _battery("scenario-a", n, k, scale))
        for n in scale.n_values
        for k in scale.k_values(n)
    ]


# ---------------------------------------------------------------------------
# E2 — Scenario B
# ---------------------------------------------------------------------------


def _e2_cells(scale: ExperimentScale):
    cells = []
    for n in scale.n_values:
        for k in scale.k_values(n):
            specs = _battery("scenario-b", n, k, scale)
            # The adversarial draw that wakes stations just after a
            # selective-family boundary — the worst case for wait_and_go.
            specs.append(
                _spec(
                    "scenario-b", n, k, scale, "family-boundary", 1,
                    {"protocol": "scenario-b", "proto_seed": BATTERY_SEED, "periods": 4},
                )
            )
            cells.append((n, k, specs))
    return cells


# ---------------------------------------------------------------------------
# E3 — Scenario C
# ---------------------------------------------------------------------------


def _e3_cells(scale: ExperimentScale):
    cells = []
    for n in scale.n_values:
        window = int(matrix_parameters(n).window)
        for k in scale.k_values(n, cap=min(n, 256)):
            specs = _battery("scenario-c", n, k, scale)
            # The window-boundary adversary: stations wake one slot after a
            # window starts, maximizing the forced idle time of µ.
            specs.append(
                _spec("scenario-c", n, k, scale, "window-boundary", 1, {"window": window})
            )
            cells.append((n, k, specs))
    return cells


# ---------------------------------------------------------------------------
# E4 — Lower bound
# ---------------------------------------------------------------------------


def _e4_cells(scale: ExperimentScale):
    n = scale.n_values[0]
    # Exact worst case for round-robin: wake (simultaneously) the k stations
    # whose turns come last, so the first k-1 ... n-k turns are wasted.
    return [
        (n, k, _spec("round-robin", n, k, scale, "late-turn", 1))
        for k in scale.k_values(n, cap=min(n - 1, 64))
    ]


#: Seed of E4's adaptive-adversary runs and of its protocols' constructions.
_E4_SEED = 4


def _e4_adversary_table(
    cells: List[Tuple[int, int]], max_slots: int, seed: int
) -> List[List[list]]:
    """Per cell, ``[protocol, adversary latency, distinct slots]`` rows.

    All runs draw from one sequential ``rng``, so the table is computed (and
    memoized) whole.
    """
    rng = as_generator(seed)
    table = []
    for n, k in cells:
        families = shared_cache.concatenation(n, k, seed=seed)
        protocols = {
            "round_robin": RoundRobin(n),
            "wakeup_with_s": WakeupWithS(
                n, s=0, families=shared_cache.concatenation(n, n, seed=seed)
            ),
            "wakeup_with_k": WakeupWithK(n, k, families=families),
            "wakeup_scenario_c": WakeupProtocol(n, seed=seed),
        }
        reports = []
        for name, protocol in protocols.items():
            adversary = AdaptiveLowerBoundAdversary(protocol, max_slots=max_slots)
            report = adversary.run(k, rng=rng)
            reports.append([name, report.max_latency, report.distinct_isolating_slots])
        table.append(reports)
    return table


def _e4_render(
    result: ExperimentResult, resolved: ResolvedSpecs, cells, scale: ExperimentScale
) -> None:
    table = TextTable(
        ["protocol", "n", "k", "adversary latency", "distinct slots", "min{k,n-k+1}"]
    )
    keys = [(n, k) for n, k, _ in cells]
    adversary_table = resolved.memo(
        result.experiment,
        {"cells": keys, "max_slots": scale.max_slots, "seed": _E4_SEED},
        lambda: _e4_adversary_table(keys, scale.max_slots, _E4_SEED),
    )
    exact_points: List[Tuple[int, int, float]] = []
    for (n, k, spec), reports in zip(cells, adversary_table):
        bound = trivial_lower_bound(n, k)
        for name, latency, distinct in reports:
            table.add_row([name, n, k, latency, distinct, bound])
            result.rows.append(
                {
                    "protocol": name,
                    "n": n,
                    "k": k,
                    "adversary_latency": latency,
                    "distinct_slots": distinct,
                    "bound": bound,
                }
            )
        exact = resolved.worst(spec)
        exact_points.append((n, k, float(exact + 1)))  # +1: latency t-s counts from 0
        result.rows.append(
            {
                "protocol": "round_robin_exact_adversary",
                "n": n,
                "k": k,
                "adversary_latency": exact,
                "bound": bound,
            }
        )
    result.tables["lower_bound_adversary"] = table.render()
    result.certificates.append(
        check_lower_bound(
            exact_points,
            trivial_lower_bound,
            claim="round-robin worst case >= min{k, n-k+1} (exact adversary)",
            tolerance=1.05,
        )
    )
    result.notes.append(
        "the replacement adversary is a heuristic realization of the Theorem 2.1 proof; "
        "its latencies are empirical floors, not exact worst cases"
    )


# ---------------------------------------------------------------------------
# E5 — Scenario gap
# ---------------------------------------------------------------------------

_E5_K = 8


def _e5_cells(scale: ExperimentScale):
    return [
        (
            n,
            _E5_K,
            {
                "a": _battery("scenario-a", n, _E5_K, scale),
                "b": _battery("scenario-b", n, _E5_K, scale),
                "c": _battery("scenario-c", n, _E5_K, scale),
            },
        )
        for n in scale.n_values
        if _E5_K <= n
    ]


def _e5_render(
    result: ExperimentResult, resolved: ResolvedSpecs, cells, scale: ExperimentScale
) -> None:
    table = TextTable(
        ["n", "k", "latency A", "latency B", "latency C", "gap C/A", "theory factor"]
    )
    ns, series_a, series_b, series_c = [], [], [], []
    for n, k, batteries in cells:
        latency_a = resolved.worst(*batteries["a"])
        latency_b = resolved.worst(*batteries["b"])
        latency_c = resolved.worst(*batteries["c"])
        theory = (log2_safe(n) * loglog2_safe(n)) / log2_safe(n / k)
        table.add_row(
            [n, k, latency_a, latency_b, latency_c, latency_c / latency_a, theory]
        )
        ns.append(n)
        series_a.append(latency_a)
        series_b.append(latency_b)
        series_c.append(latency_c)
        result.rows.append(
            {
                "n": n,
                "k": k,
                "latency_a": latency_a,
                "latency_b": latency_b,
                "latency_c": latency_c,
                "gap_c_over_a": latency_c / latency_a,
                "theory_factor": theory,
            }
        )
    result.tables["scenario_gap"] = table.render()
    if len(ns) >= 2:
        result.figures["latency_vs_n"] = ascii_line_plot(
            ns,
            {"scenario A": series_a, "scenario B": series_b, "scenario C": series_c},
            title=f"Worst-case latency vs n (k = {_E5_K})",
            logy=True,
        )
    gap_holds = all(c >= a for a, c in zip(series_a, series_c))
    result.notes.append(
        "scenario C never beats scenario A on worst-case latency: "
        + ("confirmed" if gap_holds else "NOT confirmed")
    )


# ---------------------------------------------------------------------------
# E6 — Randomized protocols
# ---------------------------------------------------------------------------

#: Policy keys and their sweep-registry names; the first group runs strict
#: (the paper's-model policies), the second capped at the horizon (the
#: feedback-driven baselines on the stronger collision-detection channel).
_E6_STRICT = (
    ("rpd_n", "rpd"),
    ("rpd_k", "rpd-known-k"),
    ("decay", "decay"),
    ("aloha", "aloha"),
)
_E6_CAPPED = (("beb", "beb"), ("tree", "tree-splitting"))


def _e6_cells(scale: ExperimentScale):
    repetitions = max(10, 5 * scale.seeds)
    cells = []
    for n in scale.n_values:
        for k in (2, 8, min(32, n)):
            params = {"window": max(4, 2 * k)}
            specs = {
                name: _spec(protocol, n, k, scale, "uniform", repetitions, params)
                for name, protocol in _E6_STRICT + _E6_CAPPED
            }
            cells.append((n, k, specs))
    return cells


def _e6_render(
    result: ExperimentResult, resolved: ResolvedSpecs, cells, scale: ExperimentScale
) -> None:
    table = TextTable(
        [
            "n",
            "k",
            "RPD (n)",
            "RPD (k known)",
            "Decay",
            "tuned ALOHA",
            "BEB",
            "tree split",
            "log2 n",
            "log2 k",
        ]
    )
    capped_names = {name for name, _ in _E6_CAPPED}
    rpd_known_points: List[Tuple[int, int, float]] = []
    rpd_unknown_points: List[Tuple[int, int, float]] = []
    for n, k, specs in cells:
        means = {
            name: resolved.mean(spec, capped=name in capped_names)
            for name, spec in specs.items()
        }
        table.add_row(
            [
                n,
                k,
                means["rpd_n"],
                means["rpd_k"],
                means["decay"],
                means["aloha"],
                means["beb"],
                means["tree"],
                log2_safe(n),
                log2_safe(k),
            ]
        )
        rpd_unknown_points.append((n, k, max(1.0, means["rpd_n"])))
        rpd_known_points.append((n, k, max(1.0, means["rpd_k"])))
        result.rows.append(
            {
                "n": n,
                "k": k,
                "rpd_mean": means["rpd_n"],
                "rpd_known_k_mean": means["rpd_k"],
                "decay_mean": means["decay"],
                "tuned_aloha_mean": means["aloha"],
                "beb_mean": means["beb"],
                "tree_splitting_mean": means["tree"],
                "log2_n": log2_safe(n),
                "log2_k": log2_safe(k),
            }
        )
    result.tables["randomized_expected_latency"] = table.render()
    result.notes.append(
        "beb and tree_splitting run on the collision-detection channel (stronger than "
        "the paper's model), resolved through the vectorized feedback engine"
    )
    result.certificates.append(
        check_upper_bound(
            rpd_unknown_points,
            lambda n, k: log2_safe(n),
            claim="RPD expected latency = O(log n) (k unknown)",
            tolerance=16.0,
        )
    )
    result.certificates.append(
        check_upper_bound(
            rpd_known_points,
            lambda n, k: log2_safe(k),
            claim="RPD expected latency = O(log k) (k known)",
            tolerance=16.0,
        )
    )
    result.certificates.append(
        check_lower_bound(
            rpd_known_points,
            lambda n, k: randomized_lower_bound(k),
            claim="expected latency >= Omega(log k) (Kushilevitz-Mansour shape)",
            tolerance=8.0,
        )
    )


# ---------------------------------------------------------------------------
# E7 — Matrix structure (paper Figures 1 and 2); no measurement specs
# ---------------------------------------------------------------------------


#: Universe size of E7's figures.
_E7_N = 32

#: Seed of E7's transmission matrix.
_E7_SEED = 7


def _e7_cells(scale: ExperimentScale) -> Dict[str, int]:
    """The inputs of E7's figures, which are also its memo key."""
    return {"n": _E7_N, "max_slots": scale.max_slots, "seed": _E7_SEED}


def _e7_compute(max_slots: int, seed: int) -> Dict[str, object]:
    """E7's simulation and matrix analysis: figures, first success, frequencies."""
    n = _E7_N
    protocol = WakeupProtocol(n, seed=seed)
    params = protocol.params
    wake_times = {3: 1, 11: params.window + 1, 23: 2 * params.window + 1}
    figures = {
        "figure1_row_traversal": render_matrix_occupancy(params, wake_times, columns=72)
    }
    pattern = WakeupPattern(n, wake_times)
    run = run_deterministic(protocol, pattern, max_slots=max_slots, record_trace=True)
    if run.trace is not None:
        figures["figure2_column_alignment"] = render_trace(run.trace)
    isolation = first_isolation(protocol.matrix, pattern, max_slots=max_slots)

    # Empirical membership frequencies vs the prescribed 2^-(i+rho) probabilities.
    frequencies = []
    matrix = protocol.matrix
    columns = np.arange(0, min(params.length, 2048), dtype=np.int64)
    for row in range(1, min(params.rows, 4) + 1):
        for rho in range(params.window):
            cols = columns[(columns % params.window) == rho]
            if cols.size == 0:
                continue
            # One batched membership query over all n stations × columns of
            # this (row, rho) class — same hash cells, same frequencies as
            # the old per-station loop.
            member = matrix.membership_for_pairs(
                np.repeat(np.arange(1, n + 1, dtype=np.int64), cols.size),
                row,
                np.tile(cols, n),
            )
            hits = int(member.sum())
            total = int(member.size)
            empirical = hits / total if total else 0.0
            frequencies.append([row, rho, empirical, 2.0 ** (-(row + rho))])
    return {
        "figures": figures,
        "solved": run.solved,
        "success_slot": run.success_slot,
        "winner": run.winner,
        "isolation": list(isolation) if isolation is not None else None,
        "frequencies": frequencies,
    }


def _e7_render(
    result: ExperimentResult, resolved: ResolvedSpecs, cells, scale: ExperimentScale
) -> None:
    computed = resolved.memo(
        result.experiment, cells, lambda: _e7_compute(cells["max_slots"], cells["seed"])
    )
    result.figures.update(computed["figures"])
    isolation = computed["isolation"]
    agreement = (
        isolation is not None
        and computed["solved"]
        and isolation[0] == computed["success_slot"]
        and isolation[1] == computed["winner"]
    )
    result.notes.append(
        "protocol simulation and matrix-level isolation analysis agree on the first "
        f"success: {'yes' if agreement else 'NO'}"
    )
    result.rows.append(
        {
            "n": _E7_N,
            "protocol_success_slot": computed["success_slot"],
            "protocol_winner": computed["winner"],
            "matrix_isolation_slot": isolation[0] if isolation else None,
            "matrix_isolated_station": isolation[1] if isolation else None,
            "agreement": agreement,
        }
    )

    table = TextTable(["row i", "rho(j)", "empirical Pr[u in M_ij]", "2^-(i+rho)"])
    for row, rho, empirical, expected in computed["frequencies"]:
        table.add_row([row, rho, empirical, expected])
        result.rows.append(
            {
                "row": row,
                "rho": rho,
                "empirical_probability": empirical,
                "expected_probability": expected,
            }
        )
    result.tables["membership_probabilities"] = table.render()


# ---------------------------------------------------------------------------
# E8 — Selective-family quality; no measurement specs
# ---------------------------------------------------------------------------


#: Seed of E8's random families and their Monte-Carlo checks.
_E8_SEED = 8


def _e8_cells(scale: ExperimentScale) -> List[Tuple[int, int]]:
    return [(n, k) for n in scale.n_values for k in [2, 4, 8, 16] if k <= n]


def _e8_compute(cells: List[Tuple[int, int]], seed: int) -> List[list]:
    """Per cell, ``[target, random length, selectivity, explicit length]``.

    The random families and their Monte-Carlo checks share one sequential
    ``rng``, so the whole table is computed (and memoized) at once.
    """
    rng = as_generator(seed)
    out = []
    for n, k in cells:
        target = selective_family_target_length(n, k, multiplier=1.0)
        random_fam = random_selective_family(n, k, rng=rng)
        selectivity = monte_carlo_selectivity(random_fam, k, trials=200, rng=rng)
        explicit_length: Optional[int] = None
        if k <= 8:
            explicit_length = strongly_selective_family(n, k).length
        out.append([target, random_fam.length, selectivity, explicit_length])
    return out


def _e8_render(
    result: ExperimentResult, resolved: ResolvedSpecs, cells, scale: ExperimentScale
) -> None:
    table = TextTable(
        [
            "n",
            "k",
            "target k·log(n/k)",
            "random length",
            "random selectivity",
            "explicit length",
        ]
    )
    computed = resolved.memo(
        result.experiment,
        {"cells": cells, "seed": _E8_SEED},
        lambda: _e8_compute(cells, _E8_SEED),
    )
    for (n, k), (target, random_length, selectivity, explicit_length) in zip(
        cells, computed
    ):
        table.add_row([n, k, target, random_length, selectivity, explicit_length])
        result.rows.append(
            {
                "n": n,
                "k": k,
                "target_length": target,
                "random_length": random_length,
                "random_selectivity": selectivity,
                "explicit_length": explicit_length,
            }
        )
    result.tables["selective_family_quality"] = table.render()
    rate = min(selectivity for _, _, selectivity, _ in computed)
    result.notes.append(
        f"minimum Monte-Carlo selectivity rate of the randomized construction: {rate:.3f}"
    )


# ---------------------------------------------------------------------------
# E9 — Baseline comparison
# ---------------------------------------------------------------------------

#: Report keys and their sweep-registry protocol names, in table order.
_E9_PROTOCOLS = (
    ("wakeup_with_k", "scenario-b"),
    ("wakeup_scenario_c", "scenario-c"),
    ("tdma", "tdma"),
    ("komlos_greenberg", "komlos-greenberg"),
    ("rpd", "rpd"),
    ("tuned_aloha", "aloha"),
    ("beb", "beb"),
    ("tree_splitting", "tree-splitting"),
)
_E9_PATTERNS = (("simultaneous", "simultaneous", ()), ("staggered", "staggered", (("gap", 2),)))


def _e9_cells(scale: ExperimentScale):
    n = scale.n_values[-1]
    cells = []
    for k in scale.k_values(n, cap=min(n, 128)):
        for pattern_name, workload, params in _E9_PATTERNS:
            specs = {
                name: _spec(protocol, n, k, scale, workload, 1, params)
                for name, protocol in _E9_PROTOCOLS
            }
            cells.append((n, k, pattern_name, specs))
    return cells


def _e9_render(
    result: ExperimentResult, resolved: ResolvedSpecs, cells, scale: ExperimentScale
) -> None:
    table = TextTable(["k", "pattern", "protocol", "latency", "winner?"])
    for n, k, pattern_name, specs in cells:
        latencies: Dict[str, float] = {}
        for name, spec in specs.items():
            record = resolved[spec]
            solved = bool(record.columns["solved"][0])
            latency = int(record.columns["latency"][0]) if solved else scale.max_slots
            latencies[name] = latency
            result.rows.append(
                {
                    "n": n,
                    "k": k,
                    "pattern": pattern_name,
                    "protocol": name,
                    "latency": latency,
                    "solved": solved,
                }
            )
        winner, _ = who_wins(latencies)
        for name, latency in latencies.items():
            table.add_row([k, pattern_name, name, latency, name == winner])
    result.tables["baseline_comparison"] = table.render()
    result.notes.append(
        "beb and tree_splitting run on the collision-detection channel (stronger than the "
        "paper's model); rpd, tuned_aloha and beb are randomized — their latencies are "
        "single-run samples, not worst cases"
    )


# ---------------------------------------------------------------------------
# E10 — Ablations
# ---------------------------------------------------------------------------


def _e10_cells(scale: ExperimentScale):
    n = scale.n_values[0]
    k = max(2, min(16, n // 4))
    k_large = max(2, (3 * n) // 4)
    default_window = int(matrix_parameters(n).window)
    cells: Dict[str, list] = {
        "window_length": [],
        "constant_c": [],
        "waiting_rule": [],
        "interleaving": [],
    }
    # (a) window length: 1 vs the paper's default vs the row count.  The
    # default cell uses no protocol override, so it hash-dedups with the E3
    # battery at the same (n, k).
    for window in sorted({1, default_window, max(1, matrix_parameters(n).rows)}):
        overrides = () if window == default_window else (("window", window),)
        specs = _battery("scenario-c", n, k, scale, protocol_params=overrides)
        specs.append(
            _spec(
                "scenario-c", n, k, scale, "window-boundary", 1,
                {"window": max(1, window)}, protocol_params=overrides,
            )
        )
        cells["window_length"].append((window, specs))
    # (b) constant c: 1, 2 (the paper's default — again no override), 4.
    for c in (1, 2, 4):
        overrides = () if c == 2 else (("c", c),)
        cells["constant_c"].append(
            (
                (c, matrix_parameters(n, c=c).length),
                _battery("scenario-c", n, k, scale, protocol_params=overrides),
            )
        )
    # (c) waiting rule on family-boundary adversarial wake-ups: both
    # protocols measure the identical pattern batch (same workload config).
    boundary_params = {"protocol": "wait-and-go", "proto_seed": BATTERY_SEED, "periods": 2}
    boundary_batch = scale.seeds + scale.patterns_per_seed
    for name, protocol in (
        ("wait_and_go", "wait-and-go"),
        ("no_wait (Komlos-Greenberg)", "komlos-greenberg"),
    ):
        cells["waiting_rule"].append(
            (name, [_spec(protocol, n, k, scale, "family-boundary", boundary_batch, boundary_params)])
        )
    # (d) interleaving round-robin vs the selective arm alone, at large k.
    for name, protocol in (
        ("wakeup_with_s (interleaved)", "scenario-a"),
        ("select_among_the_first only", "select-first"),
    ):
        cells["interleaving"].append((name, _battery(protocol, n, k_large, scale)))
    return n, k, k_large, cells


def _e10_render(
    result: ExperimentResult, resolved: ResolvedSpecs, cells, scale: ExperimentScale
) -> None:
    n, k, k_large, ablations = cells

    table_a = TextTable(["window", "worst latency"])
    for window, specs in ablations["window_length"]:
        latency = resolved.worst(*specs)
        table_a.add_row([window, latency])
        result.rows.append(
            {
                "ablation": "window_length",
                "n": n,
                "k": k,
                "window": window,
                "latency": latency,
            }
        )
    result.tables["ablation_window_length"] = table_a.render()

    table_b = TextTable(["c", "worst latency", "matrix length"])
    for (c, matrix_length), specs in ablations["constant_c"]:
        latency = resolved.worst(*specs)
        table_b.add_row([c, latency, matrix_length])
        result.rows.append(
            {
                "ablation": "constant_c",
                "n": n,
                "k": k,
                "c": c,
                "latency": latency,
            }
        )
    result.tables["ablation_constant_c"] = table_b.render()

    table_c = TextTable(["protocol", "worst latency (boundary-adversarial wake-ups)"])
    for name, specs in ablations["waiting_rule"]:
        latency = resolved.worst(*specs)
        table_c.add_row([name, latency])
        result.rows.append(
            {
                "ablation": "waiting_rule",
                "n": n,
                "k": k,
                "protocol": name,
                "latency": latency,
            }
        )
    result.tables["ablation_waiting_rule"] = table_c.render()

    table_d = TextTable(["protocol", "k", "worst latency"])
    for name, specs in ablations["interleaving"]:
        latency = resolved.worst(*specs)
        table_d.add_row([name, k_large, latency])
        result.rows.append(
            {
                "ablation": "interleaving",
                "n": n,
                "k": k_large,
                "protocol": name,
                "latency": latency,
            }
        )
    result.tables["ablation_interleaving"] = table_d.render()


# ---------------------------------------------------------------------------
# E11 — Global vs local clock (extension; the paper's final open question)
# ---------------------------------------------------------------------------

_E11_VARIANTS = (
    ("global_b", "scenario-b"),
    ("local_b", "local-clock"),
    ("global_c", "scenario-c"),
    ("local_c", "local-clock-c"),
)


def _e11_cells(scale: ExperimentScale):
    n = scale.n_values[0]
    cells = []
    for k in scale.k_values(n, cap=min(n, 64)):
        specs = {
            variant: [
                _spec(protocol, n, k, scale, "late-turn", 1, {"gap": 1}),
                _spec(protocol, n, k, scale, "staggered", 1, {"gap": 3}),
                _spec(
                    protocol, n, k, scale, "uniform", scale.patterns_per_seed,
                    {"window": 4 * k},
                ),
            ]
            for variant, protocol in _E11_VARIANTS
        }
        cells.append((n, k, specs))
    return cells


def _e11_render(
    result: ExperimentResult, resolved: ResolvedSpecs, cells, scale: ExperimentScale
) -> None:
    table = TextTable(
        ["k", "wait_and_go (global)", "local-clock schedule", "scenario C (global)", "scenario C (local)"]
    )
    for n, k, variant_specs in cells:
        # Unsolved patterns count as the horizon, exactly like the old
        # capped latency jobs; all four protocols are deterministic, so
        # sharding cannot change the numbers.
        latencies = {
            variant: resolved.worst(*specs, capped=True)
            for variant, specs in variant_specs.items()
        }
        table.add_row(
            [k, latencies["global_b"], latencies["local_b"], latencies["global_c"], latencies["local_c"]]
        )
        result.rows.append(
            {
                "n": n,
                "k": k,
                "wait_and_go_global": latencies["global_b"],
                "local_clock_schedule": latencies["local_b"],
                "scenario_c_global": latencies["global_c"],
                "scenario_c_local": latencies["local_c"],
            }
        )
    result.tables["global_vs_local_clock"] = table.render()
    degradations = [
        row["local_clock_schedule"] / max(1, row["wait_and_go_global"]) for row in result.rows
    ]
    median_ratio = sorted_median(degradations)
    result.notes.append(
        "median latency ratio local/global for the selective-family schedules: "
        f"{median_ratio:.2f}x on this pattern battery"
    )
    result.notes.append(
        "the paper's conjectured local-clock penalty is a worst-case statement: sampled "
        "patterns rarely realize the shifted-schedule collisions that drive it, so a ratio "
        "near (or below) 1x here does not contradict the conjecture — it shows the gap is "
        "adversarial, not typical"
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


#: The declarative registry: the campaign driver iterates these in order.
DEFINITIONS: Dict[str, ExperimentDefinition] = {
    definition.experiment: definition
    for definition in (
        _upper_bound_experiment(
            "E1",
            title="Scenario A (s known): wakeup_with_s is Θ(k log(n/k) + 1)",
            paper_claim="Section 3: wakeup_with_s solves wake-up in Θ(k log(n/k) + 1) "
            "rounds when s is known.",
            cells=_e1_cells,
            bound=scenario_ab_bound,
            bound_header="k log(n/k)+1",
            protocol="wakeup_with_s",
            table_key="scenario_a_latency",
            claim="wakeup_with_s latency = O(k log(n/k) + 1)",
            tolerance=48.0,
            small_k=True,
        ),
        _upper_bound_experiment(
            "E2",
            title="Scenario B (k known): wakeup_with_k is Θ(k log(n/k) + 1)",
            paper_claim="Section 4: wakeup_with_k solves wake-up in Θ(k log(n/k) + 1) "
            "rounds when k is known.",
            cells=_e2_cells,
            bound=scenario_ab_bound,
            bound_header="k log(n/k)+1",
            protocol="wakeup_with_k",
            table_key="scenario_b_latency",
            claim="wakeup_with_k latency = O(k log(n/k) + 1)",
            tolerance=64.0,
            small_k=True,
        ),
        _upper_bound_experiment(
            "E3",
            title="Scenario C (nothing known): wakeup(n) is O(k log n log log n)",
            paper_claim="Theorem 5.3: wakeup(n) solves wake-up in O(k log n log log n) "
            "rounds with no knowledge.",
            cells=_e3_cells,
            bound=scenario_c_bound,
            bound_header="k·logn·loglogn",
            protocol="wakeup_scenario_c",
            table_key="scenario_c_latency",
            claim="wakeup(n) latency = O(k log n log log n)",
            tolerance=32.0,
            small_k=False,
        ),
        ExperimentDefinition(
            "E4",
            title="Lower bound: any algorithm needs min{k, n-k+1} rounds",
            paper_claim="Theorem 2.1: every algorithm needs min{k, n-k+1} rounds, "
            "even with simultaneous start.",
            cells=_e4_cells,
            render=_e4_render,
        ),
        ExperimentDefinition(
            "E5",
            title="Gap between Scenario C and Scenarios A/B",
            paper_claim="Scenario C pays at most an O(log log n) factor over the "
            "Ω(k log(n/k)) lower bound.",
            cells=_e5_cells,
            render=_e5_render,
        ),
        ExperimentDefinition(
            "E6",
            title="Randomized wake-up: RPD expected O(log n) / O(log k)",
            paper_claim="Section 6: RPD achieves expected O(log n) (O(log k) with known k); "
            "Ω(log k) is necessary.",
            cells=_e6_cells,
            render=_e6_render,
        ),
        ExperimentDefinition(
            "E7",
            title="Transmission-matrix structure (paper Figures 1 and 2)",
            paper_claim="Figures 1-2: stations traverse matrix rows and align on columns "
            "as prescribed.",
            cells=_e7_cells,
            render=_e7_render,
        ),
        ExperimentDefinition(
            "E8",
            title="Selective families: length and selectivity of the constructions",
            paper_claim="Selective families of length O(k log(n/k)) exist (Komlós-Greenberg); "
            "explicit ones are longer.",
            cells=_e8_cells,
            render=_e8_render,
        ),
        ExperimentDefinition(
            "E9",
            title="Baseline comparison on simultaneous and staggered wake-ups",
            paper_claim="Motivation: time-division (TDMA) is inefficient for k << n; "
            "feedback-based baselines need a stronger channel.",
            cells=_e9_cells,
            render=_e9_render,
        ),
        ExperimentDefinition(
            "E10",
            title="Ablations: window length, constant c, waiting rule, interleaving",
            paper_claim="Design choices: window waiting, the constant c, the wait_and_go "
            "rule and interleaving all matter.",
            cells=_e10_cells,
            render=_e10_render,
        ),
        ExperimentDefinition(
            "E11",
            title="Extension: global clock vs local clock",
            paper_claim="Conclusions (open question): does the global clock help? "
            "(extension experiment, not a paper claim)",
            cells=_e11_cells,
            render=_e11_render,
        ),
    )
}

