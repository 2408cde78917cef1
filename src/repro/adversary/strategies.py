"""Pluggable guided-search strategies over the wake-pattern space.

A strategy is a pure transition system the driver
(:func:`repro.adversary.search.adversarial_search`) steps once per search
round: ``propose`` emits the next candidate population as ``(stations,
wake_times)`` rows, the driver checks them once into one
:class:`~repro.channel.wakeup.PatternBatch` and resolves it through the
batch engine, and ``observe`` folds the measured effective latencies back
into the strategy's state.  Three design rules make the whole
search checkpointable and bit-for-bit reproducible:

* **state is plain JSON** — patterns are stored in the compact
  :func:`~repro.channel.wakeup.encode_wake_times` form, values as native
  ints/floats — so a state round-trips losslessly through the
  :class:`~repro.sweeps.store.SweepStore` checkpoint blob;
* **all randomness comes from the step stream the driver passes in** (one
  content-derived generator per step, consumed ``propose`` first then
  ``observe``), never from ambient entropy, so a resumed search replays the
  exact decisions of an uninterrupted one;
* **ties break earliest-first** (``numpy.argmax`` convention), the same
  rule the driver applies to its best-so-far certificate.

:class:`RandomStrategy` is the blind baseline: uniform random patterns,
nothing learned from earlier steps.  The three guided built-ins cover the
classical search families: simulated
:class:`AnnealingStrategy` over one incumbent pattern (shift/swap/merge
mutations, population-parallel neighbourhoods), an evolutionary
:class:`EvolutionStrategy` maintaining an elitist population — the
population-vs-single-opponent lesson: one incumbent overfits to a line of
descent, a population keeps diverse attack shapes alive — and a
:class:`BanditStrategy` running UCB1 over workload-generator
parameterizations from :data:`repro.workloads.WORKLOADS`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.channel.adversary import Row, uniform_random_row
from repro.channel.wakeup import PatternBatch, decode_wake_times, encode_wake_times
from repro.adversary.mutations import mutate_row
from repro.workloads.suite import WORKLOADS

__all__ = [
    "SearchStrategy",
    "RandomStrategy",
    "AnnealingStrategy",
    "EvolutionStrategy",
    "BanditStrategy",
    "STRATEGIES",
    "strategy_names",
    "get_strategy",
]


def _mutation_kwargs(spec) -> Dict[str, int]:
    """Shared mutation scales: shifts of ~window/16, times capped at 2·window."""
    return {
        "max_shift": max(1, spec.window // 16),
        "max_time": 2 * spec.window,
    }


def _decode_row(text: str) -> Row:
    """The row of an encoded pattern, in the encoding's (ascending station) order."""
    wake = decode_wake_times(text)
    return (
        np.fromiter(wake.keys(), np.int64, len(wake)),
        np.fromiter(wake.values(), np.int64, len(wake)),
    )


def _encode_row(batch: PatternBatch, index: int) -> str:
    """:func:`~repro.channel.wakeup.encode_wake_times` of row ``index`` of ``batch``."""
    stations, times = batch.row(index)
    return encode_wake_times(dict(zip(stations.tolist(), times.tolist())))


def _mutants(spec, row: Row, count: int, rng: np.random.Generator) -> List[Row]:
    """``count`` independent mutations of one row, drawn in order from ``rng``."""
    kwargs = _mutation_kwargs(spec)
    return [mutate_row(spec.n, *row, rng, **kwargs) for _ in range(count)]


class SearchStrategy:
    """Interface every guided-search strategy implements.

    Subclasses are stateless: all evolving search state lives in the plain
    JSON dict threaded through ``propose``/``observe`` (see the module
    docstring for the contract).  ``observe`` is also called for the driver's
    step-0 seed population (``meta == {"seeded": True}``) so strategies
    bootstrap from the structured seeds like any other round.
    """

    name: str = "?"

    def initial_state(self, spec) -> Dict[str, object]:
        """The JSON state before any step has run."""
        raise NotImplementedError

    def propose(
        self, spec, state: Dict[str, object], step: int, count: int, rng: np.random.Generator
    ) -> Tuple[List[Row], Dict[str, object]]:
        """Emit ``count`` candidate rows for ``step`` plus a meta dict.

        Each candidate is one ``(stations, wake_times)`` row in pair order;
        the driver checks the population once, as one
        :class:`~repro.channel.wakeup.PatternBatch`.  ``meta`` travels
        untouched to the matching ``observe`` call (e.g. the bandit's chosen
        arm).
        """
        raise NotImplementedError

    def observe(
        self,
        spec,
        state: Dict[str, object],
        step: int,
        batch: PatternBatch,
        effective: np.ndarray,
        meta: Dict[str, object],
        rng: np.random.Generator,
    ) -> Tuple[Dict[str, object], int]:
        """Fold measured effective latencies into the state.

        ``effective[i]`` is the effective latency of row ``i`` of ``batch``,
        the population the matching ``propose`` emitted.

        Returns the new state and the number of candidates *accepted* into
        the strategy's working set this step (the ``adversary.accepted``
        counter).
        """
        raise NotImplementedError

    def gauges(self, state: Dict[str, object]) -> Dict[str, float]:
        """Strategy-specific gauges the driver emits each step."""
        return {}


class RandomStrategy(SearchStrategy):
    """Blind sampling: the baseline every guided strategy must beat.

    After the driver's step-0 seed population, each step draws ``count``
    independent :func:`~repro.channel.adversary.uniform_random_pattern`
    candidates (``k`` random stations, wake times in ``[0, window)``) from
    the step stream; nothing observed steers the next draw.  The state is
    the best effective latency seen, replaced only on a strict improvement.
    """

    name = "random"

    def initial_state(self, spec) -> Dict[str, object]:
        return {"best": -1}

    def propose(self, spec, state, step, count, rng):
        return [
            uniform_random_row(spec.n, spec.k, window=spec.window, rng=rng)
            for _ in range(count)
        ], {}

    def observe(self, spec, state, step, batch, effective, meta, rng):
        step_best = int(np.max(effective))
        if step_best > int(state["best"]):
            return {"best": step_best}, 1
        return state, 0


class AnnealingStrategy(SearchStrategy):
    """Simulated annealing over one incumbent pattern.

    Each step proposes a neighbourhood of ``count`` independent mutations of
    the incumbent and considers only the best neighbour: better neighbours
    are always adopted, worse ones with probability
    ``exp((neighbour - incumbent) / temperature)``, and the temperature cools
    geometrically (factor 0.95 per step from ``window / 2``).
    """

    name = "anneal"

    #: Geometric cooling factor applied once per step.
    cooling = 0.95

    def initial_state(self, spec) -> Dict[str, object]:
        return {
            "incumbent": None,
            "value": -1,
            "temperature": max(1.0, spec.window / 2.0),
        }

    def propose(self, spec, state, step, count, rng):
        return _mutants(spec, _decode_row(state["incumbent"]), count, rng), {}

    def observe(self, spec, state, step, batch, effective, meta, rng):
        best_index = int(np.argmax(effective))
        best_value = int(effective[best_index])
        accepted = 0
        incumbent, value = state["incumbent"], int(state["value"])
        temperature = float(state["temperature"])
        if incumbent is None or best_value > value:
            accepted = 1
        elif rng.random() < math.exp((best_value - value) / max(temperature, 1e-9)):
            accepted = 1
        if accepted:
            incumbent = _encode_row(batch, best_index)
            value = best_value
        return {
            "incumbent": incumbent,
            "value": value,
            "temperature": max(temperature * self.cooling, 1e-3),
        }, accepted

    def gauges(self, state):
        return {
            "temperature": float(state["temperature"]),
            "incumbent_latency": float(state["value"]),
        }


class EvolutionStrategy(SearchStrategy):
    """Evolutionary population with elitism.

    The population holds the best ``spec.population`` patterns seen, sorted
    by effective latency (stably, so earlier discoveries win ties).  Each
    step breeds ``count`` offspring by mutating parents drawn with
    rank-proportional probability, then merges and truncates.  Elites are
    never displaced by equal-valued newcomers — the stable sort keeps the
    population's memory of distinct attack shapes.
    """

    name = "evolution"

    def initial_state(self, spec) -> Dict[str, object]:
        return {"population": []}

    def propose(self, spec, state, step, count, rng):
        population = state["population"]
        size = len(population)
        # Rank-proportional parent draw: rank 0 (best) gets weight `size`.
        weights = np.arange(size, 0, -1, dtype=np.float64)
        weights /= weights.sum()
        kwargs = _mutation_kwargs(spec)
        parents: Dict[int, Row] = {}
        out = []
        for parent in rng.choice(size, size=count, p=weights).tolist():
            if parent not in parents:
                parents[parent] = _decode_row(population[parent][0])
            out.append(mutate_row(spec.n, *parents[parent], rng, **kwargs))
        return out, {}

    def observe(self, spec, state, step, batch, effective, meta, rng):
        old = state["population"]
        values = [int(value) for _, value in old] + effective.tolist()
        order = sorted(range(len(values)), key=lambda i: -values[i])  # stable
        kept = order[: spec.population]
        # Only the newcomers that survive truncation are encoded.
        population = [
            (old[i][0] if i < len(old) else _encode_row(batch, i - len(old)), values[i])
            for i in kept
        ]
        accepted = sum(1 for i in kept if i >= len(old))
        return {"population": population}, accepted

    def gauges(self, state):
        population = state["population"]
        if not population:
            return {"population": 0.0}
        values = [value for _, value in population]
        return {
            "population": float(len(population)),
            "best_latency": float(max(values)),
            "mean_latency": float(sum(values) / len(values)),
        }


class BanditStrategy(SearchStrategy):
    """UCB1 over workload-generator parameterizations.

    The arms are parameterizations of the named workloads in
    :data:`repro.workloads.WORKLOADS` (simultaneous,
    staggered at unit and window-scale gaps, batched bursts, uniform windows
    at three scales) plus one *refine* arm that mutates the best pattern
    seen so far — adaptive operator selection: once some generator family
    has surfaced a hard instance, UCB shifts budget to sharpening it, which
    random redraws alone cannot do (the hard subsets are vanishingly rare).
    Each step pulls one arm — unpulled arms first, then the UCB1 index
    ``mean + sqrt(2 ln rounds / pulls)`` over rewards normalized by the best
    latency seen — and spends the whole step budget sampling patterns from
    it.
    """

    name = "bandit"

    def initial_state(self, spec) -> Dict[str, object]:
        wide_gap = max(1, spec.window // max(spec.k, 1))
        arms = [
            {"generator": "simultaneous", "params": {}},
            {"generator": "staggered", "params": {"gap": 1}},
            {"generator": "staggered", "params": {"gap": wide_gap}},
            {
                "generator": "batched",
                "params": {"batch_size": max(1, spec.k // 4), "batch_gap": wide_gap},
            },
            {"generator": "uniform", "params": {"window": max(1, spec.window // 4)}},
            {"generator": "uniform", "params": {"window": spec.window}},
            {"generator": "uniform", "params": {"window": 2 * spec.window}},
            {"generator": "refine", "params": {}},
        ]
        for arm in arms:
            arm["pulls"] = 0
            arm["reward"] = 0.0
        return {"arms": arms, "best": 0, "rounds": 0, "incumbent": None}

    def _pick_arm(self, state) -> int:
        arms = state["arms"]
        for index, arm in enumerate(arms):
            if arm["pulls"] == 0:
                return index
        rounds = max(int(state["rounds"]), 1)
        best_index, best_score = 0, -math.inf
        for index, arm in enumerate(arms):
            mean = float(arm["reward"]) / arm["pulls"]
            score = mean + math.sqrt(2.0 * math.log(rounds) / arm["pulls"])
            if score > best_score:  # strict: earliest arm wins ties
                best_index, best_score = index, score
        return best_index

    def propose(self, spec, state, step, count, rng):
        index = self._pick_arm(state)
        arm = state["arms"][index]
        if arm["generator"] == "refine" and state["incumbent"] is not None:
            rows = _mutants(spec, _decode_row(state["incumbent"]), count, rng)
        else:
            # refine pulled before any incumbent exists draws uniform patterns
            name = "uniform" if arm["generator"] == "refine" else arm["generator"]
            workload = WORKLOADS[name]
            rows = [workload.row(spec.n, spec.k, rng=rng, **arm["params"]) for _ in range(count)]
        return rows, {"arm": index}

    def observe(self, spec, state, step, batch, effective, meta, rng):
        step_best_index = int(np.argmax(effective)) if len(effective) else 0
        step_best = int(effective[step_best_index]) if len(effective) else 0
        previous_best = int(state["best"])
        best = max(previous_best, step_best)
        incumbent = state["incumbent"]
        if incumbent is None or step_best > previous_best:
            incumbent = _encode_row(batch, step_best_index)
        arms = [dict(arm) for arm in state["arms"]]
        rounds = int(state["rounds"])
        arm_index = meta.get("arm")
        if arm_index is not None:
            arm = arms[int(arm_index)]
            arm["pulls"] = int(arm["pulls"]) + 1
            arm["reward"] = float(arm["reward"]) + step_best / max(best, 1)
            rounds += 1
        accepted = int(step_best > previous_best)
        return {"arms": arms, "best": best, "rounds": rounds, "incumbent": incumbent}, accepted

    def gauges(self, state):
        arms = state["arms"]
        return {
            "arms": float(len(arms)),
            "best_latency": float(state["best"]),
            "max_pulls": float(max((arm["pulls"] for arm in arms), default=0)),
        }


#: Registry of the built-in strategies, keyed by their CLI/spec names.
STRATEGIES: Dict[str, SearchStrategy] = {
    strategy.name: strategy
    for strategy in (
        RandomStrategy(),
        AnnealingStrategy(),
        EvolutionStrategy(),
        BanditStrategy(),
    )
}


def strategy_names() -> List[str]:
    """Registered strategy names, sorted."""
    return sorted(STRATEGIES)


def get_strategy(name: str) -> SearchStrategy:
    """Look up a strategy by name, with a helpful error for unknown names."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; registered: {strategy_names()}"
        ) from None
