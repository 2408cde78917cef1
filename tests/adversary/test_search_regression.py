"""Regression: guided search must rediscover-or-beat the seed adversaries.

The acceptance bar of the subsystem, pinned at a fixed budget and seed: on
scenario B at (n=256, k=16) every guided strategy's best finding must be
at least as bad (for the protocol) as

* the blind ``random`` strategy at a budget of 64 candidates (what
  ``repro sweep worst-case --trials 64`` runs),
* the :class:`~repro.channel.adversary.AdaptiveLowerBoundAdversary`
  replacement process of the Theorem 2.1 proof, and
* the structured staggered pattern.

A guided search that loses to a blind sample or a structured seed is a
regression in the one thing it exists for.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import SearchSpec, adversarial_search, strategy_names
from repro.channel import run_deterministic
from repro.channel.adversary import AdaptiveLowerBoundAdversary, staggered_pattern
from repro.sweeps.protocols import build_protocol

N, K, SEED = 256, 16, 0
BUDGET = 2048
WINDOW = 256
MAX_SLOTS = 200_000

#: Every registered strategy except the blind baseline they are measured against.
GUIDED = [name for name in strategy_names() if name != "random"]


@pytest.fixture(scope="module")
def protocol():
    return build_protocol("scenario-b", N, K, seed=SEED)


@pytest.fixture(scope="module")
def adversary_baselines(protocol):
    """Worst latency each seed adversary extracts from the same protocol."""
    blind = _search("random", budget=64).best
    assert blind.solved
    adaptive = AdaptiveLowerBoundAdversary(protocol, max_slots=MAX_SLOTS).run(
        K, rng=SEED
    )
    staggered = run_deterministic(
        protocol,
        staggered_pattern(N, K, gap=1, stations=range(1, K + 1)),
        max_slots=MAX_SLOTS,
    )
    return {
        "random(budget=64)": blind.latency,
        "adaptive-lower-bound": adaptive.max_latency,
        "staggered(gap=1)": staggered.require_solved(),
    }


@pytest.fixture(scope="module")
def search_results():
    cache: dict = {}

    def run(strategy: str):
        if strategy not in cache:
            cache[strategy] = _search(strategy, budget=BUDGET)
        return cache[strategy]

    return run


def _search(strategy: str, *, budget: int):
    return adversarial_search(
        SearchSpec(
            protocol="scenario-b",
            n=N,
            k=K,
            strategy=strategy,
            budget=budget,
            population=64,
            seed=SEED,
            window=WINDOW,
            max_slots=MAX_SLOTS,
        )
    )


class TestBlindBaseline:
    def test_random_budget_64_reaches_the_pinned_latency(self, adversary_baselines):
        # 14 is what 64 blind uniform draws plus three structured patterns
        # found on this cell; the `random` step-0 population holds a
        # superset of those attack shapes.
        assert adversary_baselines["random(budget=64)"] >= 14

    def test_sweep_worst_case_runs_the_random_search(self, tmp_path, capsys):
        from repro.adversary import load_certificate
        from repro.cli import main

        out = tmp_path / "worst.json"
        exit_code = main([
            "sweep", "worst-case", "--protocols", "scenario-b", "--n-values", str(N),
            "--k-values", str(K), "--trials", "64", "--seeds", str(SEED),
            "--export", str(out),
        ])
        assert exit_code == 0
        [row] = json.loads(out.read_text())
        cert = load_certificate(row)
        assert cert == _search("random", budget=64).best
        assert cert.solved and cert.latency >= 14


@pytest.mark.parametrize("strategy", GUIDED)
class TestRediscoverOrBeat:
    def test_beats_every_seed_adversary(self, strategy, search_results, adversary_baselines):
        best = search_results(strategy).best
        assert best.solved, f"{strategy} certified an unsolved run as its best"
        for name, baseline in adversary_baselines.items():
            assert best.latency >= baseline, (
                f"{strategy} found latency {best.latency}, below {name}'s {baseline}"
            )

    def test_best_certificate_is_replayable(self, strategy, search_results):
        from repro.adversary import replay_certificate

        best = search_results(strategy).best
        assert replay_certificate(best) == best

    def test_bound_ratio_reflects_a_real_gap(self, strategy, search_results):
        # trivial_lower_bound(256, 16) = 16; any finding beating the adaptive
        # adversary sits well above the trivial bound.
        best = search_results(strategy).best
        assert best.bound_ratio == pytest.approx(best.latency / 16)
        assert best.bound_ratio > 1.0
