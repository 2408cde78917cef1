"""Integration tests of the analysis/experiment pipeline on live simulation data."""

from __future__ import annotations

import json

import pytest

from repro.analysis.certificates import check_upper_bound
from repro.analysis.fitting import best_model
from repro.channel.adversary import simultaneous_pattern
from repro.channel.simulator import run_deterministic
from repro.core.lower_bounds import scenario_ab_bound
from repro.core.round_robin import RoundRobin
from repro.core.scenario_b import WaitAndGo
from repro.experiments.cache import FamilyCache
from repro.reporting.export import results_to_csv, results_to_json
from repro.reporting.tables import TextTable


class TestMeasureFitReport:
    """Simulate -> fit a growth model -> certify -> export, end to end."""

    @pytest.fixture(scope="class")
    def sweep_rows(self):
        from repro.channel.adversary import staggered_pattern, uniform_random_pattern

        cache = FamilyCache()
        rows = []
        for n in (32, 64):
            for k in (2, 4, 8, 16, 32):
                families = cache.concatenation(n, k, seed=5)
                protocol = WaitAndGo(n, k, families=families)
                patterns = [
                    simultaneous_pattern(n, k, stations=list(range(n - k + 1, n + 1))),
                    staggered_pattern(n, k, gap=1, rng=k),
                ]
                patterns += [
                    uniform_random_pattern(n, k, window=2 * k, rng=seed) for seed in range(3)
                ]
                latencies = [
                    run_deterministic(protocol, p, max_slots=200_000).require_solved()
                    for p in patterns
                ]
                rows.append({"n": n, "k": k, "latency": max(1, max(latencies))})
        return rows

    def test_fit_is_not_a_degenerate_shape(self, sweep_rows):
        points = [(r["n"], r["k"], float(r["latency"])) for r in sweep_rows]
        fit = best_model(points)
        # The measured worst-case latencies must grow with k: shapes that ignore k
        # entirely (constant, n, log n) cannot be the best explanation.
        assert fit.model.name not in ("constant", "n", "n - k + 1", "log n", "log k")

    def test_certificate_holds(self, sweep_rows):
        points = [(r["n"], r["k"], float(r["latency"])) for r in sweep_rows]
        cert = check_upper_bound(
            points, scenario_ab_bound, claim="wait_and_go = O(k log(n/k))", tolerance=64
        )
        assert cert.holds

    def test_export_round_trip(self, sweep_rows):
        csv_text = results_to_csv(sweep_rows)
        assert csv_text.splitlines()[0] == "n,k,latency"
        data = json.loads(results_to_json(sweep_rows))
        assert len(data) == len(sweep_rows)

    def test_table_rendering(self, sweep_rows):
        table = TextTable(["n", "k", "latency"])
        for row in sweep_rows:
            table.add_row([row["n"], row["k"], row["latency"]])
        text = table.render()
        assert text.count("\n") == len(sweep_rows) + 1


class TestCrossoverStory:
    def test_round_robin_beats_selective_arm_for_large_k(self):
        """The motivation for interleaving: measure both arms and find the crossover."""
        n = 64
        cache = FamilyCache()
        ks = [2, 4, 8, 16, 32, 64]
        selective_latency = []
        round_robin_latency = []
        for k in ks:
            families = cache.concatenation(n, k, seed=9)
            selective = WaitAndGo(n, k, families=families)
            rr = RoundRobin(n)
            pattern = simultaneous_pattern(n, k, stations=list(range(n - k + 1, n + 1)))
            selective_latency.append(
                run_deterministic(selective, pattern, max_slots=200_000).require_solved()
            )
            round_robin_latency.append(
                run_deterministic(rr, pattern, max_slots=200_000).require_solved()
            )
        # Round-robin's worst case shrinks as k grows while the selective arm's grows,
        # so round robin must win at k = n.
        assert round_robin_latency[-1] <= selective_latency[-1]
