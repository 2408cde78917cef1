"""Tests for the guided-search driver (repro.adversary.search)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.adversary import (
    SearchSpec,
    adversarial_search,
    checkpoint_summaries,
    seed_population,
    strategy_names,
)
from repro.adversary.search import CHECKPOINT_SCHEMA, _step_generators, search_best
from repro.channel.adversary import simultaneous_pattern, staggered_pattern
from repro.channel.wakeup import PatternBatch, WakeupPattern
from repro.sweeps.runner import map_jobs
from repro.sweeps.store import StoreSchemaError, SweepStore


def _spec(**overrides) -> SearchSpec:
    base = dict(
        protocol="scenario-b",
        n=32,
        k=4,
        strategy="anneal",
        budget=64,
        population=16,
        seed=7,
        window=64,
        max_slots=20_000,
    )
    base.update(overrides)
    return SearchSpec(**base)


def _step_generator(spec: SearchSpec, spec_hash: str, step: int):
    """The stream the driver hands to step ``step``."""
    return next(_step_generators(spec, spec_hash, step))


class TestSearchSpec:
    def test_round_trips_through_dict_form(self):
        spec = _spec(protocol_params=(("trials", 3),))
        assert SearchSpec.from_dict(spec.as_dict()) == spec

    def test_config_hash_is_content_derived(self):
        assert _spec().config_hash() == _spec().config_hash()
        assert _spec().config_hash() != _spec(seed=8).config_hash()
        assert _spec().config_hash() != _spec(strategy="bandit").config_hash()

    def test_rejects_invalid_shapes(self):
        with pytest.raises(ValueError):
            _spec(k=64)  # k > n
        with pytest.raises(ValueError):
            _spec(budget=0)
        with pytest.raises(ValueError):
            _spec(population=-1)
        with pytest.raises(ValueError, match="unknown strategy"):
            _spec(strategy="gradient-descent")

    def test_every_registered_strategy_is_constructible(self):
        for name in strategy_names():
            assert _spec(strategy=name).strategy == name

    def test_label_names_the_search(self):
        label = _spec().label()
        for fragment in ("scenario-b", "n=32", "k=4", "anneal", "seed=7"):
            assert fragment in label


class TestSeedPopulation:
    def test_structured_attacks_come_first(self):
        spec = _spec()
        rng = _step_generator(spec, spec.config_hash(), 0)
        population = list(PatternBatch.from_rows(spec.n, seed_population(spec, 16, rng)))
        assert len(population) == 16
        assert all(isinstance(p, WakeupPattern) for p in population)
        assert all(p.k == spec.k for p in population)
        base = list(range(1, spec.k + 1))
        assert population[0] == simultaneous_pattern(spec.n, spec.k, stations=base)
        assert population[1] == staggered_pattern(spec.n, spec.k, gap=1, stations=base)

    def test_small_count_truncates_the_structured_seeds(self):
        spec = _spec()
        rng = _step_generator(spec, spec.config_hash(), 0)
        population = seed_population(spec, 3, rng)
        assert len(population) == 3

    def test_population_is_reproducible(self):
        spec = _spec()
        rng_a, rng_b = _step_generator(spec, "h", 0), _step_generator(spec, "h", 0)
        a = PatternBatch.from_rows(spec.n, seed_population(spec, 12, rng_a))
        b = PatternBatch.from_rows(spec.n, seed_population(spec, 12, rng_b))
        assert a == b


class TestDriver:
    def test_spends_exactly_the_budget(self):
        result = adversarial_search(_spec(budget=50, population=16))
        assert result.evaluated == 50  # last step truncated to 2 candidates
        assert result.steps == 4
        assert len(result.history) == 4

    def test_best_certificate_matches_history_tail(self):
        result = adversarial_search(_spec())
        assert result.best.latency == result.history[-1]["best"]
        assert result.best.spec_hash == result.spec.config_hash()
        assert result.best.pattern().k == result.spec.k

    def test_emits_obs_counters_and_gauges(self):
        with obs.capture() as captured:
            adversarial_search(_spec(budget=32, population=16))
            snap = captured.snapshot()
        counters = snap["counters"]
        assert counters["adversary.steps"] == 2
        assert counters["adversary.evaluated"] == 32
        assert "adversary.accepted" in counters
        assert "adversary.best_latency" in snap["gauges"]
        assert snap["timings"]["adversary.search"][0] == 1

    def test_obs_report_lists_the_phases_of_every_step(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "search.jsonl"
        argv = [
            "adversary", "search", "--n", "32", "--k", "4", "--budget", "48",
            "--population", "16", "--window", "64", "--max-slots", "20000",
            "--store", str(tmp_path / "store"), "--trace", str(trace),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace), "--top", "20"]) == 0
        rows = {
            line.split("|")[0].strip(): line.split("|")[1].strip()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("adversary.")
        }
        for phase in ("propose", "evaluate", "observe", "checkpoint"):
            assert rows[f"adversary.{phase}"] == "3"  # one span per step


class TestStepStreams:
    """A run derives its step streams in one pass, equal to one spawn per step."""

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_step_s_draws_from_the_spawned_child_keyed_by_s(self, monkeypatch, seed):
        from repro._util import spawn_generators
        from repro.adversary import search as search_module

        monkeypatch.setattr(search_module, "_STEP_STREAMS_PER_PASS", 3)
        spec = _spec(seed=seed, budget=100, population=16)  # 7 steps, 3 passes
        spec_hash = spec.config_hash()
        for start in (0, 2, 3, 6):
            streams = list(_step_generators(spec, spec_hash, start))
            assert len(streams) == 7 - start
            for step, stream in enumerate(streams, start):
                child = spawn_generators(seed, 1, "adversary-step", spec_hash, step)[0]
                assert stream.bit_generator.state == child.bit_generator.state


class TestOneProcessSearch:
    """A search resolves every step in the calling process; pools run whole searches."""

    def test_a_search_opens_no_pool(self, monkeypatch):
        import repro.sweeps.runner as runner

        opened = []

        class CountingExecutor(runner.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingExecutor)
        adversarial_search(_spec(budget=256, population=64))
        assert opened == []

    def test_a_one_candidate_step_resolves(self):
        spec = _spec(budget=17, population=16)  # the last step has 1 candidate
        result = adversarial_search(spec)
        assert result.evaluated == 17
        assert [entry["step"] for entry in result.history] == [0, 1]
        assert result.best.latency == result.history[-1]["best"]

    @pytest.mark.parametrize("protocol", ["scenario-b", "rpd"])
    def test_search_best_is_the_serial_search(self, tmp_path, protocol):
        spec = _spec(protocol=protocol, budget=32, population=8)
        store = SweepStore(tmp_path)
        best = search_best((spec, store))
        assert best == adversarial_search(spec).best
        data = store.load_blob(f"adversary/{spec.config_hash()}")
        assert data["evaluated"] == spec.budget

    def test_pooled_searches_match_serial_ones(self):
        specs = [
            _spec(strategy="random", budget=32, population=16, seed=seed)
            for seed in (0, 1)
        ] + [_spec(protocol="rpd", budget=32, population=8)]
        jobs = [(spec, None) for spec in specs]
        pooled = map_jobs(search_best, jobs, workers=2)
        assert pooled == [adversarial_search(spec).best for spec in specs]


class TestCheckpointing:
    def test_checkpoint_written_per_step_and_resumed(self, tmp_path):
        spec = _spec()
        store = SweepStore(tmp_path)
        first = adversarial_search(spec, store=store)
        data = store.load_blob(f"adversary/{spec.config_hash()}")
        assert data["schema"] == CHECKPOINT_SCHEMA
        assert data["evaluated"] == spec.budget
        # A re-run against the finished checkpoint does no new work.
        again = adversarial_search(spec, store=store)
        assert again.best == first.best
        assert again.history == first.history

    def test_checkpoints_do_not_pollute_the_record_store(self, tmp_path):
        store = SweepStore(tmp_path)
        adversarial_search(_spec(), store=store)
        assert len(store) == 0  # blobs live beside records, not among them

    def test_unsupported_checkpoint_schema_names_the_blob(self, tmp_path):
        spec = _spec()
        store = SweepStore(tmp_path)
        key = f"adversary/{spec.config_hash()}"
        store.save_blob(key, {"schema": 99, "spec": spec.as_dict()})
        with pytest.raises(StoreSchemaError, match="99") as err:
            adversarial_search(spec, store=store)
        assert str(store.blob_path(key)) in str(err.value)

    def test_spec_collision_is_rejected(self, tmp_path):
        spec = _spec()
        store = SweepStore(tmp_path)
        other = _spec(budget=128).as_dict()
        store.save_blob(
            f"adversary/{spec.config_hash()}",
            {"schema": CHECKPOINT_SCHEMA, "spec": other},
        )
        with pytest.raises(StoreSchemaError, match="different spec"):
            adversarial_search(spec, store=store)


class TestCheckpointSummaries:
    def test_reports_one_row_per_search(self, tmp_path):
        store = SweepStore(tmp_path)
        specs = [_spec(), _spec(strategy="bandit")]
        for spec in specs:
            adversarial_search(spec, store=store)
        rows = {row["hash"]: row for row in checkpoint_summaries(store)}
        assert set(rows) == {spec.config_hash() for spec in specs}
        for spec in specs:
            row = rows[spec.config_hash()]
            assert row["strategy"] == spec.strategy
            assert row["evaluated"] == spec.budget
            assert row["best_latency"] >= 1

    def test_empty_store_reports_nothing(self, tmp_path):
        assert checkpoint_summaries(SweepStore(tmp_path)) == []


class TestRandomStrategy:
    """The blind baseline: seeded step 0, then uniform draws; best kept strictly."""

    def _record_populations(self, monkeypatch, spec):
        from repro.adversary import search as search_module

        populations = []
        evaluate = search_module._evaluate

        def recording(spec_, spec_hash, step, patterns, **kwargs):
            populations.append(list(patterns))
            return evaluate(spec_, spec_hash, step, patterns, **kwargs)

        monkeypatch.setattr(search_module, "_evaluate", recording)
        result = adversarial_search(spec)
        return result, populations

    def test_step_zero_is_the_seed_population(self, monkeypatch):
        spec = _spec(strategy="random", budget=40, population=16)
        _, populations = self._record_populations(monkeypatch, spec)
        rows = seed_population(spec, 16, _step_generator(spec, spec.config_hash(), 0))
        expected = list(PatternBatch.from_rows(spec.n, rows))
        assert populations[0] == expected

    def test_later_steps_draw_k_distinct_stations_inside_the_window(self, monkeypatch):
        spec = _spec(strategy="random", budget=40, population=16, window=32)
        _, populations = self._record_populations(monkeypatch, spec)
        assert [len(p) for p in populations] == [16, 16, 8]
        for population in populations[1:]:
            for pattern in population:
                stations = list(pattern.wake_times)
                assert len(stations) == len(set(stations)) == spec.k
                assert all(1 <= u <= spec.n for u in stations)
                assert all(0 <= t < spec.window for t in pattern.wake_times.values())

    def test_later_steps_follow_the_step_stream(self, monkeypatch):
        from repro.adversary import RandomStrategy

        spec = _spec(strategy="random", budget=48, population=16)
        _, populations = self._record_populations(monkeypatch, spec)
        state = RandomStrategy().initial_state(spec)
        for step in (1, 2):
            rng = _step_generator(spec, spec.config_hash(), step)
            rows, _ = RandomStrategy().propose(spec, state, step, 16, rng)
            proposed = list(PatternBatch.from_rows(spec.n, rows))
            assert proposed == populations[step]

    def test_best_is_the_worst_candidate_evaluated(self):
        result = adversarial_search(_spec(strategy="random", protocol="round-robin"))
        assert result.best.latency == max(entry["step_best"] for entry in result.history)
        assert result.best.solved
        assert result.best.pattern().k == result.spec.k

    def test_more_budget_never_finds_less(self):
        # Budget 1 resolves only the first seed (the simultaneous burst on
        # stations 1..k), which every larger step-0 population also holds.
        single = adversarial_search(_spec(strategy="random", budget=1)).best
        wider = adversarial_search(_spec(strategy="random", budget=8)).best
        assert wider.latency >= single.latency

    def test_observe_keeps_the_best_on_strict_improvement_only(self):
        import json

        import numpy as np

        from repro.adversary import RandomStrategy

        strategy, spec = RandomStrategy(), _spec(strategy="random")
        state = strategy.initial_state(spec)
        state, accepted = strategy.observe(spec, state, 0, [], np.array([3, 7, 7]), {}, None)
        assert (state, accepted) == ({"best": 7}, 1)
        state, accepted = strategy.observe(spec, state, 1, [], np.array([7, 2]), {}, None)
        assert (state, accepted) == ({"best": 7}, 0)
        assert json.loads(json.dumps(state)) == state
