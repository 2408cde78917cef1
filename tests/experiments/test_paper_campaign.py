"""Tests for repro.experiments.campaign: the one-command paper campaign.

Covers the ISSUE-8 acceptance criteria: cross-experiment spec deduplication,
campaign-vs-direct output equality, interrupt-and-resume with zero warm
recomputation (asserted through the ``store.hits``/``store.misses`` counter
pair), and worker-count invariance of both the results and the counters.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.experiments.campaign import (
    MANIFEST_NAME,
    ExperimentDefinition,
    PaperCampaign,
    dedup_specs,
    resolve_specs,
)
from repro.experiments.registry import DEFINITIONS, run_experiment
from repro.sweeps.spec import SweepConfig
from repro.sweeps.store import SweepStore

from tests.experiments.test_registry import TINY


def _store_counters(state) -> dict:
    counters = state.snapshot()["counters"]
    return {
        "hits": counters.get("store.hits", 0),
        "misses": counters.get("store.misses", 0),
    }


@pytest.fixture(scope="module")
def reference():
    """One storeless TINY campaign shared by the equality tests."""
    return PaperCampaign(scale=TINY).run()


class TestPlanning:
    def test_every_experiment_has_a_definition(self):
        assert set(DEFINITIONS) == {f"E{i}" for i in range(1, 12)}

    def test_plans_are_pure_spec_lists(self):
        plans = PaperCampaign(scale=TINY).plan()
        assert set(plans) == set(DEFINITIONS)
        for specs in plans.values():
            assert all(isinstance(spec, SweepConfig) for spec in specs)

    def test_specs_deduplicate_across_experiments(self):
        plans = PaperCampaign(scale=TINY).plan()
        flat = [spec for specs in plans.values() for spec in specs]
        unique = dedup_specs(flat)
        # E1/E2/E3/E5/E10/E11 share grid cells by construction (one shared
        # BATTERY_SEED), so the campaign must resolve fewer configs than the
        # experiments demand in total.
        assert len(unique) < len(flat)
        assert len({spec.config_hash() for spec in unique}) == len(unique)

    def test_dedup_preserves_first_occurrence_order(self):
        a = SweepConfig(protocol="round-robin", n=8, k=2)
        b = SweepConfig(protocol="tdma", n=8, k=2)
        assert dedup_specs([a, b, a, b, a]) == [a, b]

    def test_plan_is_every_spec_in_the_cells_in_order(self):
        a, b, c, d = (SweepConfig(protocol="round-robin", n=8, k=k) for k in (1, 2, 3, 4))
        definition = ExperimentDefinition(
            "E0",
            title="demo",
            paper_claim="",
            cells=lambda scale: (8, [(1, {"x": [a, b], "y": c})], {"z": ("w", d, a)}),
            render=lambda result, resolved, cells, scale: None,
        )
        assert definition.plan(TINY) == [a, b, c, d, a]
        assert DEFINITIONS["E7"].plan(TINY) == DEFINITIONS["E8"].plan(TINY) == []

    def test_experiment_subset_and_unknown_id(self):
        campaign = PaperCampaign(scale=TINY, experiments=["e7", "E8"])
        assert set(campaign.plan()) == {"E7", "E8"}
        with pytest.raises(KeyError):
            PaperCampaign(scale=TINY, experiments=["E99"]).plan()


class TestResolvedSpecs:
    def test_strict_latencies_and_lookup_errors(self):
        spec = SweepConfig(
            protocol="round-robin", n=16, k=2, workload="late-turn", max_slots=1000
        )
        resolved = resolve_specs([spec])
        assert len(resolved) == 1 and spec in resolved
        assert all(lat >= 0 for lat in resolved.latencies(spec))
        other = SweepConfig(protocol="tdma", n=16, k=2)
        assert other not in resolved
        with pytest.raises(KeyError):
            resolved[other]

    def test_unsolved_requires_capped(self):
        # One slot is never enough for k=4 contenders: strict access raises,
        # capped access clamps to the horizon.
        spec = SweepConfig(
            protocol="round-robin", n=16, k=4, workload="simultaneous", max_slots=1
        )
        resolved = resolve_specs([spec])
        with pytest.raises(RuntimeError):
            resolved.latencies(spec)
        assert resolved.worst(spec, capped=True) == spec.max_slots


class TestCampaignEqualsDirect:
    def test_rows_tables_and_figures_match_the_direct_path(self, reference):
        # The tentpole contract: rendering from campaign-resolved records is
        # bit-identical to running each experiment directly.
        for experiment_id, campaign_result in reference.results.items():
            direct = run_experiment(experiment_id, TINY)
            assert campaign_result.rows == direct.rows, experiment_id
            assert campaign_result.tables == direct.tables, experiment_id
            assert campaign_result.figures == direct.figures, experiment_id
            assert campaign_result.notes == direct.notes, experiment_id

    def test_all_certificates_hold_at_tiny(self, reference):
        assert reference.all_certificates_hold
        for entry in reference.manifest["experiments"].values():
            assert entry["certificates_hold"]

    def test_manifest_accounting(self, reference):
        manifest = reference.manifest
        assert set(manifest["experiments"]) == set(DEFINITIONS)
        assert manifest["specs_unique"] + manifest["cross_experiment_duplicates"] == (
            manifest["specs_total"]
        )
        # No store attached: every unique spec is a miss.
        assert manifest["store_hits"] == 0
        assert manifest["store_misses"] == manifest["specs_unique"]
        assert manifest["store_hit_rate"] == 0.0


class TestResumableStore:
    def test_interrupt_resume_and_worker_invariance(self, tmp_path, reference):
        store = SweepStore(tmp_path / "paper-store")
        plans = PaperCampaign(scale=TINY).plan()
        unique = dedup_specs([spec for specs in plans.values() for spec in specs])

        # Simulate an interrupted run: a third of the campaign already stored.
        head = unique[: len(unique) // 3]
        resolve_specs(head, store=store)
        assert len(store.completed(unique)) == len(head)

        # Resume serially: only the remainder is computed, nothing is redone.
        with obs.capture() as state:
            resumed = PaperCampaign(scale=TINY, store=store, workers=1).run()
        counters = _store_counters(state)
        assert counters["hits"] == len(head)
        assert counters["misses"] == len(unique) - len(head)
        for experiment_id, result in resumed.results.items():
            assert result.rows == reference.results[experiment_id].rows

        # Warm rerun: a 100% store hit, zero recomputation, identical rows —
        # at a different worker count, since the counters are parent-side.
        with obs.capture() as state:
            warm = PaperCampaign(scale=TINY, store=store, workers=4).run()
        counters = _store_counters(state)
        assert counters["misses"] == 0
        assert counters["hits"] == len(unique)
        assert warm.manifest["store_hit_rate"] == 1.0
        for experiment_id, result in warm.results.items():
            assert result.rows == reference.results[experiment_id].rows

    def test_cold_parallel_run_matches_serial_reference(self, tmp_path, reference):
        store = SweepStore(tmp_path / "parallel-store")
        with obs.capture() as state:
            parallel = PaperCampaign(scale=TINY, store=store, workers=4).run()
        counters = _store_counters(state)
        assert counters["hits"] == 0
        assert counters["misses"] == parallel.manifest["specs_unique"]
        for experiment_id, result in parallel.results.items():
            assert result.rows == reference.results[experiment_id].rows

    def test_manifest_written_next_to_the_store(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        result = PaperCampaign(scale=TINY, store=store, experiments=["E4"]).run()
        manifest_path = store.root / MANIFEST_NAME
        assert manifest_path.is_file()
        on_disk = json.loads(manifest_path.read_text())
        assert on_disk["experiments"].keys() == {"E4"}
        assert on_disk["specs_unique"] == result.manifest["specs_unique"]

    def test_status_tracks_store_coverage(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        campaign = PaperCampaign(scale=TINY, store=store, experiments=["E4", "E7"])
        before = campaign.status()
        assert before["stored"] == 0
        assert before["experiments"]["E7"] == {"specs": 0, "unique": 0, "stored": 0}
        campaign.run()
        after = campaign.status()
        assert after["stored"] == after["specs_unique"] > 0
        e4 = after["experiments"]["E4"]
        assert e4["stored"] == e4["unique"]


class TestReport:
    def test_report_renders_every_experiment(self, reference):
        from repro.experiments.campaign import render_campaign_report

        report = render_campaign_report(reference)
        for experiment_id in DEFINITIONS:
            assert f"## {experiment_id}" in report
        assert "Campaign manifest" in report
