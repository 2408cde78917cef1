"""Render-side compute is memoized in the store: a warm campaign simulates nothing.

E4's adaptive-adversary table and E7's and E8's render-only compute are kept
as schema-versioned ``render/<hash>`` blobs through
:meth:`~repro.experiments.campaign.ResolvedSpecs.memo`.  A warm rerun over a
complete store must therefore finish with every simulator and engine entry
point patched to raise, and render exactly what the cold run rendered.
"""

from __future__ import annotations

import json

import pytest

import repro.core.waking_matrix
import repro.engine
import repro.engine.batch
import repro.experiments.registry
import repro.sweeps.runner
from repro.channel import simulator
from repro.channel.adversary import AdaptiveLowerBoundAdversary
from repro.experiments.campaign import (
    RENDER_MEMO_SCHEMA,
    PaperCampaign,
    ResolvedSpecs,
)
from repro.experiments.config import QUICK
from repro.sweeps.store import SweepStore

from tests.experiments.test_registry import TINY


def _fields(result):
    """What a render produces, minus the manifest's timings."""
    return {
        experiment_id: {
            "rows": res.rows,
            "tables": res.tables,
            "figures": res.figures,
            "certificates": [c.describe() for c in res.certificates],
            "notes": res.notes,
        }
        for experiment_id, res in result.results.items()
    }


def _forbid(monkeypatch, module, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"warm render called {module.__name__}.{name}")

    monkeypatch.setattr(module, name, refuse)


def _forbid_simulation(monkeypatch):
    for module, name in [
        (simulator, "run_deterministic"),
        (repro.experiments.registry, "run_deterministic"),
        (repro.engine, "run_deterministic_batch"),
        (repro.engine.batch, "run_deterministic_batch"),
        (repro.engine.batch, "run_batch"),
        (repro.core.waking_matrix, "first_isolation"),
        (repro.experiments.registry, "first_isolation"),
        (repro.experiments.registry, "monte_carlo_selectivity"),
        (repro.experiments.registry, "random_selective_family"),
        (repro.sweeps.runner, "resolve_config"),
    ]:
        _forbid(monkeypatch, module, name)

    def refuse_adversary(self, *args, **kwargs):
        raise AssertionError("warm render ran AdaptiveLowerBoundAdversary")

    monkeypatch.setattr(AdaptiveLowerBoundAdversary, "run", refuse_adversary)


def _memo_blob(store, experiment):
    """Path of the one render-memo blob written for ``experiment``."""
    paths = [
        path
        for path in store.blobs("render")
        if json.loads(json.loads(path.read_text())["identity"])["experiment"] == experiment
    ]
    assert len(paths) == 1, paths
    return paths[0]


def test_warm_quick_campaign_simulates_nothing(tmp_path, monkeypatch):
    store = SweepStore(tmp_path / "store")
    cold = PaperCampaign(scale=QUICK, store=store, workers=0).run()
    assert cold.manifest["store_hits"] == 0
    assert {
        json.loads(json.loads(p.read_text())["identity"])["experiment"]
        for p in store.blobs("render")
    } == {"E4", "E7", "E8"}

    _forbid_simulation(monkeypatch)
    warm = PaperCampaign(scale=QUICK, store=store, workers=0).run()

    assert warm.manifest["store_misses"] == 0
    assert warm.all_certificates_hold == cold.all_certificates_hold
    assert _fields(warm) == _fields(cold)


def test_memo_survives_a_fresh_process_worth_of_state(tmp_path):
    # Blobs hold JSON: the cold value (returned through the same JSON form)
    # equals the value read back, types included.
    store = SweepStore(tmp_path / "store")
    cold = PaperCampaign(scale=TINY, store=store, workers=0, experiments=["E4", "E7", "E8"]).run()
    warm = PaperCampaign(scale=TINY, store=store, workers=0, experiments=["E4", "E7", "E8"]).run()
    storeless = PaperCampaign(scale=TINY, experiments=["E4", "E7", "E8"]).run()
    assert _fields(warm) == _fields(cold) == _fields(storeless)


class TestMemoHelper:
    def test_computes_directly_without_a_store(self):
        calls = []
        resolved = ResolvedSpecs({})
        for _ in range(2):
            value = resolved.memo("EX", {"a": 1}, lambda: calls.append(1) or {"v": (1, 2)})
        assert value == {"v": [1, 2]}
        assert len(calls) == 2

    def test_second_call_reads_the_blob(self, tmp_path):
        calls = []
        resolved = ResolvedSpecs({}, store=SweepStore(tmp_path))
        first = resolved.memo("EX", {"a": 1}, lambda: calls.append(1) or [0.1, None, True])
        second = resolved.memo("EX", {"a": 1}, lambda: calls.append(1) or "recomputed")
        assert first == second == [0.1, None, True]
        assert len(calls) == 1
        (blob,) = SweepStore(tmp_path).blobs("render")
        assert json.loads(blob.read_text())["schema"] == RENDER_MEMO_SCHEMA

    def test_key_experiment_and_inputs_separate_blobs(self, tmp_path):
        resolved = ResolvedSpecs({}, store=SweepStore(tmp_path))
        assert resolved.memo("EX", {"seed": 0}, lambda: 0) == 0
        assert resolved.memo("EX", {"seed": 1}, lambda: 1) == 1
        assert resolved.memo("EY", {"seed": 0}, lambda: 2) == 2
        assert len(SweepStore(tmp_path).blobs("render")) == 3

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda blob: dict(blob, schema=RENDER_MEMO_SCHEMA + 1, payload="poisoned"),
            lambda blob: dict(blob, schema=RENDER_MEMO_SCHEMA - 1, payload="poisoned"),
            lambda blob: {k: v for k, v in blob.items() if k != "schema"} | {"payload": "poisoned"},
            lambda blob: dict(blob, identity="{}", payload="poisoned"),
            lambda blob: {"schema": RENDER_MEMO_SCHEMA, "identity": blob["identity"]},
        ],
        ids=["newer-schema", "older-schema", "no-schema", "foreign-identity", "no-payload"],
    )
    def test_mismatched_blob_is_recomputed_and_overwritten(self, tmp_path, tamper):
        store = SweepStore(tmp_path)
        resolved = ResolvedSpecs({}, store=store)
        resolved.memo("EX", {"a": 1}, lambda: {"v": 1})
        (path,) = store.blobs("render")
        path.write_text(json.dumps(tamper(json.loads(path.read_text()))))

        calls = []
        value = resolved.memo("EX", {"a": 1}, lambda: calls.append(1) or {"v": 1})
        assert value == {"v": 1}
        assert calls == [1]
        rewritten = json.loads(path.read_text())
        assert rewritten["schema"] == RENDER_MEMO_SCHEMA
        assert rewritten["payload"] == {"v": 1}

    def test_unreadable_blob_is_recomputed_and_overwritten(self, tmp_path):
        store = SweepStore(tmp_path)
        resolved = ResolvedSpecs({}, store=store)
        resolved.memo("EX", {"a": 1}, lambda: 1)
        (path,) = store.blobs("render")
        path.write_text("{torn")
        assert resolved.memo("EX", {"a": 1}, lambda: 1) == 1
        assert json.loads(path.read_text())["payload"] == 1


def test_campaign_never_trusts_a_blob_of_another_schema(tmp_path):
    store = SweepStore(tmp_path / "store")
    cold = PaperCampaign(scale=TINY, store=store, workers=0, experiments=["E4"]).run()
    path = _memo_blob(store, "E4")
    blob = json.loads(path.read_text())
    poisoned = [[[name, 10**6, 10**6] for name, _, _ in cell] for cell in blob["payload"]]
    path.write_text(
        json.dumps(dict(blob, schema=RENDER_MEMO_SCHEMA + 1, payload=poisoned))
    )

    warm = PaperCampaign(scale=TINY, store=store, workers=0, experiments=["E4"]).run()
    assert _fields(warm) == _fields(cold)
    rewritten = json.loads(path.read_text())
    assert rewritten["schema"] == RENDER_MEMO_SCHEMA
    assert rewritten["payload"] == blob["payload"]
