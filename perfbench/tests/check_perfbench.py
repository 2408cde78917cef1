"""The benchmark's own tests.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/tests/check_perfbench.py

The file name keeps these tests out of the repository's default test
collection: they start benchmark processes and take about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(values[f"{layer}.self_s"] for layer in run.tracing.LAYERS)
        assert layers + values["unattributed_s"] == pytest.approx(values["trace.total_s"])
        assert values["unattributed_s"] >= 0


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0 and completed.stdout == ""


def _entry(config: int, expect: str) -> dict:
    return {"query": {}, "config": config, "expect": expect}


def test_corrupted_response_body_counts_as_failed():
    body = (json.dumps({"hash": "abc", "record": {}}) + "\n").encode()
    checker = jobs.StreamChecker(["abc"])
    assert checker.check(_entry(0, "miss"), 200, body, "miss")
    assert checker.check(_entry(0, "hit"), 200, body, "hit")
    corrupted = body.replace(b"abc", b"abd")
    assert not checker.check(_entry(0, "hit"), 200, corrupted, "hit")
    assert not checker.check(_entry(0, "hit"), 200, body, "miss")  # wrong cache header
    assert not checker.check(_entry(None, "invalid"), 200, body, "")  # accepted an invalid query
    assert checker.check(_entry(None, "invalid"), 400, b"{}", "")
    assert (checker.attempted, checker.failed) == (6, 3)
    fresh = jobs.StreamChecker(["abc"])
    assert not fresh.check(_entry(0, "miss"), 200, b"\x00not json", "miss")
    assert not fresh.check(_entry(0, "miss"), 200, corrupted, "miss")  # names another config
    assert fresh.failed == 2


def test_service_stream_predicts_hits_and_misses():
    size = jobs.SIZES["full"]
    stream = jobs.service_stream(7, 0, size)
    assert stream == jobs.service_stream(7, 0, size)
    configs = jobs.service_configs(7, 0, size)
    assert len(configs) >= 100
    misses = [e for e in stream if e["expect"] == "miss"]
    hits = [e for e in stream if e["expect"] == "hit"]
    assert sorted(e["config"] for e in misses) == list(range(len(configs)))
    assert 0.85 <= len(hits) / (len(hits) + len(misses)) <= 0.95
    seen = set()
    for entry in stream:
        if entry["expect"] != "invalid":
            assert (entry["expect"] == "hit") == (entry["config"] in seen)
            seen.add(entry["config"])


def test_rescaling_arithmetic_on_synthetic_probes():
    probes = [0.010, 0.020, 0.010]
    laps = [("a", 1.0, 0), ("a", 3.0, 1), ("b", 0.5, 0)]
    out = probe.rescale(laps, probes, ref=0.010)
    assert out["a"] == [pytest.approx((1.0 / 1.5, 1.0)), pytest.approx((3.0 / 1.5, 3.0))]
    assert out["b"] == [pytest.approx((0.5 / 1.5, 0.5))]
    assert probe.rescale([("a", 2.0, 0)], [0.005, 0.005], ref=0.010)["a"] == [(4.0, 2.0)]
    with pytest.raises(ValueError):
        probe.rescale([("a", 1.0, 1)], probes[:2])
    with pytest.raises(ValueError):
        probe.rescale([("a", 1.0, -1)], probes)


def test_clock_assigns_laps_to_the_segment_between_probes(monkeypatch):
    values = iter([0.01, 0.02, 0.03])
    monkeypatch.setattr(probe, "probe", lambda: next(values))
    clock = probe.Clock(min_segment_s=float("inf"))
    clock.probe()
    clock.mark()
    clock.lap("x")
    clock.maybe_probe()  # never fires with an infinite segment
    clock.lap("x")
    clock.probe()
    clock.lap("y")
    clock.probe()
    exported = clock.export()
    assert exported["probes"] == [0.01, 0.02, 0.03]
    assert [(tag, segment) for tag, _, segment in exported["laps"]] == [("x", 0), ("x", 0), ("y", 1)]


def test_tail_needs_ten_samples_beyond():
    assert probe.tail(list(range(19)))[0] == 0
    assert probe.tail(list(range(100)))[0] == 90
    assert probe.tail(list(range(1000)))[0] == 99


def test_cold_repetition_sees_an_empty_store_in_a_fresh_process(tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src")
    bench = run.Bench(tmp_path, "paper-campaign", 1, 1.0, "tiny")
    store = bench.fresh_dir("store")
    cold = bench.spawn("campaign", mode="cold", store=str(store))
    again = bench.spawn("campaign", mode="cold", store=str(bench.fresh_dir("store")))
    warm = bench.spawn("campaign", mode="warm", store=str(store))
    for out in (cold, again):
        assert out["fresh"] == {"store_records": 0, "family_cache_entries": 0, "tmp_entries": 0}
        assert out["store_misses"] == out["specs_unique"] > 0
    assert warm["fresh"]["store_records"] >= cold["specs_unique"]  # records plus the manifest
    assert warm["store_misses"] == 0
    assert len({cold["pid"], again["pid"], warm["pid"], os.getpid()}) == 4
