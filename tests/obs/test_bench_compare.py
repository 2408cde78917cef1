"""Benchmark-trajectory comparison: alignment, tolerance, regressions.

The contract the CI step leans on: `repro bench compare` must exit nonzero
when a curated metric drifted beyond tolerance (a synthetic 30% speedup drop
here), exit zero on identical artifacts, align measurements by their string
identity regardless of ordering, and skip — not fail on — gates present in
only one artifact.
"""

from __future__ import annotations

import copy
import json
import subprocess

import pytest

from repro.obs.bench import (
    DEFAULT_TOLERANCE,
    MetricDelta,
    compare_artifacts,
    compare_many,
    load_artifact,
    render_report,
)


def _artifact(**overrides):
    data = {
        "schema": 2,
        "gates": {
            "deterministic_batch": {
                "threshold_speedup": 10.0,
                "unit": "patterns/sec",
                "measurements": [
                    {
                        "protocol": "round_robin",
                        "config": "B=256 n=1024 k=16",
                        "speedup": 80.0,
                        "batch_rate": 230_000.0,
                        "loop_rate": 14_000.0,
                    },
                    {
                        "protocol": "wakeup_with_k",
                        "config": "B=256 n=1024 k=16",
                        "speedup": 40.0,
                        "batch_rate": 150_000.0,
                        "loop_rate": 2_200.0,
                    },
                ],
            },
            "obs_trace_volume": {
                "threshold_speedup": 40.0,
                "unit": "events",
                "measurements": [
                    {"grid": "16 configs, serial", "trace_events": 19}
                ],
            },
        },
    }
    data.update(overrides)
    return data


class TestCompareArtifacts:
    def test_identical_artifacts_are_ok(self):
        report = compare_artifacts(("a", _artifact()), ("b", _artifact()))
        assert report.ok
        assert report.regressions == []
        assert len(report.deltas) > 0

    def test_30_percent_speedup_drop_regresses(self):
        current = _artifact()
        row = current["gates"]["deterministic_batch"]["measurements"][0]
        row["speedup"] = row["speedup"] * 0.7
        report = compare_artifacts(("a", _artifact()), ("b", current))
        assert not report.ok
        (regression,) = report.regressions
        assert regression.metric == "speedup"
        assert regression.label == "B=256 n=1024 k=16 round_robin"
        assert regression.change == pytest.approx(-0.3)

    def test_drift_within_tolerance_is_ok(self):
        current = _artifact()
        for row in current["gates"]["deterministic_batch"]["measurements"]:
            row["speedup"] *= 0.8  # -20% < 25% tolerance
        assert compare_artifacts(("a", _artifact()), ("b", current)).ok

    def test_lower_is_better_metric_regresses_upward_only(self):
        noisier = _artifact()
        noisier["gates"]["obs_trace_volume"]["measurements"][0]["trace_events"] = 400
        report = compare_artifacts(("a", _artifact()), ("b", noisier))
        assert [d.metric for d in report.regressions] == ["trace_events"]
        # The same change downward is an improvement, not a regression.
        assert compare_artifacts(("a", noisier), ("b", noisier)).ok
        report = compare_artifacts(("a", noisier), ("b", _artifact()))
        assert report.ok

    @pytest.mark.parametrize(
        ("gate", "identity", "metric"),
        [
            ("paper_campaign", {"subset": "E1+E3+E11"}, "cold_ms_per_spec"),
            ("paper_campaign", {"subset": "E1+E3+E11"}, "warm_ms_per_spec"),
            ("service_query", {"protocol": "scenario-b"}, "cold_ms_per_query"),
            ("service_query", {"protocol": "scenario-b"}, "warm_ms_per_query"),
        ],
    )
    def test_time_budgets_regress_when_they_rise(self, gate, identity, metric):
        def artifact(value):
            data = _artifact()
            data["gates"][gate] = {
                "threshold_speedup": 1.0,
                "unit": "ms",
                "measurements": [{**identity, metric: value}],
            }
            return data

        slower = compare_artifacts(("a", artifact(2.0)), ("b", artifact(3.0)))
        assert [(d.gate, d.metric) for d in slower.regressions] == [(gate, metric)]
        faster = compare_artifacts(("a", artifact(2.0)), ("b", artifact(0.5)))
        assert faster.ok and any(d.metric == metric for d in faster.deltas)

    def test_measurement_order_does_not_matter(self):
        shuffled = _artifact()
        shuffled["gates"]["deterministic_batch"]["measurements"].reverse()
        report = compare_artifacts(("a", _artifact()), ("b", shuffled))
        assert report.ok and len(report.deltas) > 0

    def test_one_sided_gates_are_skipped_and_reported(self):
        smaller = _artifact()
        del smaller["gates"]["obs_trace_volume"]
        report = compare_artifacts(("a", _artifact()), ("b", smaller))
        assert report.ok
        assert report.missing_in_current == ("obs_trace_volume",)
        report = compare_artifacts(("a", smaller), ("b", _artifact()))
        assert report.missing_in_baseline == ("obs_trace_volume",)

    def test_one_sided_measurements_are_skipped_and_reported(self):
        # An extra identity field (here a "backend" tag) stops the row from
        # aligning; both unmatched sides must be listed, not dropped silently.
        tagged = _artifact()
        tagged["gates"]["deterministic_batch"]["measurements"][0]["backend"] = "numpy"
        report = compare_artifacts(("a", tagged), ("b", _artifact()))
        assert report.ok
        assert report.rows_missing_in_current == (
            "deterministic_batch: numpy B=256 n=1024 k=16 round_robin",
        )
        assert report.rows_missing_in_baseline == (
            "deterministic_batch: B=256 n=1024 k=16 round_robin",
        )
        assert {d.label for d in report.deltas if d.gate == "deterministic_batch"} == {
            "B=256 n=1024 k=16 wakeup_with_k"
        }
        text = render_report(report)
        assert (
            "skipped (measurement only in baseline): "
            "deterministic_batch: numpy B=256 n=1024 k=16 round_robin"
        ) in text
        assert (
            "skipped (measurement only in current): "
            "deterministic_batch: B=256 n=1024 k=16 round_robin"
        ) in text
        assert report.as_dict()["rows_missing_in_current"] == list(
            report.rows_missing_in_current
        )

    def test_near_zero_baselines_are_skipped(self):
        zeroed = _artifact()
        zeroed["gates"]["deterministic_batch"]["measurements"][0]["speedup"] = 0.0
        report = compare_artifacts(("a", zeroed), ("b", _artifact()))
        assert all(
            not (d.metric == "speedup" and "round_robin" in d.label)
            for d in report.deltas
        )

    def test_negative_tolerance_is_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_artifacts(("a", _artifact()), ("b", _artifact()), tolerance=-0.1)

    def test_default_tolerance_is_25_percent(self):
        delta = MetricDelta("g", "m", "speedup", baseline=100.0, current=76.0)
        assert not delta.regressed(DEFAULT_TOLERANCE)
        delta = MetricDelta("g", "m", "speedup", baseline=100.0, current=74.0)
        assert delta.regressed(DEFAULT_TOLERANCE)


class TestLoadArtifact:
    def test_loads_a_file(self, tmp_path):
        path = tmp_path / "BENCH_results.json"
        path.write_text(json.dumps(_artifact()))
        label, data = load_artifact(str(path))
        assert label == str(path)
        assert data["gates"].keys() == _artifact()["gates"].keys()

    def test_rejects_non_artifact_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="gates"):
            load_artifact(str(path))

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{broken")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_artifact(str(path))

    def test_loads_from_a_git_revision(self, tmp_path):
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        (tmp_path / "BENCH_results.json").write_text(json.dumps(_artifact()))
        subprocess.run(["git", "-C", str(tmp_path), "add", "-A"], check=True)
        subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.email=t@t", "-c",
             "user.name=t", "commit", "-qm", "baseline"],
            check=True,
        )
        label, data = load_artifact("HEAD", cwd=tmp_path)
        assert label == "HEAD:BENCH_results.json"
        assert "deterministic_batch" in data["gates"]
        label, _ = load_artifact("HEAD:BENCH_results.json", cwd=tmp_path)
        assert label == "HEAD:BENCH_results.json"

    def test_unknown_revision_raises_value_error(self, tmp_path):
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        with pytest.raises(ValueError, match="git show"):
            load_artifact("no-such-rev", cwd=tmp_path)


class TestCompareMany:
    def test_needs_two_sources(self):
        with pytest.raises(ValueError, match="at least two"):
            compare_many(["only-one.json"])

    def test_each_later_artifact_diffs_against_the_first(self, tmp_path):
        base = tmp_path / "base.json"
        ok = tmp_path / "ok.json"
        bad = tmp_path / "bad.json"
        base.write_text(json.dumps(_artifact()))
        ok.write_text(json.dumps(_artifact()))
        worse = copy.deepcopy(_artifact())
        worse["gates"]["deterministic_batch"]["measurements"][0]["speedup"] = 40.0
        bad.write_text(json.dumps(worse))
        reports = compare_many([str(base), str(ok), str(bad)])
        assert [r.ok for r in reports] == [True, False]
        assert all(r.baseline_label == str(base) for r in reports)


class TestRenderReport:
    def test_render_flags_regressions(self):
        current = _artifact()
        current["gates"]["deterministic_batch"]["measurements"][0]["speedup"] = 40.0
        text = render_report(compare_artifacts(("base", _artifact()), ("cur", current)))
        assert "REGRESSED" in text
        assert "-50.0%" in text
        assert "tolerance: 25%" in text

    def test_render_ok_report(self):
        report = compare_artifacts(("base", _artifact()), ("cur", _artifact()))
        text = render_report(report)
        assert "OK: no metric drifted beyond tolerance" in text


class TestDrawBudget:
    def _artifact(self, us):
        data = _artifact()
        data["gates"]["workload_draw"] = {
            "threshold_speedup": 120.0,
            "unit": "us/pattern",
            "measurements": [
                {"grid": "uniform, n=1024", "draw_us_per_pattern": us, "budget_us": 120.0}
            ],
        }
        return data

    def test_draw_cost_regresses_when_it_rises(self):
        slower = compare_artifacts(("a", self._artifact(50.0)), ("b", self._artifact(80.0)))
        assert [(d.gate, d.metric) for d in slower.regressions] == [
            ("workload_draw", "draw_us_per_pattern")
        ]

    def test_draw_cost_falling_is_an_improvement(self):
        faster = compare_artifacts(("a", self._artifact(80.0)), ("b", self._artifact(50.0)))
        assert faster.ok
        assert [d.metric for d in faster.deltas if d.gate == "workload_draw"] == [
            "draw_us_per_pattern"
        ]


class TestMatrixScanBudget:
    def _artifact(self, us):
        data = _artifact()
        data["gates"]["matrix_scan"] = {
            "threshold_speedup": 600.0,
            "unit": "us/pattern",
            "measurements": [
                {
                    "clock": "global",
                    "workload": "simultaneous",
                    "config": "B=256 n=1024 k=64",
                    "us_per_pattern": us,
                    "budget_us": 450.0,
                }
            ],
        }
        return data

    def test_scan_cost_regresses_when_it_rises(self):
        slower = compare_artifacts(("a", self._artifact(150.0)), ("b", self._artifact(240.0)))
        assert [(d.gate, d.metric) for d in slower.regressions] == [
            ("matrix_scan", "us_per_pattern")
        ]

    def test_scan_cost_falling_is_an_improvement(self):
        faster = compare_artifacts(("a", self._artifact(1100.0)), ("b", self._artifact(150.0)))
        assert faster.ok
        assert [d.metric for d in faster.deltas if d.gate == "matrix_scan"] == [
            "us_per_pattern"
        ]


class TestServiceHttpBudget:
    def _artifact(self, ms):
        data = _artifact()
        data["gates"]["service_http"] = {
            "threshold_speedup": 1.5,
            "unit": "ms/hit",
            "measurements": [
                {
                    "protocol": "scenario-b",
                    "hash": "0123456789abcdef",
                    "http_ms_per_hit": ms,
                    "connections": 1,
                    "budget_ms": 1.5,
                }
            ],
        }
        return data

    def test_hit_cost_regresses_when_it_rises(self):
        slower = compare_artifacts(("a", self._artifact(1.0)), ("b", self._artifact(1.4)))
        assert [(d.gate, d.metric) for d in slower.regressions] == [
            ("service_http", "http_ms_per_hit")
        ]

    def test_hit_cost_falling_is_an_improvement(self):
        faster = compare_artifacts(("a", self._artifact(1.8)), ("b", self._artifact(1.0)))
        assert faster.ok
        assert [d.metric for d in faster.deltas if d.gate == "service_http"] == [
            "http_ms_per_hit"
        ]
