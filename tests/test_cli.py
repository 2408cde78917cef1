"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import copy
import json

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.commands.simulate import PATTERNS, PROTOCOLS


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.protocol == "scenario-b"
        assert args.n == 128 and args.k == 8

    def test_parser_choices_match_the_registries(self):
        # The parser names its choices without importing the registries (so
        # `repro --help` loads no numpy); each constant must match its registry.
        from repro.adversary.strategies import strategy_names
        from repro.cli import (
            EXPERIMENT_IDS,
            PATTERN_NAMES,
            PROTOCOL_NAMES,
            SCALE_NAMES,
            STRATEGY_NAMES,
        )
        from repro.experiments.config import SCALES
        from repro.experiments.registry import DEFINITIONS
        from repro.sweeps.protocols import protocol_names

        assert PROTOCOL_NAMES == tuple(protocol_names())
        assert PATTERN_NAMES == tuple(sorted(PATTERNS))
        assert STRATEGY_NAMES == tuple(strategy_names())
        assert EXPERIMENT_IDS == tuple(DEFINITIONS)
        assert SCALE_NAMES == tuple(sorted(SCALES))

    def test_every_registered_protocol_and_pattern_is_buildable(self):
        args = build_parser().parse_args(["simulate", "--n", "32", "--k", "4", "--seed", "1"])
        for factory in PROTOCOLS.values():
            assert factory(args) is not None
        for factory in PATTERNS.values():
            pattern = factory(args)
            assert pattern.k == 4


class TestSimulateCommand:
    @pytest.mark.parametrize("protocol", ["round-robin", "scenario-a", "scenario-b", "scenario-c"])
    def test_deterministic_protocols_succeed(self, protocol, capsys):
        exit_code = main(
            ["simulate", "--protocol", protocol, "--n", "32", "--k", "4", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "success" in out

    def test_randomized_protocol(self, capsys):
        exit_code = main(["simulate", "--protocol", "rpd", "--n", "64", "--k", "4", "--seed", "3"])
        assert exit_code == 0
        assert "success" in capsys.readouterr().out

    def test_trace_output(self, capsys):
        exit_code = main(
            ["simulate", "--protocol", "round-robin", "--n", "16", "--k", "2", "--trace"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "channel" in out  # the timeline footer row

    def test_unsolved_returns_nonzero(self, capsys):
        # Two stations that always collide under ALOHA p=1/k with k=1? Use a horizon of
        # 0-ish slots instead: max-slots too small for round-robin to reach the station.
        exit_code = main(
            [
                "simulate",
                "--protocol",
                "round-robin",
                "--n",
                "64",
                "--k",
                "2",
                "--pattern",
                "simultaneous",
                "--seed",
                "5",
                "--max-slots",
                "1",
            ]
        )
        out = capsys.readouterr().out
        # Either the first slot happened to be a success or the run reports NOT SOLVED.
        assert exit_code in (0, 1)
        if exit_code == 1:
            assert "NOT SOLVED" in out

    def test_k_above_n_is_usage_error(self, capsys):
        assert main(["simulate", "--protocol", "rpd", "--n", "8", "--k", "9"]) == 2
        assert capsys.readouterr().err == (
            "error: k must satisfy 1 <= k <= n, got k=9, n=8\n"
        )


class TestBoundsCommand:
    def test_default_sweep(self, capsys):
        assert main(["bounds", "--n", "64"]) == 0
        out = capsys.readouterr().out
        assert "bounds for n = 64" in out
        assert "min{k,n-k+1}" in out

    def test_explicit_k_values(self, capsys):
        assert main(["bounds", "--n", "64", "--k", "2", "8", "32"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 5

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "8", "--k", "16"], "k must satisfy 1 <= k <= n, got k=16, n=8"),
            (["--n", "0"], "n must be >= 1, got 0"),
        ],
    )
    def test_invalid_n_or_k_is_usage_error(self, capsys, argv, message):
        assert main(["bounds", *argv]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_one_station_universe_prints_its_only_row(self, capsys):
        assert main(["bounds", "--n", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bounds for n = 1"
        assert len(lines) == 4
        assert lines[3].split(" | ")[:2] == ["1", "1           "]

    def test_default_sweep_starts_at_two_from_n_two(self, capsys):
        assert main(["bounds", "--n", "8"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert [row.split(" | ")[0].strip() for row in rows] == ["2", "4", "8"]


class TestExperimentCommand:
    def test_runs_quick_experiment(self, capsys):
        exit_code = main(["experiment", "E8", "--scale", "quick"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "E8" in out

    def test_prints_the_experiment_section_of_the_paper_report(self, capsys, tmp_path):
        assert main(["experiment", "E8", "--scale", "quick"]) == 0
        printed = capsys.readouterr().out
        report_path = tmp_path / "report.md"
        assert main([
            "paper", "report", "--scale", "quick", "--store", "",
            "--experiments", "E8", "--output", str(report_path),
        ]) == 0
        report = report_path.read_text(encoding="utf-8")
        section = report[report.index("## E8"):report.index("## Campaign manifest")]
        assert printed == section
        assert printed.startswith("## E8 — ") and "**Paper claim.**" in printed


class TestPaperCommand:
    def test_run_resolves_into_the_store_and_resumes_warm(self, capsys, tmp_path):
        store = str(tmp_path / "paper-store")
        argv = ["paper", "run", "--scale", "quick", "--store", store,
                "--experiments", "E4"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "misses 5" in cold and "hit rate 0%" in cold
        assert (tmp_path / "paper-store" / "campaign_manifest.json").is_file()
        # Second run over the complete store: 100% hit, nothing recomputed.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "hits 5, misses 0" in warm and "hit rate 100%" in warm

    def test_status_shows_store_coverage(self, capsys, tmp_path):
        store = str(tmp_path / "paper-store")
        argv = ["paper", "status", "--scale", "quick", "--store", store,
                "--experiments", "E4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0/5 unique specs stored" in out
        main(["paper", "run", "--scale", "quick", "--store", store,
              "--experiments", "E4"])
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "5/5 unique specs stored" in out

    def test_report_writes_the_rendered_report(self, capsys, tmp_path):
        output = tmp_path / "report.md"
        exit_code = main(
            ["paper", "report", "--scale", "quick", "--store", "",
             "--experiments", "E7", "E8", "--output", str(output)]
        )
        assert exit_code == 0
        text = output.read_text()
        assert "## E7" in text and "## E8" in text
        assert "Campaign manifest" in text

    def test_report_on_stdout_is_the_report_alone(self, capsys, tmp_path, monkeypatch):
        # Progress lines go to stderr, so stdout is what --output writes plus
        # print's newline.  The manifest carries wall-clock times, so each
        # run's text is taken from the renderer and the two compared up to it.
        import repro.commands.paper

        rendered = []
        render = repro.commands.paper.render_campaign_report
        monkeypatch.setattr(
            repro.commands.paper, "render_campaign_report",
            lambda result: rendered.append(render(result)) or rendered[-1],
        )
        argv = ["paper", "report", "--scale", "quick", "--store", "",
                "--experiments", "E4"]
        output = tmp_path / "report.md"
        assert main([*argv, "--output", str(output)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert output.read_text() == rendered[0]
        assert captured.out == rendered[1] + "\n"
        assert captured.err.count("resolved ") == 5
        manifest = "## Campaign manifest"
        assert captured.out.split(manifest)[0] == rendered[0].split(manifest)[0]

    def test_export_writes_rows(self, capsys, tmp_path):
        export = tmp_path / "rows.json"
        exit_code = main(
            ["paper", "run", "--scale", "quick", "--store", "",
             "--experiments", "E8", "--export", str(export)]
        )
        assert exit_code == 0
        rows = json.loads(export.read_text())
        assert rows and all(row["experiment"] == "E8" for row in rows)

    def test_unknown_experiment_is_usage_error(self, capsys):
        exit_code = main(["paper", "run", "--scale", "quick", "--store", "",
                          "--experiments", "E99"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "error:" in err and "E99" in err


class TestWorkloadsCommand:
    def test_list_prints_registry(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("heavy-tailed", "duty-cycle", "churn", "clustered-ids", "density-sweep"):
            assert name in out

    def test_sample_prints_patterns(self, capsys):
        exit_code = main(
            ["workloads", "sample", "--workload", "churn", "--n", "32", "--k", "4", "--samples", "2"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.count("WakeupPattern") == 2

    def test_run_deterministic_batch(self, capsys):
        exit_code = main(
            [
                "workloads", "run", "--workload", "heavy-tailed", "--protocol", "scenario-b",
                "--n", "64", "--k", "4", "--batch", "16", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "max_latency" in out and "workload: heavy-tailed" in out

    def test_run_randomized_policy(self, capsys):
        exit_code = main(
            [
                "workloads", "run", "--workload", "uniform", "--protocol", "rpd",
                "--n", "32", "--k", "4", "--batch", "8",
            ]
        )
        assert exit_code == 0
        assert "mean_latency" in capsys.readouterr().out

    def test_run_unsolved_returns_nonzero(self, capsys):
        exit_code = main(
            [
                "workloads", "run", "--workload", "simultaneous", "--protocol", "round-robin",
                "--n", "64", "--k", "8", "--batch", "4", "--max-slots", "1",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "NOT SOLVED" in out

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["workloads", "run", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestSweepCommand:
    INLINE = [
        "--protocols", "round-robin", "scenario-b", "--n-values", "32",
        "--k-values", "4", "--batch", "6", "--max-slots", "20000",
    ]

    def test_run_inline_grid(self, capsys):
        assert main(["sweep", "run", *self.INLINE]) == 0
        out = capsys.readouterr().out
        assert "round-robin" in out and "scenario-b" in out
        assert "2 configs (0 reused from store)" in out

    def test_run_with_store_then_resume(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", *self.INLINE, "--store", store]) == 0
        capsys.readouterr()
        assert main(["sweep", "resume", *self.INLINE, "--store", store, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 reused from store" in out

    def test_status_reports_coverage(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "status", *self.INLINE, "--store", store]) == 0
        assert "0/2 configs completed" in capsys.readouterr().out
        main(["sweep", "run", *self.INLINE, "--store", store])
        capsys.readouterr()
        assert main(["sweep", "status", *self.INLINE, "--store", store]) == 0
        assert "2/2 configs completed" in capsys.readouterr().out

    def test_spec_file_round_trip(self, capsys, tmp_path):
        from repro.sweeps import SweepSpec

        spec_path = tmp_path / "grid.json"
        SweepSpec(
            protocols=("round-robin",), n_values=(32,), k_values=(4,),
            batch=4, max_slots=20_000,
        ).save(spec_path)
        assert main(["sweep", "run", "--spec", str(spec_path)]) == 0
        assert "1 configs" in capsys.readouterr().out

    def test_export_writes_rows(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        assert main(["sweep", "run", *self.INLINE, "--export", str(csv_path)]) == 0
        text = csv_path.read_text()
        assert text.startswith("protocol,")
        assert "round-robin" in text

    def test_resume_without_store_is_usage_error(self, capsys):
        assert main(["sweep", "resume", *self.INLINE]) == 2
        assert "requires --store" in capsys.readouterr().err

    def test_worst_case_action_prints_grid(self, capsys):
        exit_code = main([
            "sweep", "worst-case", "--protocols", "scenario-b", "--n-values", "32",
            "--k-values", "4", "8", "--trials", "4", "--max-slots", "20000",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "worst latency" in out
        assert out.count("scenario-b") == 2  # one row per (n, k) cell

    WORST_CASE = [
        "sweep", "worst-case", "--protocols", "scenario-b", "--n-values", "32",
        "--k-values", "2", "4", "--trials", "12", "--max-slots", "20000",
    ]

    def _worst_case_rows(self, tmp_path, name, *extra):
        out = tmp_path / f"{name}.json"
        assert main([*self.WORST_CASE, *extra, "--export", str(out)]) == 0
        return json.loads(out.read_text())

    def test_worst_case_searches_randomized_protocols(self, capsys):
        exit_code = main([
            "sweep", "worst-case", "--protocols", "rpd", "--n-values", "32",
            "--k-values", "4", "--trials", "2",
        ])
        assert exit_code == 0
        assert "rpd" in capsys.readouterr().out

    def test_worst_case_unknown_protocol_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "worst-case", "--protocols", "psychic", "--n-values", "32"])
        assert exc.value.code == 2
        spec = tmp_path / "grid.json"
        spec.write_text('{"protocols": ["psychic"], "n_values": [32], "k_values": [4]}')
        assert main(["sweep", "worst-case", "--spec", str(spec), "--trials", "2"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_worst_case_empty_grid_is_usage_error(self, capsys):
        exit_code = main([
            "sweep", "worst-case", "--protocols", "scenario-b", "--n-values", "4",
            "--k-values", "8",
        ])
        assert exit_code == 2
        assert "grid is empty" in capsys.readouterr().err

    def test_worst_case_searches_every_seed(self, capsys, tmp_path):
        both = self._worst_case_rows(tmp_path, "both", "--seeds", "0", "1")
        assert [(r["n"], r["k"], r["seed"]) for r in both] == [
            (32, 2, 0), (32, 2, 1), (32, 4, 0), (32, 4, 1),
        ]
        assert all(r["strategy"] == "random" for r in both)
        only_one = self._worst_case_rows(tmp_path, "one", "--seeds", "1")
        assert only_one == [r for r in both if r["seed"] == 1]
        out = capsys.readouterr().out
        assert "seed" in out.splitlines()[0]

    def test_worst_case_is_worker_invariant(self, capsys, tmp_path):
        serial = self._worst_case_rows(tmp_path, "serial", "--workers", "0")
        parallel = self._worst_case_rows(tmp_path, "parallel", "--workers", "2")
        assert serial == parallel
        assert all(r["solved"] and r["latency"] >= 0 and r["wake_times"] for r in serial)

    def test_worst_case_export_replays(self, capsys, tmp_path):
        from repro.adversary import load_certificate, replay_certificate

        rows = self._worst_case_rows(tmp_path, "export", "--protocols", "scenario-b", "rpd")
        assert len(rows) == 4
        for row in rows:
            cert = load_certificate(row)
            assert cert.as_dict() == row
            assert replay_certificate(cert) == cert

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_worst_case_store_checkpoints_every_cell(self, capsys, tmp_path, workers):
        store = str(tmp_path / "wc-store")
        first = self._worst_case_rows(
            tmp_path, "first", "--store", store, "--workers", workers
        )
        assert main(["adversary", "report", "--store", store]) == 0
        report = capsys.readouterr().out
        assert report.count("random") == 2
        assert "2 search(es) checkpointed" in report
        assert self._worst_case_rows(tmp_path, "again", "--store", store) == first

    def test_worst_case_export_writes_rows(self, capsys, tmp_path):
        csv_path = tmp_path / "wc.csv"
        exit_code = main([
            "sweep", "worst-case", "--protocols", "round-robin", "--n-values", "32",
            "--k-values", "4", "--trials", "2", "--export", str(csv_path),
        ])
        assert exit_code == 0
        assert "round-robin" in csv_path.read_text()

    def test_negative_workers_is_usage_error(self, capsys):
        assert main(["sweep", "run", *self.INLINE, "--workers", "-1"]) == 2
        assert "workers must be >= 0" in capsys.readouterr().err

    def test_empty_grid_is_usage_error_for_run_and_status(self, capsys, tmp_path):
        empty = ["--protocols", "round-robin", "--n-values", "4", "--k-values", "8"]
        assert main(["sweep", "run", *empty]) == 2
        assert "empty grid" in capsys.readouterr().err
        assert main(["sweep", "status", *empty, "--store", str(tmp_path / "s")]) == 2
        assert "empty grid" in capsys.readouterr().err

    def test_bad_spec_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"protocols": []}')
        assert main(["sweep", "run", "--spec", str(bad)]) == 2
        assert "invalid sweep spec" in capsys.readouterr().err

    def test_unsolved_grid_returns_nonzero(self, capsys):
        exit_code = main([
            "sweep", "run", "--protocols", "round-robin", "--n-values", "64",
            "--k-values", "8", "--workloads", "simultaneous", "--batch", "3",
            "--max-slots", "1",
        ])
        assert exit_code == 1
        assert "NOT SOLVED" in capsys.readouterr().out

    def test_progress_lines_carry_counts_and_rate(self, capsys):
        assert main(["sweep", "run", *self.INLINE]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("resolved ")]
        assert len(lines) == 2
        assert "[1/2" in lines[0] and "[2/2" in lines[1]
        assert "configs/s" in lines[0]
        assert "eta ~" in lines[0]  # pending work remains after the first line
        assert "eta" not in lines[1]  # nothing pending after the last

    def test_trace_writes_jsonl_and_manifest(self, capsys, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        argv = ["sweep", "run", *self.INLINE, "--trace", str(trace)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert not obs.enabled(), "--trace session must end with the command"
        manifest = obs.validate_manifest(
            json.loads(obs.manifest_path_for(trace).read_text())
        )
        assert manifest["argv"] == ["repro", *argv]
        assert manifest["counters"]["sweeps.configs_resolved"] == 2
        assert manifest["meta"]["sweep_spec"]["protocols"] == [
            "round-robin", "scenario-b",
        ]
        assert len(manifest["meta"]["config_hashes"]) == 2
        summary = obs.summarize_trace(trace)
        assert summary.counters == manifest["counters"]

    @pytest.mark.parametrize("action", ["run", "worst-case"])
    def test_trace_counter_totals_are_worker_count_invariant(
        self, capsys, tmp_path, action
    ):
        counters = {}
        for workers in ("1", "4"):
            trace = tmp_path / f"w{workers}.jsonl"
            args = [
                "sweep", action, *self.INLINE,
                "--workers", workers, "--trace", str(trace),
            ]
            assert main(args) == 0
            manifest = json.loads(obs.manifest_path_for(trace).read_text())
            counters[workers] = manifest["counters"]
        capsys.readouterr()
        assert counters["1"] == counters["4"]


def _bench_artifact():
    return {
        "schema": 2,
        "gates": {
            "deterministic_batch": {
                "threshold_speedup": 10.0,
                "unit": "patterns/sec",
                "measurements": [
                    {"protocol": "round_robin", "config": "B=256", "speedup": 80.0}
                ],
            }
        },
    }


class TestBenchCommand:
    def test_compare_identical_artifacts_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(_bench_artifact()))
        assert main(["bench", "compare", str(path), str(path)]) == 0
        assert "OK: no metric drifted" in capsys.readouterr().out

    def test_compare_flags_30_percent_regression(self, capsys, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        base.write_text(json.dumps(_bench_artifact()))
        worse = copy.deepcopy(_bench_artifact())
        worse["gates"]["deterministic_batch"]["measurements"][0]["speedup"] = 56.0
        cur.write_text(json.dumps(worse))
        assert main(["bench", "compare", str(base), str(cur)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "-30.0%" in out

    def test_tolerance_flag_loosens_the_bar(self, capsys, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        base.write_text(json.dumps(_bench_artifact()))
        worse = copy.deepcopy(_bench_artifact())
        worse["gates"]["deterministic_batch"]["measurements"][0]["speedup"] = 56.0
        cur.write_text(json.dumps(worse))
        argv = ["bench", "compare", str(base), str(cur), "--tolerance", "0.4"]
        assert main(argv) == 0
        capsys.readouterr()

    def test_unreadable_artifact_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(_bench_artifact()))
        missing = tmp_path / "nope.json"
        assert main(["bench", "compare", str(path), str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_single_source_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(_bench_artifact()))
        assert main(["bench", "compare", str(path)]) == 2
        assert "at least two artifacts" in capsys.readouterr().err

    def test_json_flag_emits_parseable_report(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(_bench_artifact()))
        assert main(["bench", "compare", "--json", str(path), str(path)]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert isinstance(reports, list) and len(reports) == 1
        report = reports[0]
        assert report["ok"] is True
        assert report["regressions"] == 0
        assert report["deltas"][0]["metric"] == "speedup"
        assert report["deltas"][0]["regressed"] is False

    def test_json_flag_keeps_regression_exit_code(self, capsys, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        base.write_text(json.dumps(_bench_artifact()))
        worse = copy.deepcopy(_bench_artifact())
        worse["gates"]["deterministic_batch"]["measurements"][0]["speedup"] = 56.0
        cur.write_text(json.dumps(worse))
        assert main(["bench", "compare", "--json", str(base), str(cur)]) == 1
        report = json.loads(capsys.readouterr().out)[0]
        assert report["ok"] is False
        assert report["regressions"] == 1
        assert report["deltas"][0]["regressed"] is True


class TestObsCommand:
    def test_report_summarizes_a_traced_sweep(self, capsys, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        assert main(["sweep", "run", *TestSweepCommand.INLINE, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "top spans by cumulative time:" in out
        assert "sweeps.run" in out
        assert "counter totals:" in out
        assert "configs/sec" in out

    def test_report_missing_trace_is_usage_error(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestVerifyMatrixCommand:
    def test_finds_seed(self, capsys):
        exit_code = main(["verify-matrix", "--n", "32", "--attempts", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "verified seed" in out

    def test_impossible_budget(self, capsys):
        exit_code = main(
            ["verify-matrix", "--n", "32", "--attempts", "1", "--budget-factor", "0.001"]
        )
        assert exit_code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "0"], "n must be >= 1, got 0"),
            (["--n", "8", "--attempts", "0"], "max_attempts must be >= 1, got 0"),
            (["--n", "8", "--budget-factor", "-1"], "budget_factor must be > 0, got -1.0"),
            (["--n", "8", "--budget-factor", "0"], "budget_factor must be > 0, got 0.0"),
            (["--n", "8", "--budget-factor", "nan"], "budget_factor must be > 0, got nan"),
        ],
    )
    def test_invalid_n_or_attempts_is_usage_error(self, capsys, argv, message):
        assert main(["verify-matrix", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestAdversaryCommand:
    SMALL = [
        "--n", "32", "--k", "4", "--budget", "48", "--population", "16",
        "--window", "64", "--max-slots", "20000", "--seed", "11",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["adversary", "search"])
        assert args.action == "search"
        assert args.protocol == "scenario-b"
        assert (args.n, args.k) == (256, 16)
        assert args.strategy == "anneal"
        assert args.budget == 2048
        assert args.max_slots == 200_000

    def test_unknown_strategy_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adversary", "search", "--strategy", "psychic"])

    def test_search_prints_best_and_progress(self, capsys):
        assert main(["adversary", "search", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "step 1:" in out and "step 3:" in out
        assert "best: scenario-b n=32 k=4 [anneal]" in out
        assert "pattern:" in out

    def test_search_export_then_replay_round_trips(self, capsys, tmp_path):
        cert = tmp_path / "worst.json"
        assert main(["adversary", "search", *self.SMALL, "--certificate", str(cert)]) == 0
        assert f"wrote {cert}" in capsys.readouterr().out
        assert main(["adversary", "replay", "--certificate", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out
        assert "recorded:" in out and "replayed:" in out

    def test_replay_mismatch_fails(self, capsys, tmp_path):
        cert = tmp_path / "worst.json"
        assert main(["adversary", "search", *self.SMALL, "--certificate", str(cert)]) == 0
        capsys.readouterr()
        data = json.loads(cert.read_text())
        data["latency"] += 1
        cert.write_text(json.dumps(data))
        assert main(["adversary", "replay", "--certificate", str(cert)]) == 1
        assert "REPLAY MISMATCH" in capsys.readouterr().out

    WORST_CASE = [
        "sweep", "worst-case", "--protocols", "round-robin", "scenario-b",
        "--n-values", "16", "--k-values", "4", "--trials", "4",
    ]

    def test_replay_reads_a_worst_case_json_export(self, capsys, tmp_path):
        export = tmp_path / "wc.json"
        assert main([*self.WORST_CASE, "--export", str(export)]) == 0
        capsys.readouterr()
        assert main(["adversary", "replay", "--certificate", str(export)]) == 0
        out = capsys.readouterr().out
        assert out.count("replay OK") == 2
        assert out.count("recorded:") == out.count("replayed:") == 2

    def test_replay_export_fails_if_any_row_mismatches(self, capsys, tmp_path):
        export = tmp_path / "wc.json"
        assert main([*self.WORST_CASE, "--export", str(export)]) == 0
        capsys.readouterr()
        rows = json.loads(export.read_text())
        rows[1]["latency"] += 1
        export.write_text(json.dumps(rows))
        assert main(["adversary", "replay", "--certificate", str(export)]) == 1
        out = capsys.readouterr().out
        assert out.count("replay OK") == 1 and out.count("REPLAY MISMATCH") == 1
        del rows[1]["schema"]
        export.write_text(json.dumps(rows))
        assert main(["adversary", "replay", "--certificate", str(export)]) == 2
        assert f"{export}[1]" in capsys.readouterr().err
        export.write_text("[]")
        assert main(["adversary", "replay", "--certificate", str(export)]) == 2
        assert "holds no certificates" in capsys.readouterr().err

    def test_replay_corrupt_certificate_is_usage_error(self, capsys, tmp_path):
        cert = tmp_path / "torn.json"
        cert.write_text("{not json")
        assert main(["adversary", "replay", "--certificate", str(cert)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and str(cert) in err

    def test_replay_requires_certificate(self, capsys):
        assert main(["adversary", "replay"]) == 2
        assert "--certificate" in capsys.readouterr().err

    def test_search_with_store_then_report(self, capsys, tmp_path):
        store = tmp_path / "adversary-store"
        assert main(["adversary", "search", *self.SMALL, "--store", str(store)]) == 0
        assert "checkpoint:" in capsys.readouterr().out
        assert main(["adversary", "report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "scenario-b" in out
        assert "48/48" in out  # evaluated/budget
        assert "1 search(es) checkpointed" in out

    def test_report_requires_store(self, capsys):
        assert main(["adversary", "report"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_invalid_shape_is_usage_error(self, capsys):
        assert main(["adversary", "search", "--n", "4", "--k", "9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["adversary", "search", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestSingleEnginePath:
    """No subcommand selects an array backend: the engines have one path."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["paper", "run", "--backend", "numpy"],
            ["workloads", "run", "--workload", "uniform", "--backend", "numpy"],
            ["sweep", "run", "--backend", "numpy"],
            ["service", "query", "--backend", "numpy"],
        ],
        ids=["paper", "workloads", "sweep", "service"],
    )
    def test_backend_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_repro_backend_variable_is_ignored(self, capsys, monkeypatch):
        # A stale REPRO_BACKEND (even an invalid one) no longer reaches the
        # engine: the run resolves exactly as without it.
        argv = [
            "workloads", "run", "--workload", "uniform", "--protocol", "round-robin",
            "--n", "32", "--k", "4", "--batch", "8",
        ]
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert main(argv) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert main(argv) == 0
        assert capsys.readouterr().out == clean
