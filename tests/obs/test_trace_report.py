"""Trace summarization: JSONL in, ranked spans and counter totals out."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.report import render_summary, summarize_trace
from repro.sweeps import SweepRunner, SweepSpec

#: scenario-b builds selective families, so a run on a cold family cache
#: also holds ``family_cache.build`` beside the engine and campaign spans.
SPEC = SweepSpec(
    protocols=("scenario-b",),
    n_values=(64,),
    k_values=(4, 8),
    seeds=(0,),
    batch=8,
    max_slots=20_000,
)


@pytest.fixture(autouse=True)
def _fresh_session():
    obs.disable()
    yield
    obs.disable()


def _write_trace(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def _real_trace(tmp_path):
    trace = tmp_path / "t.jsonl"
    obs.enable(trace, argv=["repro", "sweep", "run"])
    with obs.span("sweeps.run"):
        with obs.span("engine.chunk_scan"):
            pass
        with obs.span("engine.chunk_scan"):
            pass
    obs.add("sweeps.configs_resolved", 2)
    obs.gauge("sweeps.job_seconds", 0.5)
    obs.disable()
    return trace


class TestSummarizeTrace:
    def test_summarizes_a_real_trace(self, tmp_path):
        summary = summarize_trace(_real_trace(tmp_path))
        assert not summary.truncated
        assert summary.argv == ["repro", "sweep", "run"]
        assert summary.counters == {"sweeps.configs_resolved": 2}
        assert summary.gauges == {"sweeps.job_seconds": 0.5}
        assert summary.spans["engine.chunk_scan"]["count"] == 2
        assert summary.duration_s is not None
        assert summary.configs_per_sec == pytest.approx(2 / summary.duration_s)

    def test_top_spans_rank_by_cumulative_time(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        _write_trace(
            trace,
            [
                {
                    "type": "manifest",
                    "duration_s": 3.0,
                    "timings": {
                        "fast": {"count": 2, "total_s": 0.3, "max_s": 0.2},
                        "slow": {"count": 1, "total_s": 2.0, "max_s": 2.0},
                    },
                }
            ],
        )
        summary = summarize_trace(trace)
        assert [name for name, *_ in summary.top_spans()] == ["slow", "fast"]
        (_, count, total_s, max_s) = summary.top_spans()[1]
        assert (count, total_s, max_s) == (2, pytest.approx(0.3), 0.2)
        assert summary.top_spans(limit=1) == [("slow", 1, 2.0, 2.0)]

    def test_manifest_timings_are_not_added_to_job_snapshots(self, tmp_path):
        # The manifest already holds every job's merged timings.
        trace = tmp_path / "t.jsonl"
        _write_trace(
            trace,
            [
                {"type": "job", "index": 0, "timings": {"w": [1, 0.5, 0.5]}},
                {
                    "type": "manifest",
                    "duration_s": 1.0,
                    "timings": {"w": {"count": 1, "total_s": 0.5, "max_s": 0.5}},
                },
            ],
        )
        summary = summarize_trace(trace)
        assert summary.spans == {"w": {"count": 1, "total_s": 0.5, "max_s": 0.5}}

    def test_truncated_trace_falls_back_to_job_events(self, tmp_path):
        # A crashed run has no manifest and may end mid-line.
        trace = tmp_path / "t.jsonl"
        jobs = [
            {"type": "job", "index": 0, "counters": {"c": 3}, "timings": {"w": [2, 0.5, 0.3]}},
            {
                "type": "job",
                "index": 1,
                "counters": {"c": 4},
                "gauges": {"g": 0.25},
                "timings": {"w": [1, 0.4, 0.4]},
            },
        ]
        trace.write_text(
            "".join(json.dumps(job) + "\n" for job in jobs)
            + '{"type": "jo'  # torn final line
        )
        summary = summarize_trace(trace)
        assert summary.truncated
        assert summary.counters == {"c": 7}
        assert summary.gauges == {"g": 0.25}
        assert summary.top_spans() == [("w", 3, pytest.approx(0.9), 0.4)]
        assert summary.duration_s is None

    @pytest.mark.parametrize("workers", [0, 2])
    def test_sweep_report_lists_every_manifest_timing(self, tmp_path, workers):
        # Spans inside pool jobs run under a sink-less capture; the report
        # must still list them, as the manifest's merged timings do.
        trace = tmp_path / "t.jsonl"
        obs.enable(trace, argv=["repro", "sweep", "run"])
        SweepRunner(workers=workers).run(SPEC)
        manifest = obs.disable()
        assert {"sweeps.run", "campaign.run", "engine.chunk_scan"} <= set(
            manifest["timings"]
        )
        summary = summarize_trace(trace)
        assert {
            name: (entry["count"], entry["total_s"])
            for name, entry in summary.spans.items()
        } == {
            name: (entry["count"], entry["total_s"])
            for name, entry in manifest["timings"].items()
        }
        assert '"type":"span"' not in trace.read_text()

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            summarize_trace(tmp_path / "nope.jsonl")


class TestRenderSummary:
    def test_render_covers_all_sections(self, tmp_path):
        text = render_summary(summarize_trace(_real_trace(tmp_path)))
        assert "repro sweep run" in text
        assert "top spans by cumulative time:" in text
        assert "engine.chunk_scan" in text
        assert "counter totals:" in text
        assert "sweeps.configs_resolved" in text
        assert "gauge totals:" in text
        assert "WARNING" not in text

    def test_render_warns_on_truncated_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, [{"type": "job", "index": 0, "timings": {"s": [1, 1.0, 1.0]}}])
        text = render_summary(summarize_trace(trace))
        assert "WARNING" in text
        # No manifest, no wall clock: the share is not known.
        assert text.endswith("| 1.0000 | -")

    def test_share_is_of_the_wall_clock_not_of_the_span_sum(self, tmp_path):
        # Nested spans cover the same second: each is 50% of a 2 s run.
        trace = tmp_path / "t.jsonl"
        _write_trace(
            trace,
            [
                {
                    "type": "manifest",
                    "duration_s": 2.0,
                    "timings": {
                        name: {"count": 1, "total_s": 1.0, "max_s": 1.0}
                        for name in ("outer", "inner")
                    },
                }
            ],
        )
        text = render_summary(summarize_trace(trace))
        assert text.count("| 50.0%") == 2
