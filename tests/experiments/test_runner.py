"""Tests for repro.experiments.runner."""

from __future__ import annotations

from repro.analysis.certificates import BoundCertificate
from repro.experiments.runner import ExperimentResult


class TestExperimentResult:
    def test_summary_contains_tables_and_certificates(self):
        result = ExperimentResult(experiment="E0", title="demo", scale="quick")
        result.tables["t"] = "a | b"
        result.certificates.append(
            BoundCertificate(claim="claim", holds=True, worst_ratio=1.0, tolerance=2.0)
        )
        result.notes.append("a note")
        text = result.summary()
        assert "## E0 — demo" in text
        assert "a | b" in text
        assert "claim" in text
        assert "a note" in text

    def test_all_certificates_hold(self):
        result = ExperimentResult(experiment="E0", title="demo", scale="quick")
        assert result.all_certificates_hold
        result.certificates.append(
            BoundCertificate(claim="bad", holds=False, worst_ratio=9.0, tolerance=2.0)
        )
        assert not result.all_certificates_hold
