"""Tests for repro.experiments.runner."""

from __future__ import annotations

import pytest

from repro.analysis.certificates import BoundCertificate
from repro.channel.wakeup import WakeupPattern
from repro.core.randomized import FixedProbabilityPolicy
from repro.core.round_robin import RoundRobin
from repro.experiments.runner import (
    ExperimentResult,
    mean_latency,
    measure_latency,
    worst_latency,
)


class TestMeasureLatency:
    def test_deterministic_protocol(self):
        patterns = [WakeupPattern(8, {3: 0}), WakeupPattern(8, {5: 0, 6: 0})]
        latencies = measure_latency(RoundRobin(8), patterns)
        assert latencies == [2, 4]

    def test_randomized_policy(self):
        patterns = [WakeupPattern(8, {3: 0})]
        latencies = measure_latency(FixedProbabilityPolicy(8, 1.0), patterns, rng=0)
        assert latencies == [0]

    def test_unsolved_raises(self):
        class Never(RoundRobin):
            def transmits(self, station, wake_time, slot):
                return False

            def transmit_slots(self, station, wake_time, start, stop):
                import numpy as np

                return np.empty(0, dtype=np.int64)

        with pytest.raises(RuntimeError):
            measure_latency(Never(8), [WakeupPattern(8, {1: 0})], max_slots=50)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            measure_latency(object(), [WakeupPattern(8, {1: 0})])

    def test_worst_and_mean(self):
        patterns = [WakeupPattern(8, {3: 0}), WakeupPattern(8, {7: 0})]
        assert worst_latency(RoundRobin(8), patterns) == 6
        assert mean_latency(RoundRobin(8), patterns) == pytest.approx(4.0)


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
