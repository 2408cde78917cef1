"""Tests for :mod:`repro.workloads` — generators, registry, and suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.workloads.suite as suite_module
from repro._util import spawn_generators
from repro.workloads import (
    WORKLOADS,
    WorkloadSuite,
    churn_burst_pattern,
    clustered_id_pattern,
    density_drawn_pattern,
    duty_cycle_pattern,
    heavy_tailed_pattern,
    register_workload,
)
from repro.workloads.suite import Workload


@pytest.fixture
def suite():
    return WorkloadSuite()


class TestGenerators:
    @pytest.mark.parametrize(
        "generator",
        [heavy_tailed_pattern, duty_cycle_pattern, churn_burst_pattern, clustered_id_pattern],
    )
    def test_basic_invariants(self, generator, rng):
        pattern = generator(64, 8, rng=rng)
        assert pattern.n == 64
        assert pattern.k == 8
        assert pattern.first_wake == 0  # one station pinned to start
        assert all(1 <= u <= 64 for u in pattern.stations)

    def test_heavy_tailed_offsets_are_capped(self, rng):
        pattern = heavy_tailed_pattern(64, 16, scale=1e6, alpha=0.3, cap=500, rng=rng)
        assert pattern.last_wake <= 500

    def test_duty_cycle_wakes_fall_in_active_windows(self, rng):
        period, periods, fraction = 40, 3, 0.25
        pattern = duty_cycle_pattern(
            64, 16, period=period, periods=periods, active_fraction=fraction, rng=rng
        )
        active_len = int(period * fraction)
        for t in pattern.wake_times.values():
            assert t % period < active_len
            assert t < periods * period

    def test_churn_bursts_are_cohorts(self, rng):
        pattern = churn_burst_pattern(64, 12, bursts=3, burst_gap=50, spread=0, rng=rng)
        times = sorted(set(pattern.wake_times.values()))
        assert times == [0, 50, 100]

    def test_clustered_ids_are_contiguous(self, rng):
        pattern = clustered_id_pattern(256, 16, clusters=1, rng=rng)
        ids = sorted(pattern.stations)
        assert ids == list(range(ids[0], ids[0] + 16))

    def test_clustered_ids_tops_up_on_collisions(self):
        # With clusters covering most of the universe, overlaps are common;
        # the pattern must still end up with exactly k stations.
        for seed in range(10):
            pattern = clustered_id_pattern(20, 18, clusters=3, rng=seed)
            assert pattern.k == 18

    def test_density_drawn_k_spans_range(self):
        ks = {density_drawn_pattern(128, 32, rng=seed).k for seed in range(40)}
        assert min(ks) < 8 and max(ks) > 16
        assert all(2 <= k <= 32 for k in ks)

    @pytest.mark.parametrize(
        "generator,kwargs",
        [
            (heavy_tailed_pattern, {"scale": 0}),
            (heavy_tailed_pattern, {"alpha": -1}),
            (duty_cycle_pattern, {"period": 0}),
            (duty_cycle_pattern, {"active_fraction": 0.0}),
            (churn_burst_pattern, {"bursts": 0}),
            (churn_burst_pattern, {"spread": -1}),
            (clustered_id_pattern, {"window": 0}),
        ],
    )
    def test_parameter_validation(self, generator, kwargs, rng):
        with pytest.raises(ValueError):
            generator(64, 8, rng=rng, **kwargs)


class TestRegistry:
    def test_builtin_names_present(self, suite):
        for name in (
            "simultaneous",
            "staggered",
            "batched",
            "uniform",
            "heavy-tailed",
            "duty-cycle",
            "churn",
            "clustered-ids",
            "density-sweep",
        ):
            assert name in WORKLOADS
            assert suite.describe(name)

    def test_register_refuses_silent_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload("uniform", "dup", lambda n, k, rng=None: None)

    def test_refused_registration_keeps_the_existing_entry(self):
        builtin = WORKLOADS["uniform"]
        with pytest.raises(ValueError):
            register_workload("uniform", "dup", lambda n, k, rng=None: None)
        assert WORKLOADS["uniform"] is builtin

    def test_registered_workload_is_served_by_the_default_suite(self, monkeypatch):
        from repro.channel.adversary import simultaneous_row

        monkeypatch.setattr(suite_module, "WORKLOADS", dict(WORKLOADS))
        workload = register_workload("all-at-once", "everyone wakes together", simultaneous_row)
        suite = WorkloadSuite()
        assert suite.describe("all-at-once") == "everyone wakes together"
        batch = suite.generate("all-at-once", n=32, k=4, batch=3, seed=0)
        assert len(batch) == 3
        assert all(p.n == 32 and p.k == 4 for p in batch)
        rows = spawn_generators(0, 3, "all-at-once")
        assert list(batch) == [workload.draw(32, 4, rng=gen) for gen in rows]
        assert "all-at-once" not in WORKLOADS

    def test_registered_defaults_sit_under_overrides(self, monkeypatch):
        monkeypatch.setattr(suite_module, "WORKLOADS", dict(WORKLOADS))
        calls = []

        def factory(n, k, *, rng=None, start=0, spread=1):
            calls.append((start, spread))
            return WORKLOADS["simultaneous"].factory(n, k, rng=rng, start=start)

        defaults = {"start": 5, "spread": 2}
        register_workload("shifted", "starts late", factory, defaults=defaults)
        defaults["start"] = 99  # the record keeps its own copy
        suite = WorkloadSuite()
        suite.generate("shifted", n=16, k=2, batch=1, seed=0)
        suite.generate("shifted", n=16, k=2, batch=1, seed=0, spread=7)
        assert calls == [(5, 2), (5, 7)]

    def test_default_suite_scans_no_package_metadata(self):
        # register_workload is the one way to add a workload: building the
        # default suite must not pay for a scan of installed distributions.
        code = (
            "import sys\n"
            "from repro.workloads import WorkloadSuite\n"
            "WorkloadSuite()\n"
            "print('importlib.metadata' in sys.modules)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "False"

    def test_register_and_generate_custom_workload(self):
        from repro.channel.adversary import simultaneous_row

        registry = {"mine": Workload("mine", "test-only", simultaneous_row)}
        suite = WorkloadSuite(registry)
        assert suite.names() == ["mine"]
        batch = suite.generate("mine", n=16, k=4, batch=3, seed=0)
        assert len(batch) == 3

    def test_unknown_name_error_lists_registry(self, suite):
        with pytest.raises(KeyError, match="unknown workload"):
            suite.generate("no-such-workload", n=16, k=4, batch=1)


class TestWorkloadSuite:
    def test_batches_are_reproducible(self, suite):
        for name in suite.names():
            a = suite.generate(name, n=32, k=4, batch=6, seed=9)
            b = suite.generate(name, n=32, k=4, batch=6, seed=9)
            assert a == b, name

    def test_rows_independent_of_batch_size(self, suite):
        for name in suite.names():
            short = suite.generate(name, n=32, k=4, batch=4, seed=2)
            long = suite.generate(name, n=32, k=4, batch=9, seed=2)
            assert short == long[:4], name

    def test_different_workloads_do_not_share_streams(self, suite):
        a = suite.generate("uniform", n=64, k=8, batch=4, seed=0)
        b = suite.generate("heavy-tailed", n=64, k=8, batch=4, seed=0)
        assert a != b

    def test_overrides_reach_the_generator(self, suite):
        batch = suite.generate("staggered", n=32, k=4, batch=2, seed=0, gap=10)
        for pattern in batch:
            times = sorted(pattern.wake_times.values())
            assert times == [0, 10, 20, 30]

    def test_sample_is_first_row(self, suite):
        assert suite.sample("churn", n=32, k=4, seed=3) == suite.generate(
            "churn", n=32, k=4, batch=2, seed=3
        )[0]

    def test_generate_builds_no_per_row_pattern(self, suite, monkeypatch):
        from repro.channel.wakeup import WakeupPattern

        calls = []
        build = WakeupPattern.from_arrays.__func__

        def counted(cls, n, stations, wake_times):
            calls.append(n)
            return build(cls, n, stations, wake_times)

        monkeypatch.setattr(WakeupPattern, "from_arrays", classmethod(counted))
        for name in suite.names():
            suite.generate(name, n=32, k=4, batch=16, seed=1)
        assert calls == []
        suite.generate("uniform", n=32, k=4, batch=16, seed=1)[3]
        assert calls == [32]

    def test_family_boundary_builds_its_protocol_once_per_key(self, suite, monkeypatch):
        import repro.sweeps.protocols as protocols
        from repro.workloads.generators import _family_boundaries

        calls = []
        build = protocols.build_protocol

        def counted(name, n, k=1, **kwargs):
            calls.append((name, n, k))
            return build(name, n, k, **kwargs)

        _family_boundaries.cache_clear()
        monkeypatch.setattr(protocols, "build_protocol", counted)
        first = suite.generate("family-boundary", n=64, k=8, batch=16, seed=3)
        again = suite.generate("family-boundary", n=64, k=8, batch=4, seed=3)
        assert calls == [("scenario-b", 64, 8)]
        assert again == first[:4]
        suite.generate("family-boundary", n=64, k=8, batch=4, seed=3, periods=2)
        assert len(calls) == 2  # another key, another build
        _family_boundaries.cache_clear()

    def test_batch_validation(self, suite):
        with pytest.raises(ValueError):
            suite.generate("uniform", n=32, k=4, batch=-1)
        assert len(suite.generate("uniform", n=32, k=4, batch=0)) == 0
