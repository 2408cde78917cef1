"""Tests for repro.sweeps.runner: determinism, sharding, resume.

The contracts under test are the ones the sweep layer is built on:

* **worker-count invariance** — a grid resolved serially, with 4 processes,
  or in any sharding, yields bit-for-bit identical outcome columns;
* **resume equivalence** — a sweep resumed from a partial store returns
  exactly what an uninterrupted serial run returns;
* **store reuse** — configs already on disk are served from the store, not
  recomputed.
"""

from __future__ import annotations

import pytest

from repro.sweeps.runner import SweepRunner, WorkerPool, map_jobs, resolve_config
from repro.sweeps.spec import SweepConfig, SweepSpec
from repro.sweeps.store import SweepStore

#: A small mixed grid: deterministic protocols plus a randomized policy, so
#: the invariance tests cover both engine kinds.
SPEC = SweepSpec(
    protocols=("round-robin", "scenario-b", "rpd"),
    n_values=(32,),
    k_values=(2, 4),
    workloads=("uniform", "staggered"),
    seeds=(0, 1),
    batch=5,
    max_slots=20_000,
)


def _columns(result):
    return [(r.config.config_hash(), r.columns) for r in result.records]


@pytest.fixture(scope="module")
def serial_result():
    return SweepRunner(workers=0).run(SPEC)


class TestWorkerInvariance:
    def test_four_workers_match_serial_bit_for_bit(self, serial_result):
        parallel = SweepRunner(workers=4).run(SPEC)
        assert _columns(parallel) == _columns(serial_result)

    def test_single_worker_matches_serial(self, serial_result):
        assert _columns(SweepRunner(workers=1).run(SPEC)) == _columns(serial_result)

    def test_randomized_policy_is_worker_invariant(self):
        # The randomized configs draw per-pattern child streams from the
        # config seed inside each worker — no shared stream, so sharding
        # cannot change outcomes even for stochastic policies.
        configs = [
            SweepConfig(protocol="rpd", n=32, k=4, batch=8, seed=s, max_slots=20_000)
            for s in range(4)
        ]
        serial = SweepRunner(workers=0).run(configs)
        parallel = SweepRunner(workers=4).run(configs)
        assert _columns(serial) == _columns(parallel)
        # ... and genuinely stochastic across seeds (not degenerate).
        latencies = {tuple(r.columns["latency"]) for r in serial.records}
        assert len(latencies) > 1

    @pytest.mark.parametrize("protocol", ["beb", "tree-splitting"])
    def test_feedback_policy_is_worker_invariant(self, protocol):
        # Feedback-driven baselines draw their backoff windows / splitting
        # coins from the same per-pattern child streams as the transmit
        # decisions (resolved through the vectorized feedback engine), so
        # their sweep results are worker-count invariant too.
        configs = [
            SweepConfig(
                protocol=protocol,
                n=32,
                k=4,
                workload="simultaneous",
                batch=6,
                seed=s,
                max_slots=20_000,
            )
            for s in range(3)
        ]
        serial = SweepRunner(workers=0).run(configs)
        parallel = SweepRunner(workers=3).run(configs)
        assert _columns(serial) == _columns(parallel)
        latencies = {tuple(r.columns["latency"]) for r in serial.records}
        assert len(latencies) > 1

    def test_explicit_config_list_matches_spec_expansion(self, serial_result):
        assert _columns(SweepRunner(workers=0).run(SPEC.configs())) == _columns(serial_result)


class TestStoreResume:
    def test_resume_from_partial_store_matches_serial(self, serial_result, tmp_path):
        store = SweepStore(tmp_path / "store")
        configs = SPEC.configs()
        # Simulate an interrupted sweep: only an arbitrary half completed.
        SweepRunner(workers=0, store=store).run(configs[::2])
        assert len(store) == len(configs[::2])
        resumed = SweepRunner(workers=2, store=store).run(SPEC)
        assert resumed.reused == len(configs[::2])
        assert _columns(resumed) == _columns(serial_result)

    def test_stored_configs_are_not_recomputed(self, serial_result, tmp_path):
        store = SweepStore(tmp_path / "store")
        runner = SweepRunner(workers=0, store=store)
        first = runner.run(SPEC)
        assert first.reused == 0 and _columns(first) == _columns(serial_result)
        # Tamper with one stored summary; a second run must serve the
        # tampered record verbatim — proof it came from disk, not recompute.
        target = first.records[0]
        marked = dict(target.summary, marker=123.0)
        tampered = type(target)(
            config=target.config,
            protocol_label=target.protocol_label,
            columns=target.columns,
            summary=marked,
        )
        store.save(tampered)
        second = runner.run(SPEC)
        assert second.reused == len(SPEC.configs())
        assert second.records[0].summary["marker"] == 123.0

    def test_status_counts_store_coverage(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        runner = SweepRunner(workers=0, store=store)
        assert runner.status(SPEC).pending == len(SPEC.configs())
        runner.run(SPEC.configs()[:3])
        status = runner.status(SPEC)
        assert status.completed == 3
        assert status.total == len(SPEC.configs())
        assert "3/" in status.describe()

    def test_progress_callback_fires_per_resolved_config(self, tmp_path):
        lines = []
        SweepRunner(workers=0).run(SPEC.configs()[:2], progress=lines.append)
        assert len(lines) == 2
        assert all(line.startswith("resolved ") for line in lines)


class TestResolveConfig:
    def test_record_matches_direct_campaign(self):
        from repro.engine import Campaign
        from repro.sweeps.protocols import build_protocol
        from repro.workloads import WorkloadSuite

        config = SweepConfig(protocol="scenario-b", n=32, k=4, batch=6, seed=2, max_slots=20_000)
        record = resolve_config(config)
        protocol = build_protocol("scenario-b", 32, 4, seed=2)
        patterns = WorkloadSuite().generate("uniform", n=32, k=4, batch=6, seed=2)
        batch = Campaign(protocol, max_slots=20_000, seed=2).run(patterns)
        assert record.columns["latency"] == batch.latency.tolist()
        assert record.columns["solved"] == batch.solved.tolist()

    def test_workload_params_are_forwarded(self):
        config = SweepConfig(
            protocol="round-robin", n=32, k=4, workload="staggered",
            batch=3, max_slots=20_000, params={"gap": 5},
        )
        record = resolve_config(config)
        assert record.all_solved

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            resolve_config(SweepConfig(protocol="nope", n=8, k=2, batch=2))


class TestMapJobs:
    def test_serial_and_parallel_agree(self):
        jobs = list(range(7))
        serial = map_jobs(_square, jobs, workers=0)
        parallel = map_jobs(_square, jobs, workers=3)
        assert serial == parallel == [j * j for j in jobs]

    def test_on_result_sees_every_index(self):
        seen = {}
        map_jobs(_square, [1, 2, 3], workers=2, on_result=seen.__setitem__)
        assert seen == {0: 1, 1: 4, 2: 9}

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            map_jobs(_square, [1], workers=-1)


class TestWorkerPool:
    @pytest.mark.parametrize("processes", [0, 2])
    def test_one_pool_serves_many_maps_in_job_order(self, processes):
        with WorkerPool(processes) as pool:
            assert pool.map(_square, range(5)) == [0, 1, 4, 9, 16]
            assert pool.map(_square, [7]) == [49]
            assert pool.map(_square, []) == []

    def test_on_result_fires_once_per_job(self):
        seen = {}
        with WorkerPool(2) as pool:
            pool.map(_square, [1, 2, 3], on_result=seen.__setitem__)
        assert seen == {0: 1, 1: 4, 2: 9}

    def test_a_failing_job_raises_and_the_pool_stays_usable(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="odd"):
                pool.map(_even_only, [2, 3, 4])
            assert pool.map(_even_only, [2, 4]) == [2, 4]

    def test_a_closed_pool_refuses_jobs(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(_square, [1])

    def test_negative_processes_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            WorkerPool(-1)


def _even_only(x: int) -> int:
    if x % 2:
        raise ValueError(f"odd job {x}")
    return x


def _square(x: int) -> int:
    return x * x
