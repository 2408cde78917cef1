"""Tests for repro.service.daemon: the serving core and the HTTP front door.

The acceptance contract under test: a warm query is answered with zero
engine recomputation (a pure store hit), responses are bit-for-bit identical
to the direct batch-path resolve of the same config hash at any worker
count, identical concurrent misses resolve once (single flight), and the
daemon publishes/retracts its endpoint blob and survives bad queries.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.service import api
from repro.service import daemon as daemon_module
from repro.service.client import ServiceClient, discover_endpoint
from repro.service.daemon import ENDPOINT_BLOB, ResultsService, ServiceServer, serve
from repro.sweeps.runner import resolve_config
from repro.sweeps.store import SweepStore

QUERY = {
    "protocol": "round-robin",
    "n": 32,
    "k": 4,
    "batch": 8,
    "max_slots": 10_000,
}
CONFIG = api.normalize_query(QUERY)


@pytest.fixture(autouse=True)
def _fresh_obs_session():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def service(tmp_path):
    with ResultsService(SweepStore(tmp_path / "store"), workers=0) as svc:
        yield svc


def _served(service):
    """Run ``serve`` in a thread; returns ``(thread, client)``."""
    ready = threading.Event()
    endpoints = []

    def announce(endpoint):
        endpoints.append(endpoint)
        ready.set()

    thread = threading.Thread(
        target=serve, args=(service,), kwargs={"announce": announce}, daemon=True
    )
    thread.start()
    assert ready.wait(timeout=10)
    return thread, ServiceClient(endpoints[0], timeout=30.0)


class TestResolutionCore:
    def test_cold_then_warm_hits_the_store(self, service):
        cold, cold_cached = service.resolve(CONFIG)
        warm, warm_cached = service.resolve(CONFIG)
        assert (cold_cached, warm_cached) == (False, True)
        assert (service.requests, service.hits, service.misses) == (2, 1, 1)
        assert warm == cold

    def test_warm_query_does_zero_engine_work(self, service, monkeypatch):
        service.resolve(CONFIG)

        def explode(*args, **kwargs):
            raise AssertionError("warm query reached the engine")

        monkeypatch.setattr(daemon_module, "resolve_config", explode)
        record, cached = service.resolve(CONFIG)
        assert cached and record == resolve_config(CONFIG)

    def test_response_matches_the_batch_path_bit_for_bit(self, service):
        record, _ = service.resolve(CONFIG)
        assert api.render_response(record) == api.render_response(
            resolve_config(CONFIG)
        )

    def test_miss_is_persisted_before_responding(self, service):
        service.resolve(CONFIG)
        assert service.store.load(CONFIG) == resolve_config(CONFIG)

    def test_worker_pool_resolves_identically(self, tmp_path, service):
        with ResultsService(SweepStore(tmp_path / "pooled"), workers=2) as pooled:
            pooled_record, _ = pooled.resolve(CONFIG)
        inline_record, _ = service.resolve(CONFIG)
        assert api.render_response(pooled_record) == api.render_response(
            inline_record
        )

    def test_negative_workers_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            ResultsService(SweepStore(tmp_path), workers=-1)

    def test_single_flight_resolves_concurrent_identical_misses_once(
        self, service, monkeypatch
    ):
        calls = []
        release = threading.Event()
        real = daemon_module.resolve_config

        def slow_resolve(config):
            calls.append(config.config_hash())
            assert release.wait(timeout=10)
            return real(config)

        monkeypatch.setattr(daemon_module, "resolve_config", slow_resolve)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(service.resolve(CONFIG)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        # All four requests are counted in before the engine is released.
        for _ in range(1000):
            if service.requests == 4:
                break
            threading.Event().wait(0.005)
        assert service.requests == 4
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert calls == [CONFIG.config_hash()]
        assert len(results) == 4
        assert all(record == results[0][0] for record, _ in results)

    def test_obs_counters_and_request_log(self, service, tmp_path):
        import json

        trace = tmp_path / "service-trace.jsonl"
        state = obs.enable(trace, argv=["test"])
        service.resolve(CONFIG)
        service.resolve(CONFIG)
        counters = state.snapshot()["counters"]
        assert counters["service.requests"] == 2
        assert counters["service.misses"] == 1
        assert counters["service.hits"] == 1
        obs.disable()
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        requests = [e for e in lines if e.get("type") == "service.request"]
        assert [e["cache"] for e in requests] == ["miss", "hit"]
        assert all(e["hash"] == CONFIG.config_hash() for e in requests)
        assert all(e["dur_s"] >= 0 for e in requests)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_traced_misses_count_the_same_at_any_worker_count(self, tmp_path, workers):
        import json

        trace = tmp_path / "service-trace.jsonl"
        obs.enable(trace, argv=["test"])
        with ResultsService(SweepStore(tmp_path / "store"), workers=workers) as pooled:
            for k in (2, 3, 4):
                pooled.resolve(api.normalize_query({**QUERY, "k": k}))
        manifest = obs.disable()
        # Every line is whole: the workers never write to the trace file.
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events[0]["type"] == "begin" and events[-1]["type"] == "manifest"
        assert sum(e["type"] == "job" for e in events) == 3
        # The workers' engine and campaign counters reach the manifest.
        assert manifest["counters"] == {
            "campaign.patterns": 24,
            "campaign.shards": 3,
            "engine.chunks": 3,
            "engine.patterns": 24,
            "engine.patterns_solved": 24,
            "engine.slots_scanned": 3072,
            "service.misses": 3,
            "service.requests": 3,
        }

    def test_concurrent_traced_inline_misses_keep_the_session(self, service, tmp_path):
        trace = tmp_path / "service-trace.jsonl"
        obs.enable(trace, argv=["test"])

        def ask(k):
            for seed in range(3):
                service.resolve(api.normalize_query({**QUERY, "k": k, "seed": seed}))

        threads = [threading.Thread(target=ask, args=(k,)) for k in (2, 3, 4, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        manifest = obs.disable()
        assert manifest["counters"]["service.misses"] == 12
        assert manifest["counters"]["campaign.shards"] == 12
        assert obs.manifest_path_for(trace).exists()

    def test_status_shape(self, service):
        service.resolve(CONFIG)
        status = service.status()
        assert status["schema"] == 1
        assert (status["requests"], status["hits"], status["misses"]) == (1, 0, 1)
        assert status["records"] == 1 and status["inflight"] == 0


class TestHttpFrontDoor:
    def test_lifecycle_warm_cold_status_stop(self, service):
        thread, client = _served(service)
        cold_body, cold_cache = client.query_raw(QUERY)
        warm_body, warm_cache = client.query_raw(QUERY)
        assert (cold_cache, warm_cache) == ("miss", "hit")
        assert warm_body == cold_body
        status = client.status()
        assert (status["hits"], status["misses"]) == (1, 1)
        assert client.stop() == {"stopping": True}
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_equivalent_queries_share_one_record(self, service):
        thread, client = _served(service)
        try:
            body_a, _ = client.query_raw(QUERY)
            shuffled = dict(reversed(list(QUERY.items())))
            stringly = {**shuffled, "n": "32", "k": "4", "protocol_params": {}}
            body_b, cache = client.query_raw(stringly)
            assert cache == "hit" and body_b == body_a
            assert len(service.store) == 1
        finally:
            client.stop()
            thread.join(timeout=10)

    def test_http_body_matches_the_batch_path_bit_for_bit(self, service):
        thread, client = _served(service)
        try:
            body, _ = client.query_raw(QUERY)
            expected = api.render_response(resolve_config(CONFIG))
            assert body.decode("utf-8") == expected
        finally:
            client.stop()
            thread.join(timeout=10)

    def test_malformed_queries_get_400_not_a_dead_daemon(self, service):
        thread, client = _served(service)
        try:
            with pytest.raises(api.QueryError, match="unknown protocol"):
                client.query_raw({**QUERY, "protocol": "nope"})
            with pytest.raises(api.QueryError, match="missing required"):
                client.query_raw({"protocol": "round-robin"})
            status, _, _ = client._request("POST", "/query")
            assert status == 400
            status, _, _ = client._request("GET", "/nope")
            assert status == 404
            # The daemon still answers after every rejection above.
            _, cache = client.query_raw(QUERY)
            assert cache == "miss"
        finally:
            client.stop()
            thread.join(timeout=10)

    def test_endpoint_blob_is_published_then_retracted(self, service):
        store = service.store
        assert discover_endpoint(store) is None
        thread, client = _served(service)
        assert discover_endpoint(store) == client.endpoint
        client.stop()
        thread.join(timeout=10)
        assert discover_endpoint(store) is None

    def test_server_endpoint_property(self, service):
        server = ServiceServer(service)
        try:
            assert server.endpoint.startswith("http://127.0.0.1:")
        finally:
            server.server_close()

    def test_endpoint_blob_key_is_stable(self, service):
        # The CLI and the smoke leg discover daemons through this key.
        assert ENDPOINT_BLOB == "service/endpoint"
