"""Tests for the results service's answer memo and its query ceilings.

A config the memo holds is answered with no store read and no render, byte
for byte as the batch path renders it.  The memo keeps serving a record
deleted on disk, evicts the least recently used entry to stay within its
byte budget, and hands single-flight waiters the owner's bytes.  Queries
over the size ceilings are refused with 400 before any worker sees them.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cli import main
from repro.experiments.config import FULL
from repro.experiments.registry import DEFINITIONS
from repro.service import api
from repro.service import daemon as daemon_module
from repro.service.client import ServiceClient
from repro.service.daemon import ResultsService, ServiceServer
from repro.sweeps.runner import resolve_config
from repro.sweeps.store import SweepStore

QUERY = {"protocol": "round-robin", "n": 32, "k": 4, "batch": 8, "max_slots": 10_000}
CONFIG = api.normalize_query(QUERY)


def _config(seed):
    return api.normalize_query({**QUERY, "seed": seed})


def _expected(config):
    """The canonical body of ``config``, resolved on the batch path."""
    return api.render_response(resolve_config(config)).encode("utf-8")


@pytest.fixture
def service(tmp_path):
    with ResultsService(SweepStore(tmp_path / "store"), workers=0) as svc:
        yield svc


@pytest.fixture
def served(service):
    """``service`` behind an in-thread server; yields a client."""
    server = ServiceServer(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        with ServiceClient(server.endpoint, timeout=30.0) as client:
            yield client
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a spy; returns the list of its calls."""
    calls = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestMemoHits:
    def test_memo_hit_reads_no_store_and_renders_nothing(self, service, monkeypatch):
        expected = _expected(CONFIG)
        assert service.answer(CONFIG) == (expected, False)

        def explode(*args, **kwargs):
            raise AssertionError("a memo hit reached the store or the renderer")

        monkeypatch.setattr(SweepStore, "load", explode)
        monkeypatch.setattr(daemon_module, "render_response", explode)
        assert service.answer(CONFIG) == (expected, True)
        record, cached = service.resolve(CONFIG)
        assert cached and record == resolve_config(CONFIG)
        assert (service.requests, service.hits, service.misses) == (3, 2, 1)

    def test_store_hit_renders_once_then_serves_from_memory(
        self, service, monkeypatch
    ):
        expected = _expected(CONFIG)
        service.answer(CONFIG)
        renders = _counting(monkeypatch, daemon_module, "render_response")
        loads = _counting(monkeypatch, SweepStore, "load")
        # A restarted daemon finds the record in the store, not in memory.
        with ResultsService(service.store, workers=0) as restarted:
            answers = [restarted.answer(CONFIG) for _ in range(3)]
        assert answers == [(expected, True)] * 3
        assert len(renders) == 1 and len(loads) == 1

    def test_hits_survive_the_record_file_being_deleted(self, service):
        body, _ = service.answer(CONFIG)
        service.store.path_for(CONFIG).unlink()
        assert service.answer(CONFIG) == (body, True)
        assert service.hits == 1
        assert service.answer(CONFIG) == (body, True)
        assert service.hits == 2
        assert CONFIG not in service.store

    def test_answer_bodies_match_at_zero_and_one_workers(self, tmp_path, service):
        with ResultsService(SweepStore(tmp_path / "pooled"), workers=1) as pooled:
            pooled_answers = [pooled.answer(CONFIG) for _ in range(2)]
        inline_answers = [service.answer(CONFIG) for _ in range(2)]
        expected = _expected(CONFIG)
        assert pooled_answers == inline_answers == [(expected, False), (expected, True)]

    def test_single_flight_waiters_receive_the_owner_bytes(
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
        renders = _counting(monkeypatch, daemon_module, "render_response")
        answers = []
        threads = [
            threading.Thread(target=lambda: answers.append(service.answer(CONFIG)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for _ in range(1000):
            if service.requests == 4:
                break
            threading.Event().wait(0.005)
        assert service.requests == 4
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert calls == [CONFIG.config_hash()]
        assert [body for body, _ in answers] == [_expected(CONFIG)] * 4
        # The owner rendered once; the waiters answered from the memo.
        assert len(renders) == 1
        assert service.status()["memo_entries"] == 1

    def test_an_owner_registering_after_the_previous_one_resolves_nothing(
        self, service, monkeypatch
    ):
        # A request that missed the memo and the store before the previous
        # owner saved, but registers only after that owner deregistered,
        # becomes a new owner; it must find the record, not resolve it again.
        calls = _counting(monkeypatch, daemon_module, "resolve_config")
        record, cached = service.resolve(CONFIG)
        assert not cached
        assert service._compute(CONFIG, CONFIG.config_hash()) == record
        assert len(calls) == 1
        # Evicted from the memo, the record is found in the store.
        monkeypatch.setattr(daemon_module, "MEMO_BUDGET_BYTES", 0)
        service._remember("other", record)
        assert service.status()["memo_entries"] == 0
        assert service._compute(CONFIG, CONFIG.config_hash()) == record
        assert len(calls) == 1


class TestMemoBudget:
    def test_oldest_entry_is_evicted_and_re_memoized_by_a_store_hit(
        self, service, monkeypatch
    ):
        first, second = _config(1), _config(2)
        bodies = [_expected(first), _expected(second)]
        budget = max(map(len, bodies)) * 3 // 2
        monkeypatch.setattr(daemon_module, "MEMO_BUDGET_BYTES", budget)
        service.answer(first)
        service.answer(second)
        status = service.status()
        assert (status["memo_entries"], status["memo_bytes"]) == (1, len(bodies[1]))

        loads = _counting(monkeypatch, SweepStore, "load")
        assert service.answer(first) == (bodies[0], True)
        assert len(loads) == 1, "an evicted entry is a store hit"
        assert service.answer(first) == (bodies[0], True)
        assert len(loads) == 1, "the store hit memoized it again"
        assert service.status()["memo_bytes"] == len(bodies[0])

    def test_a_hit_refreshes_recency(self, service, monkeypatch):
        a, b, c = _config(1), _config(2), _config(3)
        budget = max(len(_expected(x)) for x in (a, b, c)) * 5 // 2
        monkeypatch.setattr(daemon_module, "MEMO_BUDGET_BYTES", budget)
        for config in (a, b, a, c):
            service.answer(config)
        assert service.status()["memo_entries"] == 2
        loads = _counting(monkeypatch, SweepStore, "load")
        service.answer(a)
        service.answer(c)
        assert loads == []
        service.answer(b)
        assert [config for _, config in loads] == [b]

    def test_a_body_over_the_whole_budget_is_served_unmemoized(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(daemon_module, "MEMO_BUDGET_BYTES", 16)
        expected = _expected(CONFIG)
        assert service.answer(CONFIG) == (expected, False)
        assert service.answer(CONFIG) == (expected, True)
        status = service.status()
        assert (status["memo_entries"], status["memo_bytes"]) == (0, 0)

    def test_accounting_holds_under_thread_churn(self, service, monkeypatch):
        configs = [_config(seed) for seed in range(6)]
        expected = {config.config_hash(): _expected(config) for config in configs}
        budget = 3 * max(map(len, expected.values()))
        monkeypatch.setattr(daemon_module, "MEMO_BUDGET_BYTES", budget)
        for config in configs:
            service.answer(config)
        wrong = []

        def ask(offset):
            for i in range(60):
                config = configs[(offset + i) % len(configs)]
                if service.answer(config) != (expected[config.config_hash()], True):
                    wrong.append(config.config_hash())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(j,)) for j in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert service.hits == 8 * 60
        held = sum(len(body) for _, body in dict(service._memo).values())
        assert service.status()["memo_bytes"] == held <= budget


class TestStatus:
    def test_status_counts_memo_entries_and_bytes(self, service):
        assert service.status()["memo_entries"] == 0
        body, _ = service.answer(CONFIG)
        status = service.status()
        assert (status["memo_entries"], status["memo_bytes"]) == (1, len(body))

    def test_cli_status_prints_the_memo(self, served, capsys):
        body, _ = served.query_raw(QUERY)
        assert main(["service", "status", "--url", served.endpoint]) == 0
        out = capsys.readouterr().out
        assert f"memo     : 1 record(s), {len(body)} bytes\n" in out


class TestQueryCeilings:
    @pytest.mark.parametrize(
        "field, ceiling",
        [
            ("n", api.MAX_QUERY_N),
            ("batch", api.MAX_QUERY_BATCH),
            ("max_slots", api.MAX_QUERY_MAX_SLOTS),
        ],
    )
    def test_a_ceiling_admits_itself_and_refuses_one_more(self, field, ceiling):
        base = {"protocol": "round-robin", "n": 64, "k": 4}
        assert getattr(api.normalize_query({**base, field: ceiling}), field) == ceiling
        for over in (ceiling + 1, str(ceiling + 1)):
            with pytest.raises(api.QueryError, match="over the ceiling"):
                api.normalize_query({**base, field: over})

    def test_every_full_scale_campaign_spec_is_admitted(self):
        specs = [spec for d in DEFINITIONS.values() for spec in d.plan(FULL)]
        assert max(spec.n for spec in specs) <= api.MAX_QUERY_N
        for spec in specs:
            assert api.normalize_query(spec.as_dict()) == spec

    def test_sweep_shapes_are_admitted(self):
        query = {"protocol": "scenario-b", "n": 1024, "k": 64, "batch": 256}
        assert api.normalize_query(query).batch == 256

    def test_over_ceiling_query_gets_400_and_the_daemon_answers_on(self, served):
        status, body, _ = served._request("POST", "/query", {**QUERY, "n": 10**9})
        assert status == 400 and b"over the ceiling" in body
        with pytest.raises(api.QueryError, match="'max_slots' is 10"):
            served.query_raw({**QUERY, "max_slots": 10**12})
        assert served.query_raw(QUERY) == (_expected(CONFIG), "miss")
        assert served.status()["requests"] == 1

    def test_cli_refuses_an_over_ceiling_query(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["service", "query", "--store", store, "--n", "100000", "--k", "4"]
        assert main(args) == 2
        assert "over the ceiling" in capsys.readouterr().err
        assert len(SweepStore(store)) == 0
