"""Tests for the results service's persistent connections.

One :class:`~repro.service.client.ServiceClient` keeps one HTTP/1.1
connection for all its requests; the daemon reads every request body in
full (or refuses it and closes), closes idle connections after its timeout,
and closes every open connection when it stops; the client reconnects once
when a kept-alive socket turns out to be closed, and keeps its failures
typed (:class:`OSError` or :class:`~repro.service.api.QueryError`).
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.service import api
from repro.service import daemon as daemon_module
from repro.service.client import ServiceClient
from repro.service.daemon import MAX_BODY_BYTES, ResultsService, ServiceServer
from repro.sweeps.runner import resolve_config
from repro.sweeps.store import SweepStore

QUERY = {"protocol": "round-robin", "n": 32, "k": 4, "batch": 8, "max_slots": 10_000}
OTHER = {**QUERY, "seed": 1}


class CountingServer(ServiceServer):
    """A :class:`ServiceServer` that counts the connections it accepts."""

    accepts = 0

    def get_request(self):
        request = super().get_request()
        self.accepts += 1
        return request


@pytest.fixture
def store(tmp_path):
    return SweepStore(tmp_path / "store")


def _start(store, port=0):
    server = CountingServer(ResultsService(store, workers=0), port=port)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def server(store):
    server, thread = _start(store)
    yield server
    _stop(server, thread)


def _expected(query) -> bytes:
    config = api.normalize_query(query)
    return api.render_response(resolve_config(config)).encode("utf-8")


def _wait_until(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _raw(server, request: bytes) -> bytes:
    """Send raw bytes on a fresh socket; everything the daemon sends back."""
    with socket.create_connection(server.server_address[:2], timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestOneConnection:
    def test_many_queries_open_one_connection(self, server):
        with ServiceClient(server.endpoint, timeout=30) as client:
            for _ in range(20):
                client.query_raw(QUERY)
            client.status()
        assert server.accepts == 1
        assert server.service.hits == 19 and server.service.misses == 1

    def test_close_releases_the_socket_and_a_later_request_reconnects(self, server):
        client = ServiceClient(server.endpoint, timeout=30)
        client.status()
        client.close()
        client.status()
        client.close()
        assert server.accepts == 2

    def test_every_kind_of_answer_on_one_connection(self, server):
        client = ServiceClient(server.endpoint, timeout=30)
        body, cache = client.query_raw(QUERY)
        assert (body, cache) == (_expected(QUERY), "miss")
        # A 404 whose body the daemon must read, or it would leak into the
        # next request on this socket.
        status, body, _ = client._request("POST", "/nope", {"pad": "x" * 5000})
        assert status == 404 and b"unknown path" in body
        body, cache = client.query_raw(QUERY)
        assert (body, cache) == (_expected(QUERY), "hit")
        with pytest.raises(api.QueryError, match="unknown protocol"):
            client.query_raw({**QUERY, "protocol": "nope"})
        status, body, _ = client._request("POST", "/query")
        assert status == 400 and b"not JSON" in body
        status, _, _ = client._request("GET", "/nope")
        assert status == 404
        assert client.status()["requests"] == 2
        body, cache = client.query_raw(OTHER)
        assert (body, cache) == (_expected(OTHER), "miss")
        assert server.accepts == 1
        # Over the ceiling: refused unread, and the connection closes.
        status, body, headers = client._request(
            "POST", "/query", {"protocol": "x" * MAX_BODY_BYTES}
        )
        assert status == 413 and headers.get("Connection") == "close"
        assert server.accepts == 1
        body, cache = client.query_raw(OTHER)
        assert (body, cache) == (_expected(OTHER), "hit")
        assert server.accepts == 2
        status = client.status()
        assert (status["hits"], status["misses"]) == (2, 2)
        client.close()

    def test_threads_sharing_one_client_take_turns_on_its_connection(self, server):
        client = ServiceClient(server.endpoint, timeout=30)
        expected = {json.dumps(q): _expected(q) for q in (QUERY, OTHER)}
        bodies = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda q=q: bodies.extend(
                        (json.dumps(q), client.query_raw(q)[0]) for _ in range(25)
                    )
                )
                for q in (QUERY, OTHER, QUERY, OTHER)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
            client.close()
        assert len(bodies) == 100
        assert all(body == expected[key] for key, body in bodies)
        assert server.accepts == 1

    def test_stop_answers_connection_close(self, store):
        server, thread = _start(store)
        client = ServiceClient(server.endpoint, timeout=30)
        status, body, headers = client._request("POST", "/stop")
        assert status == 200 and json.loads(body) == {"stopping": True}
        assert headers.get("Connection") == "close"
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()

    def test_cli_experiment_loop_uses_one_connection_and_closes_it(
        self, server, monkeypatch, capsys
    ):
        closed = []
        real_close = ServiceClient.close
        monkeypatch.setattr(
            ServiceClient, "close", lambda self: closed.append(real_close(self))
        )
        args = ["service", "query", "--url", server.endpoint, "--experiment", "E4"]
        assert main([*args, "--limit", "3"]) == 0
        assert "3 cell(s) of E4: 0 hit(s), 3 miss(es)" in capsys.readouterr().out
        assert server.accepts == 1 and len(closed) == 1
        _wait_until(lambda: not server._connections)


class TestBodyFraming:
    QUERY_BODY = json.dumps(QUERY).encode("utf-8")

    @pytest.mark.parametrize(
        "length_header",
        [b"", b"Content-Length: -1\r\n", b"Content-Length: abc\r\n"],
        ids=["missing", "negative", "non-integer"],
    )
    def test_post_without_a_valid_length_is_400_and_closes(self, server, length_header):
        reply = _raw(
            server,
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            + length_header
            + b"\r\n"
            + self.QUERY_BODY
            + b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert b"Content-Length" in json.loads(body)["error"].encode()
        # The connection closed after the refusal: nothing else was answered.
        assert reply.count(b"HTTP/1.1") == 1

    def test_over_the_ceiling_is_413_without_reading_the_body(self, server):
        length = MAX_BODY_BYTES + 1
        request = f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
        reply = _raw(server, request.encode())
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert str(MAX_BODY_BYTES) in json.loads(body)["error"]

    def test_chunked_body_is_refused_and_closes(self, server):
        reply = _raw(
            server,
            b"POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ") and reply.count(b"HTTP/1.1") == 1

    def test_get_with_a_body_does_not_leak_into_the_next_request(self, server):
        junk = b"GET /nope HTTP/1.1\r\n\r\n"
        reply = _raw(
            server,
            b"GET /status HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(junk)).encode()
            + b"\r\n\r\n"
            + junk
            + b"POST /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            + b"Content-Length: "
            + str(len(self.QUERY_BODY)).encode()
            + b"\r\n\r\n"
            + self.QUERY_BODY,
        )
        assert reply.count(b"HTTP/1.1 200 OK") == 2
        assert b"404" not in reply and reply.endswith(_expected(QUERY))

    def test_each_response_leaves_in_one_send(self, server, monkeypatch):
        writes = []
        real = daemon_module._Handler.setup

        def setup(handler):
            real(handler)
            inner = handler.wfile.write
            handler.wfile.write = lambda data: writes.append(data) or inner(data)

        monkeypatch.setattr(daemon_module._Handler, "setup", setup)
        client = ServiceClient(server.endpoint, timeout=30)
        body, _ = client.query_raw(QUERY)
        client.query_raw(QUERY)
        client.status()
        client.close()
        assert len(writes) == 3
        assert writes[0].startswith(b"HTTP/1.1 200 OK\r\n")
        assert writes[0].endswith(b"\r\n\r\n" + body)


class TestConnectionLifetime:
    def test_idle_connection_is_closed_after_the_timeout(self, server, monkeypatch):
        monkeypatch.setattr(daemon_module._Handler, "timeout", 0.2)
        client = ServiceClient(server.endpoint, timeout=30)
        client.query_raw(QUERY)
        with socket.create_connection(server.server_address[:2], timeout=10) as idle:
            t0 = time.monotonic()
            assert idle.recv(1) == b""  # the daemon hung up on its own
            assert time.monotonic() - t0 < 5
        # Both idle connections were freed; the client's next query
        # reconnects transparently.
        _wait_until(lambda: not server._connections)
        _, cache = client.query_raw(QUERY)
        assert cache == "hit" and server.accepts == 3
        client.close()

    def test_daemon_restart_between_two_queries(self, store):
        server, thread = _start(store)
        port = server.server_address[1]
        client = ServiceClient(server.endpoint, timeout=30)
        body, cache = client.query_raw(QUERY)
        assert cache == "miss"
        _stop(server, thread)
        restarted, thread = _start(store, port=port)
        try:
            again, cache = client.query_raw(QUERY)
            assert (again, cache) == (body, "hit")
            assert restarted.accepts == 1
        finally:
            client.close()
            _stop(restarted, thread)

    def test_stopped_daemon_closes_open_connections(self, store):
        server, thread = _start(store)
        client = ServiceClient(server.endpoint, timeout=30)
        client.status()
        _stop(server, thread)
        with pytest.raises(ConnectionRefusedError):
            client.status()


class _FakeDaemon:
    """A raw socket server answering each connection's requests with ``replies``.

    ``replies`` maps the connection number (1-based) to the list of raw
    replies it sends, one per request read; after them it closes.
    """

    OK = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n{}\n"

    def __init__(self, replies):
        self.replies = replies
        self.accepts = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.endpoint = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepts += 1
            with conn:
                for reply in self.replies.get(self.accepts, []):
                    conn.recv(65536)
                    conn.sendall(reply)

    def close(self):
        self.listener.close()


class TestTypedFailures:
    def test_unreachable_endpoint_is_an_oserror(self):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        with pytest.raises(OSError):
            ServiceClient(f"http://127.0.0.1:{port}", timeout=5).status()

    def test_malformed_response_is_a_connection_error(self):
        fake = _FakeDaemon({1: [b"HELLO\r\n"]})
        try:
            with pytest.raises(ConnectionError, match="bad HTTP response"):
                ServiceClient(fake.endpoint, timeout=5).status()
        finally:
            fake.close()

    def test_non_json_200_is_a_query_error(self, capsys):
        fake = _FakeDaemon({1: [b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nnope"]})
        try:
            assert main(["service", "status", "--url", fake.endpoint]) == 2
            assert "non-JSON" in capsys.readouterr().err
        finally:
            fake.close()

    def test_fresh_connection_is_not_retried(self):
        fake = _FakeDaemon({})
        try:
            with pytest.raises(ConnectionError):
                ServiceClient(fake.endpoint, timeout=5).status()
            assert fake.accepts == 1
        finally:
            fake.close()

    def test_kept_alive_connection_is_retried_once(self):
        fake = _FakeDaemon({1: [_FakeDaemon.OK], 3: [_FakeDaemon.OK]})
        client = ServiceClient(fake.endpoint, timeout=5)
        try:
            assert client.status() == {}
            _wait_until(lambda: fake.accepts == 1)
            time.sleep(0.05)  # let connection 1 close after its one reply
            # Connection 1 is gone: one resend on connection 2, which closes
            # at once too, and the error surfaces instead of a third try.
            with pytest.raises(ConnectionError):
                client.status()
            assert fake.accepts == 2
            assert client.status() == {}
            assert fake.accepts == 3
        finally:
            client.close()
            fake.close()

    @pytest.mark.parametrize(
        "endpoint", ["https://127.0.0.1:1", "127.0.0.1:1", "http://127.0.0.1:x"]
    )
    def test_bad_endpoint_is_a_value_error(self, endpoint, capsys):
        with pytest.raises(ValueError, match="endpoint"):
            ServiceClient(endpoint)
        assert main(["service", "status", "--url", endpoint]) == 2
        assert "endpoint" in capsys.readouterr().err


class _HoldingFakeDaemon(_FakeDaemon):
    """A :class:`_FakeDaemon` that keeps each connection open after its replies.

    Each connection is served on its own thread and stays open, silent,
    until :meth:`close`; so a client that does not reconnect on its own
    waits for an answer that never comes.
    """

    def __init__(self, replies):
        self.released = threading.Event()
        super().__init__(replies)

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepts += 1
            replies = self.replies.get(self.accepts, [])
            threading.Thread(
                target=self._answer, args=(conn, replies), daemon=True
            ).start()

    def _answer(self, conn, replies):
        with conn:
            for reply in replies:
                conn.recv(65536)
                conn.sendall(reply)
            self.released.wait(timeout=30)

    def close(self):
        self.released.set()
        super().close()


def _headers(count: int) -> bytes:
    """A 200 reply carrying ``count`` header lines, Content-Length included."""
    extra = b"".join(b"X-Pad-%d: %d\r\n" % (i, i) for i in range(count - 1))
    return b"HTTP/1.1 200 OK\r\n" + extra + b"Content-Length: 3\r\n\r\n{}\n"


class TestResponseFraming:
    """The client reads a status line, bounded headers and exactly its body."""

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 30\r\n\r\n{}\n",
            b"HTTP/1.1 200 OK\r\nX-Pad: "
            + b"x" * 70_000
            + b"\r\nContent-Length: 3\r\n\r\n{}\n",
            _headers(101),
        ],
        ids=[
            "no-content-length",
            "truncated-body",
            "header-line-over-64KiB",
            "over-100-headers",
        ],
    )
    def test_malformed_reply_is_a_connection_error(self, reply):
        fake = _FakeDaemon({1: [reply]})
        try:
            with pytest.raises(ConnectionError, match="bad HTTP response"):
                ServiceClient(fake.endpoint, timeout=5).status()
            assert fake.accepts == 1
        finally:
            fake.close()

    def test_one_hundred_headers_are_read(self):
        fake = _FakeDaemon({1: [_headers(100)]})
        try:
            status, body, headers = ServiceClient(fake.endpoint, timeout=5)._request(
                "GET", "/status"
            )
            assert (status, body, len(headers)) == (200, b"{}\n", 100)
        finally:
            fake.close()

    def test_connection_close_reply_makes_the_next_request_reconnect(self):
        closing = _FakeDaemon.OK.replace(b"\r\n", b"\r\nConnection: close\r\n", 1)
        fake = _HoldingFakeDaemon({1: [closing], 2: [_FakeDaemon.OK]})
        client = ServiceClient(fake.endpoint, timeout=5)
        try:
            # Connection 1 stays open after its reply: only a client that
            # honours `Connection: close` gets the second answer.
            assert client.status() == {}
            assert client.status() == {}
            assert fake.accepts == 2
        finally:
            client.close()
            fake.close()

    def test_a_silent_server_hits_the_timeout(self):
        fake = _HoldingFakeDaemon({})
        try:
            t0 = time.monotonic()
            with pytest.raises(OSError) as caught:
                ServiceClient(fake.endpoint, timeout=0.2).status()
            assert isinstance(caught.value, TimeoutError)
            assert time.monotonic() - t0 < 5
            assert fake.accepts == 1
        finally:
            fake.close()

    @pytest.mark.parametrize(
        "endpoint",
        [
            "http://127.0.0.1:65536",
            "http://127.0.0.1:+80",
            "http://local host:80",
            "http://bücher.example:80",
        ],
    )
    def test_a_malformed_authority_is_a_value_error(self, endpoint):
        with pytest.raises(ValueError, match="invalid service endpoint"):
            ServiceClient(endpoint)

    def test_ipv6_and_default_port_endpoints_are_split(self):
        assert ServiceClient("http://[::1]:8791")._address == ("::1", 8791)
        assert ServiceClient("http://localhost")._address == ("localhost", 80)
        assert ServiceClient("http://localhost:")._address == ("localhost", 80)
