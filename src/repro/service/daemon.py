"""The long-lived results service: a worker pool behind a thin HTTP door.

:class:`ResultsService` is the serving core, independent of any transport:
it owns the shared :class:`~repro.sweeps.store.SweepStore`, a long-lived
:class:`~repro.sweeps.runner.WorkerPool`, a bounded in-memory answer memo
and the request counters.  :meth:`ResultsService.resolve` answers one
normalized query memory first, then the store: a config in the memo is a
dict lookup, one only in the store is a store read (zero engine work either
way), and a miss is mapped on the pool, which resolves it through the exact
same unit of work the sweep layer uses
(:func:`repro.sweeps.runner.resolve_config`), and the record is written back
before the response returns.  :meth:`ResultsService.answer` adds the
response body, rendered once per config and kept beside its record in the
memo, so a warm hit re-reads, re-parses and re-renders nothing.  The pool
merges each miss's observability snapshot into the daemon's session, so its
counters do not depend on the worker count.  Identical concurrent misses
are *single flight*: the first request computes and fills the memo, the
rest await the same future and answer from the memo, so a thundering herd
on one cold config costs one engine resolve.

The memo maps config hash to ``(record, body)``, least recently used first
out, and holds at most :data:`MEMO_BUDGET_BYTES` of body bytes.  Records
are content-addressed and deterministic in their config alone, so a
memoized body never goes stale; a record deleted on disk is still served
from the memo until it is evicted or the daemon restarts.

Because the store is keyed by config content hash and every config resolves
from its own content alone, a service response is bit-for-bit identical to
the batch/campaign path for the same spec hash — warm or cold, at any
worker count (``tests/service`` holds the literal byte comparison).

:class:`ServiceServer` is the transport: a threading stdlib
``http.server`` bound to localhost, speaking JSON —

* ``POST /query`` — body is a query mapping (see
  :func:`repro.service.api.normalize_query`); answers the canonical
  response body with cache status in the ``X-Repro-Cache`` header
  (``hit``/``miss``), 400 for malformed queries, 500 for resolution
  failures (the daemon survives them);
* ``GET /status`` — live counters: requests, hits, misses, in-flight,
  stored records, memo entries and bytes, uptime;
* ``POST /stop`` — acknowledges (``Connection: close``), then shuts the
  server down.

Connections are persistent HTTP/1.1: one client keeps one socket (and one
server thread) for all its requests.  Each response leaves in one send
(status line, headers and body together) on a ``TCP_NODELAY`` socket; every
request's body is read in full before the answer, so nothing leaks into the
next request on the socket.  A body over :data:`MAX_BODY_BYTES` is refused
with 413 and a POST without a valid ``Content-Length`` with 400, both
closing the connection; a connection idle for :data:`IDLE_TIMEOUT_S` is
closed, and stopping the server closes every open one.

:func:`serve` ties both together for the CLI: it publishes the bound
endpoint as a store blob (``service/endpoint.json``) so ``repro service
query|status|stop`` can discover a running daemon from the store alone, and
removes the blob on shutdown.

Store sharing is safe by the store's concurrency contract (atomic
single-file writes, last-writer-wins; see :mod:`repro.sweeps.store`): the
daemon and an overlapping ``repro sweep run`` may write the same config
hash concurrently and readers always observe one intact record.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Set, Tuple

from repro.obs import core as obs
from repro.service.api import normalize_query, render_response
from repro.service.wire import ENDPOINT_BLOB, ENDPOINT_SCHEMA, QueryError
from repro.sweeps.runner import WorkerPool, resolve_config
from repro.sweeps.spec import SweepConfig
from repro.sweeps.store import ConfigRecord, StoreSchemaError, SweepStore

__all__ = [
    "ENDPOINT_BLOB",
    "ENDPOINT_SCHEMA",
    "IDLE_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "MEMO_BUDGET_BYTES",
    "ResultsService",
    "ServiceServer",
    "serve",
]

#: Largest request body the daemon reads; a query is a few hundred bytes.
MAX_BODY_BYTES = 64 * 1024

#: Seconds a kept-alive connection may sit idle before the daemon closes it
#: and frees its thread.
IDLE_TIMEOUT_S = 30.0

#: Response-body bytes the answer memo holds before it evicts the least
#: recently used entry.  Each entry also keeps its record, whose columns are
#: Python lists: a full memo costs about four times its body bytes in RSS
#: (25-28 MB at this budget, so under 32 MB).
MEMO_BUDGET_BYTES = 6 * 1024 * 1024


class ResultsService:
    """The serving core: memory-first, then store, resolution over a pool.

    Parameters
    ----------
    store:
        The shared :class:`~repro.sweeps.store.SweepStore` memoization tier.
    workers:
        Worker processes of the :class:`~repro.sweeps.runner.WorkerPool`
        that resolves cold queries.  ``0`` resolves misses inline in the
        serving thread (the CLI fallback path); results are bit-for-bit
        identical either way.
    """

    def __init__(self, store: SweepStore, *, workers: int = 2) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.store = store
        self.workers = workers
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self._pool = WorkerPool(workers)
        self._inflight: Dict[str, Future] = {}
        # config hash -> (record, body), least recently used first.
        self._memo: "OrderedDict[str, Tuple[ConfigRecord, bytes]]" = OrderedDict()
        self._memo_bytes = 0
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (waits for in-flight resolutions)."""
        self._pool.close()

    def __enter__(self) -> "ResultsService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- resolution ----------------------------------------------------------

    def resolve(self, config: SweepConfig) -> Tuple[ConfigRecord, bool]:
        """Answer one query: ``(record, cached)``.

        A warm hit never touches the engine: a config in the memo is a dict
        lookup, one only in the store is a store read that also fills the
        memo.  A miss is resolved on the worker pool, persisted, memoized,
        then returned.  Counters advance in the serving process only, so
        ``service.hits`` / ``service.misses`` totals are worker-count
        invariant, exactly like the sweep layer's ``store.*`` counters.
        """
        key = config.config_hash()
        t0 = time.perf_counter()
        with obs.span("service.request"):
            with self._lock:
                self.requests += 1
            record = self._cached(config, key)
            if record is not None:
                with self._lock:
                    self.hits += 1
                obs.add("service.requests")
                obs.add("service.hits")
                self._log_request(key, "hit", t0)
                return record, True
            with self._lock:
                self.misses += 1
            obs.add("service.requests")
            obs.add("service.misses")
            record = self._compute(config, key)
            self._log_request(key, "miss", t0)
            return record, False

    def answer(self, config: SweepConfig) -> Tuple[bytes, bool]:
        """Answer one query as its canonical response body: ``(body, cached)``.

        :meth:`resolve` fills the memo, so the body comes from memory; it is
        rendered here only when the entry was evicted in between (or alone
        outgrows the whole budget).
        """
        record, cached = self.resolve(config)
        key = config.config_hash()
        with self._lock:
            entry = self._memo.get(key)
        body = entry[1] if entry is not None else self._remember(key, record)
        return body, cached

    def _cached(
        self, config: SweepConfig, key: str, *, owner: bool = False
    ) -> Optional[ConfigRecord]:
        """The record from the memo, else from the store (memoized), else None.

        A store hit looks in the memo once more, and awaits the in-flight
        future of the config if there is one (``owner`` is the thread that
        holds it): an owner saves the record before it memoizes it, so a
        request that missed the memo can find the record on disk while the
        owner is still rendering it, and must not render it a second time.
        """
        entry = self._memo_entry(key)
        if entry is not None:
            return entry[0]
        record = self.store.load(config)
        if record is None:
            return None
        with self._lock:
            future = None if owner else self._inflight.get(key)
        if future is not None:
            return future.result()
        entry = self._memo_entry(key)
        if entry is not None:
            return entry[0]
        self._remember(key, record)
        return record

    def _memo_entry(self, key: str) -> Optional[Tuple[ConfigRecord, bytes]]:
        """The memo entry of ``key`` (now the most recently used), if any."""
        with self._lock:
            entry = self._memo.get(key)
            if entry is not None:
                self._memo.move_to_end(key)
        return entry

    def _remember(self, key: str, record: ConfigRecord) -> bytes:
        """Render ``record`` once and memoize it; evicts the least recently used."""
        body = render_response(record).encode("utf-8")
        budget = MEMO_BUDGET_BYTES
        with self._lock:
            previous = self._memo.pop(key, None)
            if previous is not None:
                self._memo_bytes -= len(previous[1])
            self._memo[key] = (record, body)
            self._memo_bytes += len(body)
            while self._memo_bytes > budget:
                _, (_, evicted) = self._memo.popitem(last=False)
                self._memo_bytes -= len(evicted)
        return body

    def _log_request(self, key: str, cache: str, t0: float) -> None:
        seconds = time.perf_counter() - t0
        obs.event("service.request", hash=key, cache=cache, dur_s=round(seconds, 6))

    def _compute(self, config: SweepConfig, key: str) -> ConfigRecord:
        """Resolve one miss, single-flight per config hash.

        The first thread to miss a hash registers a future for it and
        resolves the config on the worker pool; concurrent requests for the
        same hash await that future instead of resolving the config again.
        Only the owner writes the store and fills the memo, before it
        releases the waiters.  A new owner looks in the memo and the store
        once more first: a request that missed both just before the previous
        owner saved, but registers only after that owner deregistered, finds
        the record there instead of resolving the config again.
        """
        with self._lock:
            future = self._inflight.get(key)
            owner = future is None
            if owner:
                future = self._inflight[key] = Future()
        if not owner:
            return future.result()
        try:
            # `resolve_config` is looked up at call time, so a patched module
            # attribute applies.  Persist before deregistering: a request
            # landing between the two would otherwise miss the store *and*
            # the in-flight table and resolve the config a second time.
            record = self._cached(config, key, owner=True)
            if record is None:
                record = self._pool.map(resolve_config, [config])[0]
                self.store.save(record)
                self._remember(key, record)
            future.set_result(record)
            return record
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    # -- introspection -------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Live counters and identity of this service instance."""
        with self._lock:
            requests, hits, misses = self.requests, self.hits, self.misses
            inflight = len(self._inflight)
            memo_entries, memo_bytes = len(self._memo), self._memo_bytes
        return {
            "schema": 1,
            "requests": requests,
            "hits": hits,
            "misses": misses,
            "inflight": inflight,
            "workers": self.workers,
            "records": len(self.store),
            "memo_entries": memo_entries,
            "memo_bytes": memo_bytes,
            "store": str(self.store.root),
            "pid": os.getpid(),
            "uptime_s": round(time.perf_counter() - self._t0, 3),
        }


class _Handler(BaseHTTPRequestHandler):
    """JSON request handler over one :class:`ResultsService`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    @property
    def service(self) -> ResultsService:
        return self.server.service

    def log_message(self, *args) -> None:
        # The request log is the obs trace (`service.request` events), not
        # stderr noise interleaved with the CLI's own output.
        pass

    def _send(
        self, code: int, body: bytes, headers: Tuple = (), *, close: bool = False
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
        # One send per response: the buffered status line and headers leave
        # with the body (end_headers() and then a body write are two sends).
        # An HTTP/0.9 request buffers no head, and its answer is the body.
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        self.wfile.write(head + b"\r\n" + body if head else body)

    def _send_json(
        self, code: int, payload: Dict[str, object], *, close: bool = False
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(code, body, close=close)

    def _read_body(self) -> Optional[bytes]:
        """The request's whole body, or ``None`` once a refusal was sent.

        Every path reads exactly ``Content-Length`` bytes before answering,
        so a body never leaks into the next request on a kept-alive socket.
        A body that cannot be framed (a POST without a valid length, a
        chunked body) or is over :data:`MAX_BODY_BYTES` is not read: the
        refusal closes the connection instead.
        """
        lengths = self.headers.get_all("Content-Length", [])
        if "Transfer-Encoding" in self.headers or len(lengths) > 1:
            self._send_json(400, {"error": "unsupported body framing"}, close=True)
            return None
        if not lengths and self.command != "POST":
            return b""
        raw = lengths[0].strip() if lengths else ""
        if not (raw.isascii() and raw.isdigit()):
            error = f"Content-Length must be a non-negative integer, got {raw!r}"
            self._send_json(400, {"error": error}, close=True)
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            error = f"request body of {length} bytes is over {MAX_BODY_BYTES} bytes"
            self._send_json(413, {"error": error}, close=True)
            return None
        return self.rfile.read(length)

    def do_GET(self) -> None:
        if self._read_body() is None:
            return
        if self.path == "/status":
            self._send_json(200, self.service.status())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:
        body = self._read_body()
        if body is None:
            return
        if self.path == "/query":
            self._handle_query(body)
        elif self.path == "/stop":
            self._send_json(200, {"stopping": True}, close=True)
            # shutdown() blocks until serve_forever returns, so it must run
            # outside the handler thread that serve_forever is waiting on.
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _handle_query(self, body: bytes) -> None:
        try:
            query = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": f"request body is not JSON: {exc}"})
            return
        try:
            config = normalize_query(query)
        except QueryError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        try:
            body, cached = self.service.answer(config)
        except StoreSchemaError as exc:
            self._send_json(500, {"error": str(exc)})
            return
        except Exception as exc:  # a failed resolution must not kill the daemon
            self._send_json(500, {"error": f"resolution failed: {exc}"})
            return
        cache = "hit" if cached else "miss"
        self._send(200, body, headers=(("X-Repro-Cache", cache),))


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ResultsService`.

    Each connection gets one daemon thread for its whole kept-alive life.
    :meth:`server_close` also shuts every open connection down, so a stopped
    server answers nothing more on sockets its clients still hold.
    """

    daemon_threads = True

    def __init__(
        self, service: ResultsService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)


def serve(
    service: ResultsService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    announce: Optional[Callable[[str], None]] = None,
) -> None:
    """Serve ``service`` over HTTP until ``POST /stop`` (or interrupt).

    Publishes the bound endpoint as the store blob ``service/endpoint.json``
    (host-assigned port included, so ``--port 0`` works) and removes it on
    the way out, whatever ends the serve loop.  ``announce`` (if given)
    receives the endpoint URL once the socket is bound.
    """
    server = ServiceServer(service, host=host, port=port)
    service.store.save_blob(
        ENDPOINT_BLOB,
        {"schema": ENDPOINT_SCHEMA, "endpoint": server.endpoint, "pid": os.getpid()},
    )
    if announce is not None:
        announce(server.endpoint)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        with contextlib.suppress(OSError):
            service.store.blob_path(ENDPOINT_BLOB).unlink()
