"""Thin stdlib HTTP client for the results service.

:class:`ServiceClient` speaks the daemon's three endpoints (``/query``,
``/status``, ``/stop``) over one persistent HTTP/1.1 connection
(:class:`http.client.HTTPConnection`, which sets ``TCP_NODELAY`` on connect)
— no new dependencies, symmetric with the server's stdlib ``http.server``.
A query costs one request on an open socket, not a TCP handshake plus a
server thread.  :meth:`ServiceClient.query_raw` returns the response body
*bytes* untouched, because the service contract is byte-level: the CLI
prints exactly what the daemon sent, so a warm and a cold query for the same
config hash compare equal with ``cmp``.

Failures stay typed: connection-level trouble (refused, reset, timed out, a
malformed response) raises :class:`OSError`, and a non-200 answer raises
:class:`~repro.service.api.QueryError`.  A kept-alive socket that the daemon
closed while it sat idle (idle timeout, daemon restart) is reconnected and
the request resent once, and only when the failure came before a response
status line; a query is a pure function of its config hash, so resending
it is safe.

:func:`discover_endpoint` reads the endpoint blob a running daemon publishes
into its store (see :func:`repro.service.daemon.serve`), which is how
``repro service query --store DIR`` finds the daemon without being told a
URL.  A stale blob (daemon killed without cleanup) surfaces as the usual
connection error; callers fall back to in-process resolution.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Dict, Mapping, Optional, Tuple

from repro.service.api import QueryError
from repro.service.daemon import ENDPOINT_BLOB
from repro.sweeps.store import StoreSchemaError, SweepStore

__all__ = ["ServiceClient", "discover_endpoint"]


def discover_endpoint(store: SweepStore) -> Optional[str]:
    """The endpoint URL a running daemon published into ``store``, if any."""
    try:
        blob = store.load_blob(ENDPOINT_BLOB)
    except StoreSchemaError:
        return None
    if blob is None:
        return None
    endpoint = blob.get("endpoint")
    return endpoint if isinstance(endpoint, str) else None


class ServiceClient:
    """One service endpoint, e.g. ``http://127.0.0.1:8791``, over one connection.

    The connection opens on the first request and is reused by every later
    one; requests from several threads are serialized on it.  Use the client
    as a context manager (or call :meth:`close`) to release the socket.
    """

    def __init__(self, endpoint: str, *, timeout: float = 300.0) -> None:
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        scheme, _, address = self.endpoint.partition("://")
        if scheme != "http" or not address or "/" in address:
            raise ValueError(
                f"service endpoint must look like http://HOST:PORT, got {endpoint!r}"
            )
        try:
            self._conn = http.client.HTTPConnection(address, timeout=timeout)
        except http.client.InvalidURL as exc:
            raise ValueError(f"invalid service endpoint {endpoint!r}: {exc}") from None
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the connection; a later request reconnects."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(
        self, method: str, path: str, payload: Optional[Mapping[str, object]] = None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        with self._lock:
            try:
                for attempt in (1, 2):
                    reused = self._conn.sock is not None
                    try:
                        self._conn.request(method, path, data, headers)
                        response = self._conn.getresponse()
                        break
                    except ConnectionError:
                        # A reset, a broken pipe or an empty read before any
                        # status line: on a kept-alive socket that is the
                        # daemon having closed it while idle, so reconnect
                        # and resend once.
                        self._conn.close()
                        if not reused or attempt == 2:
                            raise
                body = response.read()
            except http.client.HTTPException as exc:
                self._conn.close()
                if isinstance(exc, OSError):
                    raise
                raise ConnectionError(
                    f"bad HTTP response from {self.endpoint}: {exc!r}"
                ) from exc
            except BaseException:
                self._conn.close()
                raise
        return response.status, body, dict(response.headers)

    @staticmethod
    def _error_message(body: bytes) -> str:
        try:
            payload = json.loads(body.decode("utf-8"))
            return str(payload["error"])
        except (ValueError, KeyError, UnicodeDecodeError):
            return body.decode("utf-8", errors="replace").strip() or "unknown error"

    def query_raw(self, query: Mapping[str, object]) -> Tuple[bytes, str]:
        """POST one query; returns ``(body_bytes, cache)`` untouched.

        ``cache`` is the daemon's ``X-Repro-Cache`` header (``hit`` or
        ``miss``).  Non-200 answers raise :class:`QueryError` with the
        daemon's error message.
        """
        status, body, headers = self._request("POST", "/query", query)
        if status != 200:
            raise QueryError(self._error_message(body))
        return body, headers.get("X-Repro-Cache", "unknown")

    def _json(self, method: str, path: str) -> Dict[str, object]:
        status, body, _ = self._request(method, path)
        if status != 200:
            raise QueryError(self._error_message(body))
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise QueryError(f"{path} answered 200 with a non-JSON body") from None

    def status(self) -> Dict[str, object]:
        """GET the daemon's live counters."""
        return self._json("GET", "/status")

    def stop(self) -> Dict[str, object]:
        """POST /stop; the daemon acknowledges, then shuts down."""
        return self._json("POST", "/stop")
