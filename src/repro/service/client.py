"""Thin stdlib HTTP client for the results service.

:class:`ServiceClient` speaks the daemon's three endpoints (``/query``,
``/status``, ``/stop``) over one persistent HTTP/1.1 connection: one
``TCP_NODELAY`` :mod:`socket` and its buffered reader, with no new
dependencies.  A request leaves in one ``sendall`` (request line, ``Host``,
``Content-Type``, ``Content-Length`` and body); a response is read as a
status line, at most :data:`MAX_HEADERS` header lines of at most
:data:`MAX_LINE_BYTES` each, and exactly ``Content-Length`` body bytes.
That is all the daemon sends, so the client skips :mod:`http.client`, whose
header parse (:mod:`email`) and :mod:`ssl` import cost a shell query more
than the rest of its start-up.  A query costs one request on an open
socket, not a TCP handshake plus a server thread; a ``Connection: close``
answer closes the socket and the next request reconnects.
:meth:`ServiceClient.query_raw` returns the response body *bytes*
untouched, because the service contract is byte-level: the CLI prints
exactly what the daemon sent, so a warm and a cold query for the same config
hash compare equal with ``cmp``.

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

The module imports only the standard library and :mod:`repro.service.wire`:
it reads the blob file itself rather than through
:class:`~repro.sweeps.store.SweepStore`, whose record layer loads numpy, so
a client process pays for no engine code.
"""

from __future__ import annotations

import json
import socket
import threading
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Dict, Mapping, Optional, Tuple, Union

from repro.service.wire import ENDPOINT_BLOB, QueryError

if TYPE_CHECKING:
    from repro.sweeps.store import SweepStore

__all__ = ["MAX_HEADERS", "MAX_LINE_BYTES", "ServiceClient", "discover_endpoint"]

#: Longest status or header line a response may carry (``http.client``'s).
MAX_LINE_BYTES = 64 * 1024

#: Most header lines a response may carry (``http.client``'s).
MAX_HEADERS = 100


def discover_endpoint(store: Union[str, Path, "SweepStore"]) -> Optional[str]:
    """The endpoint URL a running daemon published into ``store``, if any.

    ``store`` is a :class:`~repro.sweeps.store.SweepStore` or its root
    directory.  A missing or unreadable blob means no daemon is known.
    """
    root = Path(getattr(store, "root", store))
    try:
        blob = json.loads((root / f"{ENDPOINT_BLOB}.json").read_text())
    except (OSError, ValueError):
        return None
    endpoint = blob.get("endpoint") if isinstance(blob, dict) else None
    return endpoint if isinstance(endpoint, str) else None


def _host_port(address: str) -> Tuple[str, int]:
    """``HOST[:PORT]`` split as a URL authority; no port means port 80."""
    host, port = address, 80
    colon = address.rfind(":")
    if colon > address.rfind("]"):  # not a colon inside an IPv6 literal
        host, digits = address[:colon], address[colon + 1 :]
        if digits:
            if not (digits.isascii() and digits.isdigit()) or int(digits) > 65535:
                raise ValueError(f"port must be a number up to 65535, got {digits!r}")
            port = int(digits)
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    return host, port


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
            if any(char <= " " or char == "\x7f" for char in address):
                raise ValueError("it contains a space or a control character")
            self._address = _host_port(address)
            host_bytes = self._address[0].encode("ascii")
        except ValueError as exc:  # UnicodeEncodeError included
            raise ValueError(f"invalid service endpoint {endpoint!r}: {exc}") from None
        if b":" in host_bytes:
            host_bytes = b"[" + host_bytes + b"]"
        if self._address[1] != 80:
            host_bytes += b":%d" % self._address[1]
        # Every request's headers after its request line and Content-Length.
        self._headers = (
            b"Host: %s\r\nContent-Type: application/json\r\n\r\n" % host_bytes
        )
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[BinaryIO] = None
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the connection; a later request reconnects."""
        with self._lock:
            self._disconnect()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _connect(self) -> None:
        sock = socket.create_connection(self._address, self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._reader = sock, sock.makefile("rb")

    def _disconnect(self) -> None:
        sock, reader = self._sock, self._reader
        self._sock = self._reader = None
        if reader is not None:
            reader.close()
        if sock is not None:
            sock.close()

    def _malformed(self, problem: str) -> ConnectionError:
        return ConnectionError(f"bad HTTP response from {self.endpoint}: {problem}")

    def _request(
        self, method: str, path: str, payload: Optional[Mapping[str, object]] = None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
        request = head.encode("ascii") + self._headers + body
        with self._lock:
            try:
                for attempt in (1, 2):
                    reused = self._sock is not None
                    try:
                        if not reused:
                            self._connect()
                        self._sock.sendall(request)
                        line = self._reader.readline(MAX_LINE_BYTES + 1)
                        if not line:
                            raise ConnectionResetError("closed without a response")
                        break
                    except ConnectionError:
                        # A reset, a broken pipe or an empty read before any
                        # status line: on a kept-alive socket that is the
                        # daemon having closed it while idle, so reconnect
                        # and resend once.
                        self._disconnect()
                        if not reused or attempt == 2:
                            raise
                return self._read_response(line)
            except BaseException:
                self._disconnect()
                raise

    def _read_response(self, line: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        """The status, body and headers of the response whose status line is read."""
        if len(line) > MAX_LINE_BYTES:
            raise self._malformed("status line too long")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not (
            version.startswith(b"HTTP/1.")
            and code.isdigit()
            and rest[3:4] in (b" ", b"\r", b"\n")
        ):
            raise self._malformed(f"status line {line!r}")
        headers: Dict[str, str] = {}
        framing: Dict[str, str] = {}
        reader = self._reader
        for count in range(MAX_HEADERS + 1):
            line = reader.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise self._malformed("header line too long")
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise self._malformed("connection closed inside the headers")
            if count == MAX_HEADERS:
                raise self._malformed(f"more than {MAX_HEADERS} headers")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise self._malformed(f"header line {line!r}")
            name, value = name.strip(), value.strip()
            headers.setdefault(name, value)
            folded = name.lower()
            if folded == "content-length" and framing.get(folded, value) != value:
                raise self._malformed("conflicting Content-Length headers")
            framing[folded] = value
        length = framing.get("content-length", "")
        if not (length.isascii() and length.isdigit()):
            raise self._malformed(f"Content-Length {length!r}")
        body = reader.read(int(length))
        if len(body) != int(length):
            raise self._malformed(f"body of {len(body)} bytes, not {length}")
        tokens = framing.get("connection", "").lower()
        kept_alive = "keep-alive" in tokens or version != b"HTTP/1.0"
        if "close" in tokens or not kept_alive:
            self._disconnect()
        return int(code), body, headers

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
