"""What the results daemon and its clients agree on, importable without numpy.

A response body is canonical JSON stamped with :data:`RESPONSE_SCHEMA`,
which :func:`parse_response` checks; a query the daemon refuses surfaces as
:class:`QueryError`; and a running daemon publishes its endpoint into its
store as the :data:`ENDPOINT_BLOB` blob, stamped with
:data:`ENDPOINT_SCHEMA`.  The client (:mod:`repro.service.client`) needs
nothing else, so a shell ``ServiceClient`` loads neither the engines nor
the store's record layer.
"""

from __future__ import annotations

import json
from typing import Dict

__all__ = [
    "ENDPOINT_BLOB",
    "ENDPOINT_SCHEMA",
    "RESPONSE_SCHEMA",
    "QueryError",
    "parse_response",
]

#: Store blob key under which a running daemon publishes its endpoint.
ENDPOINT_BLOB = "service/endpoint"

#: Version stamped into the endpoint blob.
ENDPOINT_SCHEMA = 1

#: Version stamped into every response body; :func:`parse_response` rejects
#: anything else, so a client never misreads a newer server's payload.
RESPONSE_SCHEMA = 1


class QueryError(ValueError):
    """A query could not be normalized into a valid measurement spec.

    Raised for malformed shapes (unknown fields, non-integer ``n``), unknown
    protocol or workload names, sizes over a ceiling (``n`` above
    :data:`~repro.service.api.MAX_QUERY_N`) and invalid combinations (``k > n``) — the errors
    the HTTP front door answers with a 400 instead of handing the worker
    pool a config that can only crash.
    """


def parse_response(text: str) -> Dict[str, object]:
    """Parse one response body back into its payload dict, schema-checked."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise QueryError(f"response is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise QueryError("response is not a JSON object")
    schema = payload.get("schema")
    if schema != RESPONSE_SCHEMA:
        raise QueryError(
            f"response schema {schema!r} is not supported "
            f"(this client reads schema {RESPONSE_SCHEMA})"
        )
    if "hash" not in payload or "record" not in payload:
        raise QueryError("response is missing its hash/record fields")
    return payload
