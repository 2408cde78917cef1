"""``repro service status|stop``: talk to a running daemon over HTTP.

``start`` and ``query`` have modules of their own
(:mod:`repro.commands.serve`, :mod:`repro.commands.query`); this one needs
only the stdlib client, so it loads no numpy.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Tuple

from repro.service.client import ServiceClient, discover_endpoint
from repro.service.wire import QueryError

__all__ = ["connect", "run"]


def connect(args: argparse.Namespace) -> Tuple[Optional[str], Optional[ServiceClient]]:
    """The daemon endpoint (``--url``, else discovered in ``--store``) and a client.

    Both are ``None`` when no endpoint is known; a malformed ``--url``
    raises ``ValueError``.
    """
    endpoint = args.url or (discover_endpoint(args.store) if args.store else None)
    return endpoint, ServiceClient(endpoint) if endpoint else None


def run(args: argparse.Namespace) -> int:
    try:
        endpoint, client = connect(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if client is None:
        print(
            "error: no service endpoint — pass --url or the --store of a "
            "running daemon",
            file=sys.stderr,
        )
        return 2
    with client:
        try:
            if args.action == "stop":
                client.stop()
                print(f"service at {endpoint} is stopping")
                return 0
            status = client.status()
        except (QueryError, OSError) as exc:
            print(f"error: no service reachable at {endpoint}: {exc}", file=sys.stderr)
            return 2
    print(f"endpoint : {endpoint}")
    fields = ("store", "records", "requests", "hits", "misses", "inflight", "workers")
    for field in fields:
        print(f"{field:<9}: {status.get(field)}")
    print(
        f"memo     : {status.get('memo_entries')} record(s), "
        f"{status.get('memo_bytes')} bytes"
    )
    print(f"uptime   : {status.get('uptime_s')}s (pid {status.get('pid')})")
    return 0
