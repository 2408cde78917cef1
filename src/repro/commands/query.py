"""``repro service query``: one measurement from the daemon, or in-process.

With a reachable daemon (``--url``, or the endpoint its ``--store``
publishes) a query is one HTTP request, and the daemon normalizes it: a
malformed query comes back as a 400 carrying the same
:class:`~repro.service.wire.QueryError` message a local check would print.
So this module loads only the stdlib client, and a query the daemon answers
imports no numpy.  Two paths need the engines and import
:mod:`repro.commands.query_local` when they run: ``--experiment`` (its
cells come from the experiment registry) and the in-process fallback when
no daemon answers.  The body printed is byte-for-byte the same on either
path for the same config hash.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Mapping, Optional, Tuple

from repro.commands.common import usage_error
from repro.commands.service import connect
from repro.service.wire import QueryError

__all__ = ["run"]


def _parse_param_overrides(pairs: Optional[List[str]]) -> dict:
    """``--protocol-param KEY=VALUE`` pairs into a params mapping."""
    overrides = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--protocol-param expects KEY=VALUE, got {pair!r}")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        overrides[key] = value
    return overrides


def _query_of(args: argparse.Namespace) -> Dict[str, object]:
    """The one query mapping a command line without ``--experiment`` asks for."""
    return {
        "protocol": args.protocol,
        "n": args.n,
        "k": args.k,
        "workload": args.workload,
        "batch": args.batch,
        "seed": args.seed,
        "max_slots": args.max_slots,
        "protocol_params": _parse_param_overrides(args.protocol_param),
    }


def run(args: argparse.Namespace) -> int:
    try:
        endpoint, client = connect(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _query(args, endpoint, client)
    finally:
        if client is not None:
            client.close()


def _query(args: argparse.Namespace, endpoint, client) -> int:
    """Answer the queried config(s) through ``client``, else in-process.

    ``client`` is ``None`` when no daemon endpoint is known; the queries
    then resolve in-process against ``--store``.
    """
    if client is None and not args.store:
        print(
            "error: `service query` needs --url (a running daemon) or --store "
            "(in-process fallback)",
            file=sys.stderr,
        )
        return 2

    local = None

    def resolve_body(query: Mapping[str, object]) -> Tuple[str, str]:
        """One query -> (canonical body text, cache status)."""
        nonlocal client, local
        if client is not None:
            try:
                body, cache = client.query_raw(query)
                return body.decode("utf-8"), cache
            except OSError as exc:
                if args.url or not args.store:
                    raise
                print(
                    f"warning: service at {endpoint} unreachable ({exc}); "
                    "resolving in-process",
                    file=sys.stderr,
                )
                client = None
        if local is None:
            # The engines load here, and only when no daemon answers.
            from repro.commands.query_local import InProcess

            local = InProcess(args.store)
        return local.answer(query)

    try:
        if args.experiment:
            # The campaign cells come from the experiment registry.
            from repro.commands.query_local import print_cells

            return print_cells(args, resolve_body)
        body, _cache = resolve_body(_query_of(args))
        sys.stdout.write(body)
        return 0
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: no service reachable at {endpoint}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        return usage_error(exc)
