"""``repro service start``: the results daemon over a store, until stopped."""

from __future__ import annotations

import argparse
import sys

from repro.commands.common import tracing
from repro.service.daemon import ResultsService, serve
from repro.sweeps.store import SweepStore

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    if not args.store:
        print("error: `service start` requires --store", file=sys.stderr)
        return 2
    store = SweepStore(args.store)
    try:
        service = ResultsService(store, workers=args.workers)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with tracing(args.trace, argv=getattr(args, "raw_argv", None)):
        try:
            with service:
                serve(
                    service,
                    host=args.host,
                    port=args.port,
                    announce=lambda endpoint: print(
                        f"service listening on {endpoint} (store {store.root})",
                        flush=True,
                    ),
                )
        except KeyboardInterrupt:
            pass
        except OSError as exc:
            print(
                f"error: cannot serve on {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 2
    status = service.status()
    print(
        f"service stopped after {status['requests']} request(s): "
        f"{status['hits']} hit(s), {status['misses']} miss(es)"
    )
    return 0
