"""``repro adversary``: guided search, certificate replay, store report."""

from __future__ import annotations

import argparse
import sys

from repro.adversary.certificates import (
    CertificateSchemaError,
    read_certificates,
    replay_certificate,
    write_certificate,
)
from repro.adversary.search import SearchSpec, adversarial_search, checkpoint_summaries
from repro.commands.common import tracing, usage_error
from repro.reporting.tables import TextTable
from repro.sweeps.store import StoreSchemaError, SweepStore

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    try:
        if args.action == "replay":
            if not args.certificate:
                print("error: `adversary replay` requires --certificate", file=sys.stderr)
                return 2
            # A worst-case `.json` export is an array: replay every row.
            mismatches = 0
            for certificate in read_certificates(args.certificate):
                replayed = replay_certificate(certificate)
                print(f"recorded: {certificate.describe()}")
                print(f"replayed: {replayed.describe()}")
                if replayed != certificate:
                    print("REPLAY MISMATCH: the certificate does not reproduce")
                    mismatches += 1
                else:
                    print("replay OK: measured latency matches the certificate")
            return 1 if mismatches else 0
        if args.action == "report":
            if not args.store:
                print("error: `adversary report` requires --store", file=sys.stderr)
                return 2
            summaries = checkpoint_summaries(SweepStore(args.store))
            table = TextTable(
                ["protocol", "n", "k", "strategy", "evaluated", "best latency", "ratio"]
            )
            for entry in summaries:
                ratio = entry["bound_ratio"]
                table.add_row(
                    [
                        entry["protocol"],
                        entry["n"],
                        entry["k"],
                        entry["strategy"],
                        f"{entry['evaluated']}/{entry['budget']}",
                        entry["best_latency"],
                        "-" if ratio is None else round(float(ratio), 2),
                    ]
                )
            print(table.render())
            print(f"{len(summaries)} search(es) checkpointed in {args.store}")
            return 0
        spec = SearchSpec(
            protocol=args.protocol,
            n=args.n,
            k=args.k,
            strategy=args.strategy,
            budget=args.budget,
            population=args.population,
            seed=args.seed,
            window=args.window,
            max_slots=args.max_slots,
        )
        store = SweepStore(args.store) if args.store else None
        with tracing(args.trace, argv=getattr(args, "raw_argv", None)):
            result = adversarial_search(
                spec,
                store=store,
                progress=lambda step, evaluated, best: print(
                    f"step {step}: {evaluated}/{spec.budget} candidates, best latency {best}"
                ),
            )
    except (CertificateSchemaError, StoreSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        # Unknown protocol/strategy names and invalid (n, k, budget, ...)
        # combinations are usage errors, not crashes.
        return usage_error(exc)
    best = result.best
    print(f"best: {best.describe()}")
    print(
        "pattern: "
        + ", ".join(f"{u}@{t}" for u, t in sorted(best.wake_times.items()))
    )
    if args.certificate:
        print(f"wrote {write_certificate(best, args.certificate)}")
    if store is not None:
        print(f"checkpoint: {store.blob_path(f'adversary/{spec.config_hash()}')}")
    return 0
