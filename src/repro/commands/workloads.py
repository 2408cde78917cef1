"""``repro workloads``: list or sample the workload suite, or run a batch."""

from __future__ import annotations

import argparse

from repro.commands.common import usage_error
from repro.engine.campaign import Campaign
from repro.reporting.tables import TextTable
from repro.sweeps.protocols import build_protocol
from repro.workloads.suite import WorkloadSuite

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    try:
        return _run(args)
    except (KeyError, ValueError) as exc:
        # Unknown workload names and invalid (n, k, ...) combinations are
        # usage errors, not crashes: print the message, exit like argparse.
        return usage_error(exc)


def _run(args: argparse.Namespace) -> int:
    suite = WorkloadSuite()
    if args.action == "list":
        table = TextTable(["workload", "description"])
        for name in suite.names():
            table.add_row([name, suite.describe(name)])
        print(table.render())
        return 0
    if args.action == "sample":
        patterns = suite.generate(
            args.workload, n=args.n, k=args.k, batch=args.samples, seed=args.seed
        )
        for index, pattern in enumerate(patterns):
            print(f"[{index}] {pattern.describe()}")
            print("    " + ", ".join(f"{u}@{t}" for u, t in pattern))
        return 0
    protocol = build_protocol(args.protocol, args.n, args.k, seed=args.seed)
    patterns = suite.generate(
        args.workload, n=args.n, k=args.k, batch=args.batch, seed=args.seed
    )
    result = Campaign(protocol, max_slots=args.max_slots, seed=args.seed).run(patterns)
    print(f"protocol: {protocol.describe()}")
    print(
        f"workload: {args.workload} (n={args.n}, k={args.k}, batch={args.batch}, "
        f"seed={args.seed})"
    )
    for metric, value in result.summary().items():
        print(f"  {metric:>14s}: {value:g}")
    if not bool(result.solved.all()):
        unsolved = len(result) - result.solved_count
        print(f"NOT SOLVED on {unsolved} of {len(result)} patterns (horizon {args.max_slots})")
        return 1
    return 0
