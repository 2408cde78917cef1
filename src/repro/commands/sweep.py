"""``repro sweep run|resume|status``: config-grid sweeps over a store.

``sweep worst-case`` has its own module, :mod:`repro.commands.worst_case`.
"""

from __future__ import annotations

import argparse
import sys

from repro.commands.common import tracing, usage_error
from repro.obs import core as obs
from repro.reporting.export import write_rows
from repro.reporting.tables import TextTable
from repro.sweeps.runner import SweepRunner
from repro.sweeps.spec import SweepSpec
from repro.sweeps.store import SweepStore

__all__ = ["run", "spec_from_args"]


def spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """The grid a command line names: its ``--spec`` file, or the axis flags."""
    if args.spec is not None:
        return SweepSpec.load(args.spec)
    return SweepSpec(
        protocols=tuple(args.protocols),
        n_values=tuple(args.n_values),
        k_values=None if args.k_values is None else tuple(args.k_values),
        workloads=tuple(args.workloads),
        seeds=tuple(args.seeds),
        batch=args.batch,
        max_slots=args.max_slots,
    )


def run(args: argparse.Namespace) -> int:
    try:
        spec = spec_from_args(args)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: invalid sweep spec: {exc}", file=sys.stderr)
        return 2
    if args.action in ("resume", "status") and args.store is None:
        print(f"error: `sweep {args.action}` requires --store", file=sys.stderr)
        return 2
    store = SweepStore(args.store) if args.store else None
    try:
        runner = SweepRunner(workers=args.workers, store=store)
        if args.action == "status":
            status = runner.status(spec)
            print(f"store  : {store.root}")
            print(f"configs: {status.describe()}")
            return 0
        with tracing(args.trace, argv=getattr(args, "raw_argv", None)):
            obs.annotate("sweep_spec", spec.as_dict())
            obs.annotate(
                "config_hashes", [config.config_hash() for config in spec.configs()]
            )
            result = runner.run(spec, progress=print)
    except (KeyError, TypeError, ValueError) as exc:
        # Unknown protocol/workload names, empty grids, invalid worker
        # counts and unreadable checkpoints are usage errors, not crashes:
        # print the message, exit like argparse.
        return usage_error(exc)
    table = TextTable(
        ["protocol", "n", "k", "workload", "seed", "solved", "mean latency", "max latency"]
    )
    for record in result.records:
        config = record.config
        summary = record.summary
        table.add_row(
            [
                config.protocol,
                config.n,
                config.k,
                config.workload,
                config.seed,
                f"{int(summary.get('solved', 0))}/{config.batch}",
                round(summary.get("mean_latency", float("nan")), 1),
                summary.get("max_latency", "-"),
            ]
        )
    print(table.render())
    print(f"{len(result)} configs ({result.reused} reused from store)")
    if args.export:
        print(f"wrote {write_rows(result.rows(), args.export)}")
    if not result.all_solved:
        unsolved = sum(1 for record in result.records if not record.all_solved)
        print(f"NOT SOLVED on {unsolved} of {len(result)} configs")
        return 1
    return 0
