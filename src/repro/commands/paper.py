"""``repro paper``: the one-command E1–E11 campaign over a shared store."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.commands.common import tracing, usage_error
from repro.experiments.campaign import (
    MANIFEST_NAME,
    PaperCampaign,
    render_campaign_report,
)
from repro.experiments.config import SCALES
from repro.reporting.export import write_rows
from repro.reporting.tables import TextTable
from repro.sweeps.store import SweepStore

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    store = SweepStore(args.store) if args.store else None
    campaign = PaperCampaign(
        scale=SCALES[args.scale],
        store=store,
        workers=args.workers,
        experiments=args.experiments,
    )
    try:
        if args.action == "status":
            status = campaign.status()
            table = TextTable(["experiment", "specs", "unique", "stored"])
            for experiment_id, entry in status["experiments"].items():
                table.add_row(
                    [experiment_id, entry["specs"], entry["unique"], entry["stored"]]
                )
            print(table.render())
            where = f"store {store.root}" if store is not None else "no store"
            print(
                f"scale {status['scale']}: {status['stored']}/{status['specs_unique']} "
                f"unique specs stored ({status['specs_total']} planned, {where})"
            )
            return 0
        # Progress goes to stderr so `paper report > report.md` holds only
        # the report.
        with tracing(args.trace, argv=getattr(args, "raw_argv", None)):
            result = campaign.run(progress=lambda line: print(line, file=sys.stderr))
    except (KeyError, TypeError, ValueError) as exc:
        # Unknown experiment IDs, protocol/workload names and invalid worker
        # counts are usage errors, not crashes.
        return usage_error(exc)
    manifest = result.manifest
    if args.action == "report":
        report = render_campaign_report(result)
        if args.output:
            Path(args.output).write_text(report, encoding="utf-8")
            print(f"wrote {args.output}")
        else:
            print(report)
    else:
        table = TextTable(["experiment", "specs", "unique", "render s", "certificates"])
        for experiment_id, entry in manifest["experiments"].items():
            table.add_row(
                [
                    experiment_id,
                    entry["specs"],
                    entry["unique"],
                    round(entry["render_seconds"], 2),
                    "ok" if entry["certificates_hold"] else "FAILED",
                ]
            )
        print(table.render())
        print(
            f"{manifest['specs_unique']} unique specs ({manifest['specs_total']} planned, "
            f"{manifest['cross_experiment_duplicates']} cross-experiment duplicates); "
            f"store hits {manifest['store_hits']}, misses {manifest['store_misses']} "
            f"(hit rate {manifest['store_hit_rate']:.0%}); "
            f"resolve {manifest['resolve_seconds']:.2f}s, total {manifest['total_seconds']:.2f}s"
        )
        if store is not None:
            print(f"store: {store.root} (manifest: {store.root / MANIFEST_NAME})")
    if args.export:
        rows = [row for res in result.results.values() for row in res.rows]
        print(f"wrote {write_rows(rows, args.export)}")
    return 0 if result.all_certificates_hold else 1
