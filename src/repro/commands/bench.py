"""``repro bench compare``: diff benchmark artifacts, fail on drift."""

from __future__ import annotations

import argparse
import json

from repro.commands.common import usage_error
from repro.obs.bench import compare_many, render_report

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    try:
        reports = compare_many(args.sources, tolerance=args.tolerance)
    except ValueError as exc:
        return usage_error(exc)
    regressed = any(not report.ok for report in reports)
    if args.json:
        print(json.dumps([report.as_dict() for report in reports], indent=2))
        return 1 if regressed else 0
    for index, report in enumerate(reports):
        if index:
            print()
        print(render_report(report))
    return 1 if regressed else 0
