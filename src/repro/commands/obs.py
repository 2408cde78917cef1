"""``repro obs report``: summarize one JSONL trace."""

from __future__ import annotations

import argparse
import sys

from repro.obs.report import render_summary, summarize_trace

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    try:
        summary = summarize_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    print(render_summary(summary, top=args.top))
    return 0
