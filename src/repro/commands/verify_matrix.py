"""``repro verify-matrix``: find a verified waking-matrix seed."""

from __future__ import annotations

import argparse

from repro.commands.common import usage_error
from repro.core.matrix_search import find_waking_matrix_seed

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    try:
        seed, report = find_waking_matrix_seed(
            args.n,
            c=args.c,
            max_attempts=args.attempts,
            budget_factor=args.budget_factor,
            rng=args.seed,
        )
    except ValueError as exc:
        return usage_error(exc)
    except RuntimeError as exc:
        print(str(exc))
        return 1
    print(report.describe())
    print(f"verified seed: {seed}")
    return 0
