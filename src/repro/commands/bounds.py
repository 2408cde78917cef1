"""``repro bounds``: the paper's bound formulas over a ``k`` sweep."""

from __future__ import annotations

import argparse
from typing import List

from repro.commands.common import usage_error
from repro.core.lower_bounds import bound_table
from repro.reporting.tables import TextTable

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    ks: List[int] = args.k if args.k else []
    if not ks:
        # Powers of two from k = 2; n = 1 admits only k = 1.
        k = 1 if args.n == 1 else 2
        while k <= args.n:
            ks.append(k)
            k *= 2
    try:
        rows = bound_table(args.n, ks)
    except ValueError as exc:
        return usage_error(exc)
    table = TextTable(
        ["k", "min{k,n-k+1}", "Clementi Ω(k log(n/k))", "Θ(k log(n/k)+1)", "k logn loglogn", "Ω(log k) rand.", "round-robin"]
    )
    for row in rows:
        table.add_row(
            [
                row.k,
                row.trivial,
                round(row.clementi, 1),
                round(row.scenario_ab, 1),
                round(row.scenario_c, 1),
                round(row.randomized_lower, 2),
                row.round_robin,
            ]
        )
    print(f"bounds for n = {args.n}")
    print(table.render())
    return 0
