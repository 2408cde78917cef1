"""The parts of ``repro service query`` that load the engines.

:mod:`repro.commands.query` imports this module only when one of them runs:
``--experiment`` (the campaign cells come from the experiment registry) and
the in-process fallback when no daemon answers.
"""

from __future__ import annotations

import argparse
from typing import Callable, Mapping, Tuple

from repro.experiments.config import SCALES
from repro.reporting.tables import TextTable
from repro.service.api import normalize_query
from repro.service.cells import experiment_queries
from repro.service.daemon import ResultsService
from repro.service.wire import parse_response
from repro.sweeps.store import SweepStore

__all__ = ["InProcess", "print_cells"]


def print_cells(
    args: argparse.Namespace,
    resolve_body: Callable[[Mapping[str, object]], Tuple[str, str]],
) -> int:
    """Query every cell of ``--experiment`` and print one summary table."""
    configs = experiment_queries(args.experiment, SCALES[args.scale], limit=args.limit)
    table = TextTable(
        ["hash", "protocol", "n", "k", "workload", "seed", "cache", "mean latency"]
    )
    hits = 0
    for config in configs:
        body, cache = resolve_body(config.as_dict())
        payload = parse_response(body)
        summary = payload["record"]["summary"]
        hits += cache == "hit"
        table.add_row(
            [
                payload["hash"],
                config.protocol,
                config.n,
                config.k,
                config.workload,
                config.seed,
                cache,
                round(summary.get("mean_latency", float("nan")), 1),
            ]
        )
    print(table.render())
    print(
        f"{len(configs)} cell(s) of {args.experiment.upper()}: "
        f"{hits} hit(s), {len(configs) - hits} miss(es)"
    )
    return 0


class InProcess:
    """Answers queries against a store in this process, as the daemon would."""

    def __init__(self, root: str) -> None:
        self.service = ResultsService(SweepStore(root), workers=0)

    def answer(self, query: Mapping[str, object]) -> Tuple[str, str]:
        """``(canonical body text, cache status)`` for one query mapping."""
        body, cached = self.service.answer(normalize_query(query))
        return body.decode("utf-8"), "hit" if cached else "miss"
