"""``repro sweep worst-case``: the ``random`` adversarial search on every grid cell."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.adversary.search import SearchSpec, search_best
from repro.commands.common import tracing, usage_error
from repro.commands.sweep import spec_from_args
from repro.reporting.export import write_rows
from repro.reporting.tables import TextTable
from repro.sweeps.runner import map_jobs
from repro.sweeps.spec import SweepSpec, powers_of_two_up_to
from repro.sweeps.store import SweepStore

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    try:
        spec = spec_from_args(args)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: invalid sweep spec: {exc}", file=sys.stderr)
        return 2
    store = SweepStore(args.store) if args.store else None
    try:
        with tracing(args.trace, argv=getattr(args, "raw_argv", None)):
            return _worst_case(args, spec, store)
    except (KeyError, TypeError, ValueError) as exc:
        # Unknown protocol names, empty grids and invalid worker counts are
        # usage errors, not crashes.
        return usage_error(exc)


def _worst_case(
    args: argparse.Namespace, spec: SweepSpec, store: Optional[SweepStore]
) -> int:
    """The ``sweep worst-case`` action: the ``random`` search on every grid cell.

    One serial :func:`~repro.adversary.adversarial_search` per (protocol, n,
    k, seed) cell with ``k <= n``, spending ``--trials`` candidates; the
    cells run as whole jobs through :func:`~repro.sweeps.runner.map_jobs`
    at ``--workers``.  With a store every search checkpoints and resumes
    like ``adversary search``.
    """
    k_values = spec.k_values
    if k_values is None:
        k_values = powers_of_two_up_to(max(spec.n_values))
    searches = [
        SearchSpec(
            protocol=name,
            n=n,
            k=k,
            strategy="random",
            budget=args.trials,
            seed=seed,
            max_slots=spec.max_slots,
        )
        for name in spec.protocols
        for n in spec.n_values
        for k in k_values
        if k <= n
        for seed in spec.seeds
    ]
    if not searches:
        raise ValueError("worst-case grid is empty (every k exceeded its n)")
    best = map_jobs(
        search_best, [(search, store) for search in searches], workers=args.workers
    )
    table = TextTable(["protocol", "n", "k", "seed", "worst latency", "solved"])
    for cert in best:
        table.add_row([cert.protocol, cert.n, cert.k, cert.seed, cert.latency, cert.solved])
    print(table.render())
    if args.export:
        print(f"wrote {write_rows([cert.as_dict() for cert in best], args.export)}")
    if not all(cert.solved for cert in best):
        print(f"NOT SOLVED on some cells (horizon {spec.max_slots})")
        return 1
    return 0
