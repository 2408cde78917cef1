"""``repro simulate``: one protocol against one wake-up pattern."""

from __future__ import annotations

import argparse

from repro.channel.adversary import (
    batched_pattern,
    simultaneous_pattern,
    staggered_pattern,
    uniform_random_pattern,
)
from repro.channel.protocols import DeterministicProtocol
from repro.channel.simulator import run_deterministic, run_randomized
from repro.commands.common import usage_error
from repro.reporting.figures import render_trace
from repro.sweeps.protocols import PROTOCOL_BUILDERS, build_protocol

__all__ = ["PATTERNS", "PROTOCOLS", "run"]


def _protocol_factory(name: str):
    return lambda args: build_protocol(name, args.n, args.k, seed=args.seed)


#: Protocol factories available to the ``simulate`` subcommand.
#: Derived from the sweep subsystem's builder registry, so a protocol name
#: means the same construction on the command line and in a sweep worker.
PROTOCOLS = {name: _protocol_factory(name) for name in PROTOCOL_BUILDERS}

#: Pattern factories available to the ``simulate`` subcommand.
PATTERNS = {
    "simultaneous": lambda args: simultaneous_pattern(args.n, args.k, rng=args.seed),
    "staggered": lambda args: staggered_pattern(args.n, args.k, gap=args.gap, rng=args.seed),
    "batched": lambda args: batched_pattern(args.n, args.k, batch_gap=args.gap, rng=args.seed),
    "uniform": lambda args: uniform_random_pattern(args.n, args.k, window=args.window, rng=args.seed),
}


def run(args: argparse.Namespace) -> int:
    try:
        protocol = PROTOCOLS[args.protocol](args)
        pattern = PATTERNS[args.pattern](args)
    except ValueError as exc:
        # Invalid (n, k, ...) combinations are usage errors, not crashes.
        return usage_error(exc)
    print(f"protocol: {protocol.describe()}")
    print(f"pattern : {pattern.describe()}")
    if isinstance(protocol, DeterministicProtocol):
        result = run_deterministic(
            protocol, pattern, max_slots=args.max_slots, record_trace=args.trace
        )
    else:
        result = run_randomized(
            protocol, pattern, rng=args.seed, max_slots=args.max_slots, record_trace=args.trace
        )
    if not result.solved:
        print(f"NOT SOLVED within {args.max_slots} slots")
        return 1
    print(
        f"success: station {result.winner} transmitted alone at slot {result.success_slot} "
        f"(latency {result.latency} slots after the first wake-up)"
    )
    if args.trace and result.trace is not None:
        print()
        print(render_trace(result.trace))
    return 0
