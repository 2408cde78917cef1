"""Command-line interface for the repro library.

Eleven subcommands cover the workflows a user needs without writing Python:

``simulate``
    Build one protocol, one wake-up pattern, run the simulation and print the
    outcome (optionally with the per-slot timeline).

``bounds``
    Print the paper's bound formulas evaluated over a ``k`` sweep for a given
    ``n`` — the quick way to see which regime a deployment sits in.

``experiment``
    Run one experiment from the E1–E11 registry (see
    :data:`repro.experiments.registry.DEFINITIONS`) at a chosen scale and
    print its summary (tables, figures and certificates).

``paper``
    One-command paper campaign (:mod:`repro.experiments.campaign`): ``run``
    plans all of E1–E11, deduplicates the measurement specs across
    experiments, resolves them process-parallel against one resumable
    :class:`~repro.sweeps.store.SweepStore` and prints the campaign manifest
    (spec counts, store hit-rate, per-experiment timings); ``status`` shows
    how much of the campaign the store already covers; ``report`` renders
    the full figure/table set of every experiment from the (warm) store.
    An interrupted ``run`` resumes where it stopped — a second ``run`` over
    a complete store recomputes nothing.

``verify-matrix``
    Search for / verify a waking-matrix seed for a given ``n`` (the
    construct–verify–retry loop of :mod:`repro.core.matrix_search`).

``workloads``
    Browse the workload suite (:mod:`repro.workloads`) and push batches of
    its patterns through the batch engine (:mod:`repro.engine`):
    ``list`` the registered scenario generators, ``sample`` a few concrete
    patterns, or ``run`` a whole batch against a protocol and print latency
    summary statistics.

``sweep``
    Orchestrate whole config grids through :mod:`repro.sweeps`: ``run`` a
    grid (from a JSON spec file or inline axis flags) across worker
    processes, ``resume`` an interrupted run from its on-disk store, print
    the ``status`` of a store against a spec, or run ``worst-case``: the
    ``random`` strategy of the adversarial search (:mod:`repro.adversary`)
    on every (protocol, n, k, seed) cell, one whole search per worker job.
    Results are bit-for-bit identical for any worker count.  ``--trace
    PATH`` records a structured JSONL trace of the run through
    :mod:`repro.obs`.

``adversary``
    Guided adversarial search (:mod:`repro.adversary`): ``search`` hunts the
    wake-pattern space for a bad input with a chosen strategy
    (``random``/``anneal``/``evolution``/``bandit``) under a fixed candidate
    budget, prints the best finding and optionally exports it as a replayable
    certificate; ``replay`` re-measures a certificate (or every row of a
    ``sweep worst-case --export`` JSON array) standalone and fails when a
    recorded latency does not reproduce; ``report`` summarizes the
    searches checkpointed in a store.  A search runs in one process; with
    ``--store``, an interrupted search resumes at its last completed step
    with a bit-for-bit identical result.

``service``
    The long-lived results service (:mod:`repro.service`): ``start`` runs a
    worker-pool daemon over a shared :class:`~repro.sweeps.store.SweepStore`
    behind a stdlib-HTTP front door; ``query`` asks it for one measurement
    (protocol + n/k/workload/seed/scale knobs, or any E1–E11 campaign cell
    via ``--experiment``) and prints the canonical response body — warm
    hits are pure store lookups, misses are computed once and cached.
    Without a reachable daemon, ``query`` falls back to in-process
    resolution against the same store; either path is byte-for-byte
    identical for the same config hash.  ``status`` prints the daemon's
    live counters; ``stop`` shuts it down.

``bench``
    Benchmark-trajectory analytics (:mod:`repro.obs.bench`): ``compare`` two
    or more ``BENCH_results.json`` artifacts — file paths or git revisions
    (``REV`` or ``REV:PATH``) — and fail when a curated throughput metric
    drifted beyond ``--tolerance``, even if it still clears the hard CI
    gates.  ``--json`` emits the comparison machine-readable instead of the
    text report (exit codes unchanged).

``obs``
    Trace analytics (:mod:`repro.obs.report`): ``report`` summarizes a JSONL
    trace recorded with ``--trace`` or ``REPRO_OBS`` — top spans by
    cumulative time, counter/gauge totals, sweep configs/sec.

Examples
--------
.. code-block:: bash

    python -m repro simulate --protocol scenario-b --n 128 --k 8 --pattern staggered
    python -m repro bounds --n 1024
    python -m repro experiment E3 --scale quick
    python -m repro paper run --scale quick --store paper-store --workers 4
    python -m repro paper status --scale quick --store paper-store
    python -m repro paper report --scale quick --store paper-store --output PAPER_REPORT.md
    python -m repro verify-matrix --n 64 --attempts 4
    python -m repro workloads list
    python -m repro workloads sample --workload heavy-tailed --n 64 --k 8
    python -m repro workloads run --workload churn --protocol scenario-b \\
        --n 256 --k 16 --batch 256
    python -m repro sweep run --protocols scenario-b scenario-c --n-values 256 512 \\
        --k-values 8 16 --store sweep-store --workers 4
    python -m repro sweep run --n-values 128 --workers 4 --trace sweep-trace.jsonl
    python -m repro sweep status --spec grid.json --store sweep-store
    python -m repro adversary search --protocol scenario-b --n 256 --k 16 \\
        --strategy anneal --budget 2048 --store adversary-store --certificate worst.json
    python -m repro adversary replay --certificate worst.json
    python -m repro adversary report --store adversary-store
    python -m repro service start --store service-store --port 8791 --workers 4
    python -m repro service query --store service-store --protocol scenario-b \\
        --n 256 --k 16
    python -m repro service query --store service-store --experiment E4 --limit 2
    python -m repro service status --store service-store
    python -m repro service stop --store service-store
    python -m repro bench compare BENCH_baseline.json BENCH_results.json --tolerance 0.25
    python -m repro obs report sweep-trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from repro import obs
from repro.channel.adversary import (
    batched_pattern,
    simultaneous_pattern,
    staggered_pattern,
    uniform_random_pattern,
)
from repro.channel.simulator import run_deterministic, run_randomized
from repro.channel.protocols import DeterministicProtocol
from repro.core.lower_bounds import bound_table
from repro.engine import Campaign
from repro.core.matrix_search import find_waking_matrix_seed
from repro.experiments.campaign import (
    MANIFEST_NAME,
    PaperCampaign,
    render_campaign_report,
)
from repro.experiments.config import FULL, QUICK, STANDARD
from repro.experiments.registry import DEFINITIONS, run_experiment
from repro.reporting.figures import render_trace
from repro.reporting.tables import TextTable
from repro.adversary.strategies import strategy_names
from repro.sweeps import SweepRunner, SweepSpec, SweepStore, map_jobs
from repro.sweeps.protocols import PROTOCOL_BUILDERS, build_protocol
from repro.workloads import WorkloadSuite

__all__ = ["main", "build_parser"]

_SCALES = {"quick": QUICK, "standard": STANDARD, "full": FULL}


def _protocol_factory(name: str):
    return lambda args: build_protocol(name, args.n, args.k, seed=args.seed)


#: Protocol factories available to the ``simulate``/``workloads`` subcommands.
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


#: ``repro --help`` epilog: one line per subcommand, kept in sync with the
#: subparsers below (tests/test_docs_consistency.py asserts the sync).
_EPILOG = """\
subcommands:
  simulate       run one protocol against one wake-up pattern
  bounds         print the paper's bound formulas over a k sweep
  experiment     run one experiment from the E1-E11 registry
  paper          run/resume the whole E1-E11 campaign against a shared store
  verify-matrix  find a verified waking-matrix seed
  workloads      list/sample the workload suite or run a batch
  sweep          run, resume or inspect a config-grid sweep (supports --trace)
  adversary      guided adversarial search with replayable certificates
  service        start/query/stop the long-lived results daemon over a store
  bench          compare BENCH_results.json artifacts across runs/revisions
  obs            summarize a JSONL trace (top spans, counters, configs/sec)
"""


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contention resolution on a non-synchronized multiple access channel "
        "(De Marco & Kowalski, IPDPS 2013) — reproduction toolkit.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sim = subparsers.add_parser("simulate", help="run one protocol against one wake-up pattern")
    sim.add_argument("--protocol", choices=sorted(PROTOCOLS), default="scenario-b")
    sim.add_argument("--pattern", choices=sorted(PATTERNS), default="staggered")
    sim.add_argument("--n", type=int, default=128, help="number of attached stations")
    sim.add_argument("--k", type=int, default=8, help="number of awakened stations")
    sim.add_argument("--gap", type=int, default=1, help="gap used by staggered/batched patterns")
    sim.add_argument("--window", type=int, default=64, help="window used by the uniform pattern")
    sim.add_argument("--seed", type=int, default=0, help="seed for protocol and pattern")
    sim.add_argument("--max-slots", type=int, default=1_000_000)
    sim.add_argument("--trace", action="store_true", help="print the per-slot timeline")

    bounds = subparsers.add_parser("bounds", help="print the paper's bounds for a k sweep")
    bounds.add_argument("--n", type=int, default=1024)
    bounds.add_argument(
        "--k", type=int, nargs="*", default=None, help="k values (default: powers of two up to n)"
    )

    exp = subparsers.add_parser("experiment", help="run one experiment from the registry")
    exp.add_argument("experiment_id", choices=sorted(DEFINITIONS), metavar="EXPERIMENT")
    exp.add_argument("--scale", choices=sorted(_SCALES), default="quick")

    paper = subparsers.add_parser(
        "paper",
        help="run, inspect or report the whole E1-E11 paper campaign",
        description="Plan all of E1-E11 as content-hashable measurement specs, "
        "deduplicate them across experiments, resolve the pending ones "
        "process-parallel and memoize every outcome in one resumable result "
        "store. `run` prints the campaign manifest, `status` shows store "
        "coverage without running anything, `report` renders the full "
        "figure/table set (cheap once the store is warm). Examples: `repro "
        "paper run --scale quick --store paper-store --workers 4`; `repro "
        "paper report --scale quick --store paper-store --output REPORT.md`.",
    )
    paper.add_argument("action", choices=("run", "status", "report"))
    paper.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    paper.add_argument(
        "--store", default="paper-store",
        help="result-store directory shared by every experiment (default "
        "paper-store); pass an empty string for an ephemeral in-memory run",
    )
    paper.add_argument(
        "--experiments", nargs="+", default=None, metavar="EXPERIMENT",
        help="subset of experiment IDs (default: all of E1-E11)",
    )
    paper.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for spec resolution (default: the scale's "
        "worker count; results are identical for any value)",
    )
    paper.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the rendered report to PATH instead of stdout (report action)",
    )
    paper.add_argument(
        "--export", default=None, metavar="PATH",
        help="write every experiment's raw rows to PATH (.csv or .json)",
    )
    paper.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a JSONL observability trace of the campaign to PATH "
        "(plus PATH.manifest.json); see `repro obs report`",
    )

    verify = subparsers.add_parser("verify-matrix", help="find a verified waking-matrix seed")
    verify.add_argument("--n", type=int, default=64)
    verify.add_argument("--c", type=int, default=2)
    verify.add_argument("--attempts", type=int, default=4)
    verify.add_argument("--budget-factor", type=float, default=16.0)
    verify.add_argument("--seed", type=int, default=0, help="seed of the search itself")

    wl = subparsers.add_parser(
        "workloads",
        help="list the workload suite, sample patterns, or run a batch",
        description="Browse repro.workloads and push batches through the batch "
        "engine. Examples: `repro workloads list`; `repro workloads sample "
        "--workload heavy-tailed --n 64 --k 8`; `repro workloads run "
        "--workload churn --protocol scenario-b --n 256 --k 16 --batch 256`.",
    )
    wl.add_argument("action", choices=("list", "sample", "run"))
    wl.add_argument("--workload", default="uniform", help="workload name (see `workloads list`)")
    wl.add_argument("--protocol", choices=sorted(PROTOCOLS), default="scenario-b")
    wl.add_argument("--n", type=int, default=128, help="number of attached stations")
    wl.add_argument("--k", type=int, default=8, help="contender budget of the workload")
    wl.add_argument("--batch", type=int, default=256, help="patterns per batch")
    wl.add_argument("--samples", type=int, default=3, help="patterns printed by `sample`")
    wl.add_argument("--seed", type=int, default=0, help="base seed (batches are reproducible)")
    wl.add_argument("--max-slots", type=int, default=1_000_000)

    sweep = subparsers.add_parser(
        "sweep",
        help="run, resume or inspect a process-parallel config-grid sweep",
        description="Shard a (protocol x n x k x workload x seed) config grid "
        "across worker processes via repro.sweeps. The grid comes from a JSON "
        "spec file (--spec) or from the inline axis flags; with --store, "
        "finished configs are persisted one JSON record each, so `run` is "
        "interruptible and `resume` (or a second `run`) picks up the "
        "remainder. Results are bit-for-bit identical for any worker count. "
        "Examples: `repro sweep run --protocols scenario-b --n-values 256 "
        "--k-values 8 16 --store sweep-store --workers 4`; `repro sweep "
        "status --spec grid.json --store sweep-store`.",
    )
    sweep.add_argument("action", choices=("run", "resume", "status", "worst-case"))
    sweep.add_argument("--spec", default=None, help="JSON sweep-spec file (overrides axis flags)")
    sweep.add_argument(
        "--protocols", nargs="+", default=["scenario-b"], choices=sorted(PROTOCOLS),
        metavar="PROTOCOL", help="protocol axis (see `simulate --help` for names)",
    )
    sweep.add_argument("--n-values", nargs="+", type=int, default=[256], help="universe-size axis")
    sweep.add_argument(
        "--k-values", nargs="+", type=int, default=None,
        help="contender-budget axis (default: powers of two up to each n)",
    )
    sweep.add_argument("--workloads", nargs="+", default=["uniform"], help="workload axis")
    sweep.add_argument("--seeds", nargs="+", type=int, default=[0], help="seed axis")
    sweep.add_argument("--batch", type=int, default=64, help="patterns per config")
    sweep.add_argument("--max-slots", type=int, default=200_000)
    sweep.add_argument(
        "--store", default=None,
        help="result-store directory (required for resume/status; makes "
        "run resumable; worst-case checkpoints each cell's search in it)",
    )
    sweep.add_argument("--workers", type=int, default=0, help="worker processes (0 = serial)")
    sweep.add_argument(
        "--trials", type=int, default=32,
        help="candidates each cell's search spends (`worst-case` action)",
    )
    sweep.add_argument(
        "--export", default=None, metavar="PATH",
        help="write per-config summary rows to PATH (.csv or .json)",
    )
    sweep.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a JSONL observability trace of the run to PATH "
        "(plus PATH.manifest.json); see `repro obs report`",
    )

    adversary = subparsers.add_parser(
        "adversary",
        help="guided adversarial search with replayable certificates",
        description="Search the wake-pattern space for bad inputs via "
        "repro.adversary: a strategy proposes one candidate population per "
        "step, the batch engine resolves it, and the worst finding exports "
        "as a certificate that replays standalone. With --store the search "
        "checkpoints after every step and an interrupted run resumes with "
        "a bit-for-bit identical result. The search runs in one process; "
        "`repro sweep worst-case --workers N` runs whole searches in parallel. "
        "Examples: `repro adversary search --protocol scenario-b --n 256 "
        "--k 16 --strategy anneal --budget 2048 --certificate worst.json`; "
        "`repro adversary replay --certificate worst.json`; `repro "
        "adversary report --store adversary-store`.",
    )
    adversary.add_argument("action", choices=("search", "replay", "report"))
    adversary.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="scenario-b",
        help="protocol under attack (search action)",
    )
    adversary.add_argument("--n", type=int, default=256, help="number of attached stations")
    adversary.add_argument("--k", type=int, default=16, help="awakened stations per candidate")
    adversary.add_argument(
        "--strategy", choices=strategy_names(), default="anneal",
        help="search strategy (default anneal)",
    )
    adversary.add_argument(
        "--budget", type=int, default=2048, help="total candidate evaluations"
    )
    adversary.add_argument(
        "--population", type=int, default=64, help="candidates resolved per step"
    )
    adversary.add_argument("--seed", type=int, default=0, help="root of every derived stream")
    adversary.add_argument(
        "--window", type=int, default=256,
        help="temporal scale of seed patterns and mutations",
    )
    adversary.add_argument("--max-slots", type=int, default=200_000)
    adversary.add_argument(
        "--store", default=None,
        help="SweepStore directory for per-step checkpoints (search: enables "
        "resume; report: required)",
    )
    adversary.add_argument(
        "--certificate", default=None, metavar="PATH",
        help="search: write the best finding to PATH; replay: the "
        "certificate, or `sweep worst-case --export` JSON array, to "
        "re-measure (required)",
    )
    adversary.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a JSONL observability trace of the search to PATH "
        "(plus PATH.manifest.json); see `repro obs report`",
    )

    service = subparsers.add_parser(
        "service",
        help="start/query/stop the long-lived results daemon over a store",
        description="Serve measurement queries from a shared result store via "
        "repro.service: `start` runs a worker-pool daemon behind a stdlib "
        "HTTP door, `query` asks for one config (or E1-E11 campaign cells "
        "via --experiment) and prints the canonical response body — warm "
        "hits are pure store lookups, misses compute once and cache. "
        "Without a reachable daemon, `query` resolves in-process against "
        "the same store; responses are byte-identical either way. Examples: "
        "`repro service start --store service-store --port 8791 --workers "
        "4`; `repro service query --store service-store --protocol "
        "scenario-b --n 256 --k 16`; `repro service stop --store "
        "service-store`.",
    )
    service.add_argument("action", choices=("start", "query", "status", "stop"))
    service.add_argument(
        "--store", default=None,
        help="result-store directory the daemon serves (start: required; "
        "query/status/stop: used to discover a running daemon's endpoint "
        "and, for query, as the in-process fallback store)",
    )
    service.add_argument(
        "--url", default=None, metavar="URL",
        help="explicit daemon endpoint, e.g. http://127.0.0.1:8791 "
        "(overrides --store discovery; disables the in-process fallback)",
    )
    service.add_argument("--host", default="127.0.0.1", help="bind address for `start`")
    service.add_argument(
        "--port", type=int, default=0,
        help="bind port for `start` (0 = OS-assigned; the bound endpoint is "
        "published into the store either way)",
    )
    service.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for cold queries (start; 0 = resolve inline; "
        "responses are identical for any value)",
    )
    service.add_argument("--protocol", choices=sorted(PROTOCOLS), default="scenario-b")
    service.add_argument("--n", type=int, default=256, help="number of attached stations")
    service.add_argument("--k", type=int, default=16, help="number of awakened stations")
    service.add_argument("--workload", default="uniform", help="workload name")
    service.add_argument("--batch", type=int, default=64, help="patterns per config")
    service.add_argument("--seed", type=int, default=0, help="base seed of the config")
    service.add_argument("--max-slots", type=int, default=200_000)
    service.add_argument(
        "--protocol-param", action="append", default=None, metavar="KEY=VALUE",
        help="protocol constructor override (repeatable)",
    )
    service.add_argument(
        "--experiment", default=None, metavar="EXPERIMENT",
        help="query every campaign cell of one E1-E11 experiment instead of "
        "a single config (prints a summary table, not raw bodies)",
    )
    service.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    service.add_argument(
        "--limit", type=int, default=None,
        help="only the first LIMIT cells of --experiment",
    )
    service.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a JSONL observability trace of the daemon to PATH "
        "(start action; plus PATH.manifest.json); see `repro obs report`",
    )

    bench = subparsers.add_parser(
        "bench",
        help="compare BENCH_results.json artifacts across runs or revisions",
        description="Diff two or more benchmark artifacts and flag throughput "
        "metrics that drifted beyond the tolerance, even when they still "
        "clear the hard CI gates. Sources are file paths or git revisions "
        "(`REV` or `REV:PATH`, read via `git show`). Examples: `repro bench "
        "compare BENCH_baseline.json BENCH_results.json --tolerance 0.25`; "
        "`repro bench compare HEAD~5 BENCH_results.json`.",
    )
    bench.add_argument("action", choices=("compare",))
    bench.add_argument(
        "sources", nargs="+", metavar="ARTIFACT",
        help="two or more artifacts: the first is the baseline",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.25,
        help="relative drift that counts as a regression (default 0.25)",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="emit the comparison as machine-readable JSON instead of the "
        "text report (exit codes unchanged)",
    )

    obs_cmd = subparsers.add_parser(
        "obs",
        help="summarize a JSONL observability trace",
        description="Aggregate a trace recorded with `sweep run --trace PATH` "
        "or REPRO_OBS=PATH: top spans by cumulative time, counter and gauge "
        "totals, sweep configs/sec. Example: `repro obs report trace.jsonl`.",
    )
    obs_cmd.add_argument("action", choices=("report",))
    obs_cmd.add_argument("trace", metavar="TRACE", help="JSONL trace file")
    obs_cmd.add_argument(
        "--top", type=int, default=10, help="span rows to print (default 10)"
    )
    return parser


def _usage_error(exc: Exception) -> int:
    """Report a usage error as ``error: <message>`` on stderr; exit like argparse."""
    message = exc.args[0] if exc.args else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        protocol = PROTOCOLS[args.protocol](args)
        pattern = PATTERNS[args.pattern](args)
    except ValueError as exc:
        # Invalid (n, k, ...) combinations are usage errors, not crashes.
        return _usage_error(exc)
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


def _cmd_bounds(args: argparse.Namespace) -> int:
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
        return _usage_error(exc)
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


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.experiment_id, _SCALES[args.scale])
    print(result.summary())
    return 0 if result.all_certificates_hold else 1


def _cmd_paper(args: argparse.Namespace) -> int:
    """``repro paper``: the one-command E1–E11 campaign over a shared store."""
    store = SweepStore(args.store) if args.store else None
    campaign = PaperCampaign(
        scale=_SCALES[args.scale],
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
        with _tracing(args.trace, argv=getattr(args, "raw_argv", None)):
            result = campaign.run(progress=lambda line: print(line, file=sys.stderr))
    except (KeyError, TypeError, ValueError) as exc:
        # Unknown experiment IDs, protocol/workload names and invalid worker
        # counts are usage errors, not crashes.
        return _usage_error(exc)
    manifest = result.manifest
    if args.action == "report":
        report = render_campaign_report(result)
        if args.output:
            from pathlib import Path

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
        from repro.reporting.export import write_rows

        rows = [row for res in result.results.values() for row in res.rows]
        print(f"wrote {write_rows(rows, args.export)}")
    return 0 if result.all_certificates_hold else 1


def _cmd_workloads(args: argparse.Namespace) -> int:
    try:
        return _cmd_workloads_inner(args)
    except (KeyError, ValueError) as exc:
        # Unknown workload names and invalid (n, k, ...) combinations are
        # usage errors, not crashes: print the message, exit like argparse.
        return _usage_error(exc)


def _cmd_workloads_inner(args: argparse.Namespace) -> int:
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
    protocol = PROTOCOLS[args.protocol](args)
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


@contextmanager
def _tracing(trace: Optional[str], argv: Optional[List[str]] = None) -> Iterator[None]:
    """Run one command under an observability session when ``--trace`` is set.

    A session already enabled (``REPRO_OBS``) keeps collecting and keeps its
    own lifetime — a command-level ``--trace`` on top of it is refused with a
    warning rather than silently splitting the run across two sinks.
    """
    if trace is None:
        yield
        return
    if obs.enabled():
        print(
            "warning: observability already enabled (REPRO_OBS); --trace ignored",
            file=sys.stderr,
        )
        yield
        return
    obs.enable(trace, argv=argv)
    try:
        yield
    finally:
        manifest = obs.disable()
        if manifest is not None and manifest.get("trace"):
            print(
                f"trace written to {manifest['trace']} "
                f"(manifest: {obs.manifest_path_for(str(manifest['trace']))})"
            )


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = _sweep_spec_from_args(args)
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
        with _tracing(args.trace, argv=getattr(args, "raw_argv", None)):
            if args.action == "worst-case":
                return _cmd_sweep_worst_case(args, spec, store)
            obs.annotate("sweep_spec", spec.as_dict())
            obs.annotate(
                "config_hashes", [config.config_hash() for config in spec.configs()]
            )
            result = runner.run(spec, progress=print)
    except (KeyError, TypeError, ValueError) as exc:
        # Unknown protocol/workload names, empty grids, invalid worker
        # counts and unreadable checkpoints are usage errors, not crashes:
        # print the message, exit like argparse.
        return _usage_error(exc)
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
        from repro.reporting.export import write_rows

        print(f"wrote {write_rows(result.rows(), args.export)}")
    if not result.all_solved:
        unsolved = sum(1 for record in result.records if not record.all_solved)
        print(f"NOT SOLVED on {unsolved} of {len(result)} configs")
        return 1
    return 0


def _cmd_sweep_worst_case(
    args: argparse.Namespace, spec: SweepSpec, store: Optional[SweepStore]
) -> int:
    """The ``sweep worst-case`` action: the ``random`` search on every grid cell.

    One serial :func:`~repro.adversary.adversarial_search` per (protocol, n,
    k, seed) cell with ``k <= n``, spending ``--trials`` candidates; the
    cells run as whole jobs through :func:`~repro.sweeps.runner.map_jobs`
    at ``--workers``.  With a store every search checkpoints and resumes
    like ``adversary search``.
    """
    from repro.adversary import SearchSpec
    from repro.adversary.search import search_best
    from repro.sweeps.spec import powers_of_two_up_to

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
        from repro.reporting.export import write_rows

        print(f"wrote {write_rows([cert.as_dict() for cert in best], args.export)}")
    if not all(cert.solved for cert in best):
        print(f"NOT SOLVED on some cells (horizon {spec.max_slots})")
        return 1
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    """``repro adversary``: guided search, certificate replay, store report."""
    from repro.adversary import (
        CertificateSchemaError,
        SearchSpec,
        adversarial_search,
        checkpoint_summaries,
        read_certificates,
        replay_certificate,
        write_certificate,
    )
    from repro.sweeps.store import StoreSchemaError

    try:
        if args.action == "replay":
            if not args.certificate:
                print("error: `adversary replay` requires --certificate", file=sys.stderr)
                return 2
            # A worst-case `.json` export is an array: replay every row.
            mismatches = 0
            for certificate in read_certificates(args.certificate):
                replayed = replay_certificate(certificate)
                print(f"recorded: {certificate.describe()}")
                print(f"replayed: {replayed.describe()}")
                if replayed != certificate:
                    print("REPLAY MISMATCH: the certificate does not reproduce")
                    mismatches += 1
                else:
                    print("replay OK: measured latency matches the certificate")
            return 1 if mismatches else 0
        if args.action == "report":
            if not args.store:
                print("error: `adversary report` requires --store", file=sys.stderr)
                return 2
            summaries = checkpoint_summaries(SweepStore(args.store))
            table = TextTable(
                ["protocol", "n", "k", "strategy", "evaluated", "best latency", "ratio"]
            )
            for entry in summaries:
                ratio = entry["bound_ratio"]
                table.add_row(
                    [
                        entry["protocol"],
                        entry["n"],
                        entry["k"],
                        entry["strategy"],
                        f"{entry['evaluated']}/{entry['budget']}",
                        entry["best_latency"],
                        "-" if ratio is None else round(float(ratio), 2),
                    ]
                )
            print(table.render())
            print(f"{len(summaries)} search(es) checkpointed in {args.store}")
            return 0
        spec = SearchSpec(
            protocol=args.protocol,
            n=args.n,
            k=args.k,
            strategy=args.strategy,
            budget=args.budget,
            population=args.population,
            seed=args.seed,
            window=args.window,
            max_slots=args.max_slots,
        )
        store = SweepStore(args.store) if args.store else None
        with _tracing(args.trace, argv=getattr(args, "raw_argv", None)):
            result = adversarial_search(
                spec,
                store=store,
                progress=lambda step, evaluated, best: print(
                    f"step {step}: {evaluated}/{spec.budget} candidates, best latency {best}"
                ),
            )
    except (CertificateSchemaError, StoreSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        # Unknown protocol/strategy names and invalid (n, k, budget, ...)
        # combinations are usage errors, not crashes.
        return _usage_error(exc)
    best = result.best
    print(f"best: {best.describe()}")
    print(
        "pattern: "
        + ", ".join(f"{u}@{t}" for u, t in sorted(best.wake_times.items()))
    )
    if args.certificate:
        print(f"wrote {write_certificate(best, args.certificate)}")
    if store is not None:
        print(f"checkpoint: {store.blob_path(f'adversary/{spec.config_hash()}')}")
    return 0


def _parse_param_overrides(pairs: Optional[List[str]]) -> dict:
    """``--protocol-param KEY=VALUE`` pairs into a params mapping."""
    overrides = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--protocol-param expects KEY=VALUE, got {pair!r}")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        overrides[key] = value
    return overrides


def _cmd_service(args: argparse.Namespace) -> int:
    """``repro service``: the long-lived results daemon and its clients."""
    from repro.service import ResultsService, ServiceClient, discover_endpoint, serve

    if args.action == "start":
        if not args.store:
            print("error: `service start` requires --store", file=sys.stderr)
            return 2
        store = SweepStore(args.store)
        try:
            service = ResultsService(store, workers=args.workers)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        with _tracing(args.trace, argv=getattr(args, "raw_argv", None)):
            try:
                with service:
                    serve(
                        service,
                        host=args.host,
                        port=args.port,
                        announce=lambda endpoint: print(
                            f"service listening on {endpoint} (store {store.root})",
                            flush=True,
                        ),
                    )
            except KeyboardInterrupt:
                pass
            except OSError as exc:
                print(
                    f"error: cannot serve on {args.host}:{args.port}: {exc}",
                    file=sys.stderr,
                )
                return 2
        status = service.status()
        print(
            f"service stopped after {status['requests']} request(s): "
            f"{status['hits']} hit(s), {status['misses']} miss(es)"
        )
        return 0

    store = SweepStore(args.store) if args.store else None
    endpoint = args.url or (discover_endpoint(store) if store is not None else None)
    try:
        client: Optional[ServiceClient] = ServiceClient(endpoint) if endpoint else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _service_request(args, store, endpoint, client)
    finally:
        if client is not None:
            client.close()


def _service_request(args: argparse.Namespace, store, endpoint, client) -> int:
    """``repro service status|stop|query`` through one ``ServiceClient``.

    ``client`` is ``None`` when no daemon endpoint is known; ``query`` then
    resolves in-process against ``store``.
    """
    from repro.service import (
        QueryError,
        ResultsService,
        experiment_queries,
        normalize_query,
        parse_response,
    )

    if args.action in ("status", "stop"):
        if client is None:
            print(
                "error: no service endpoint — pass --url or the --store of a "
                "running daemon",
                file=sys.stderr,
            )
            return 2
        try:
            if args.action == "stop":
                client.stop()
                print(f"service at {endpoint} is stopping")
                return 0
            status = client.status()
        except (QueryError, OSError) as exc:
            print(f"error: no service reachable at {endpoint}: {exc}", file=sys.stderr)
            return 2
        print(f"endpoint : {endpoint}")
        fields = ("store", "records", "requests", "hits", "misses", "inflight", "workers")
        for field in fields:
            print(f"{field:<9}: {status.get(field)}")
        print(
            f"memo     : {status.get('memo_entries')} record(s), "
            f"{status.get('memo_bytes')} bytes"
        )
        print(f"uptime   : {status.get('uptime_s')}s (pid {status.get('pid')})")
        return 0

    # -- query ---------------------------------------------------------------
    try:
        if args.experiment:
            configs = experiment_queries(
                args.experiment, _SCALES[args.scale], limit=args.limit
            )
        else:
            configs = [
                normalize_query(
                    {
                        "protocol": args.protocol,
                        "n": args.n,
                        "k": args.k,
                        "workload": args.workload,
                        "batch": args.batch,
                        "seed": args.seed,
                        "max_slots": args.max_slots,
                        "protocol_params": _parse_param_overrides(args.protocol_param),
                    }
                )
            ]
    except (QueryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    fallback: Optional[ResultsService] = None

    def resolve_body(config) -> tuple:
        """One config -> (canonical body text, cache status)."""
        nonlocal client, fallback
        if client is not None:
            try:
                body, cache = client.query_raw(config.as_dict())
                return body.decode("utf-8"), cache
            except OSError as exc:
                if args.url or store is None:
                    raise
                print(
                    f"warning: service at {endpoint} unreachable ({exc}); "
                    "resolving in-process",
                    file=sys.stderr,
                )
                client = None
        if store is None:
            raise OSError("no --store to resolve against")
        if fallback is None:
            fallback = ResultsService(store, workers=0)
        body, cached = fallback.answer(config)
        return body.decode("utf-8"), "hit" if cached else "miss"

    if client is None and store is None:
        print(
            "error: `service query` needs --url (a running daemon) or --store "
            "(in-process fallback)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.experiment:
            table = TextTable(
                ["hash", "protocol", "n", "k", "workload", "seed", "cache", "mean latency"]
            )
            hits = 0
            for config in configs:
                body, cache = resolve_body(config)
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
        body, _cache = resolve_body(configs[0])
        sys.stdout.write(body)
        return 0
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: no service reachable at {endpoint}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        return _usage_error(exc)


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench compare``: diff benchmark artifacts, fail on drift."""
    try:
        reports = obs.compare_many(args.sources, tolerance=args.tolerance)
    except ValueError as exc:
        return _usage_error(exc)
    regressed = any(not report.ok for report in reports)
    if args.json:
        import json

        print(json.dumps([report.as_dict() for report in reports], indent=2))
        return 1 if regressed else 0
    for index, report in enumerate(reports):
        if index:
            print()
        print(obs.render_report(report))
    return 1 if regressed else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """``repro obs report``: summarize one JSONL trace."""
    try:
        summary = obs.summarize_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    print(obs.render_summary(summary, top=args.top))
    return 0


def _cmd_verify_matrix(args: argparse.Namespace) -> int:
    try:
        seed, report = find_waking_matrix_seed(
            args.n,
            c=args.c,
            max_attempts=args.attempts,
            budget_factor=args.budget_factor,
            rng=args.seed,
        )
    except ValueError as exc:
        return _usage_error(exc)
    except RuntimeError as exc:
        print(str(exc))
        return 1
    print(report.describe())
    print(f"verified seed: {seed}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The command line as invoked, recorded in trace manifests (--trace).
    args.raw_argv = ["repro", *(sys.argv[1:] if argv is None else list(argv))]
    handlers = {
        "simulate": _cmd_simulate,
        "bounds": _cmd_bounds,
        "experiment": _cmd_experiment,
        "paper": _cmd_paper,
        "verify-matrix": _cmd_verify_matrix,
        "workloads": _cmd_workloads,
        "sweep": _cmd_sweep,
        "adversary": _cmd_adversary,
        "service": _cmd_service,
        "bench": _cmd_bench,
        "obs": _cmd_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
