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

This module holds only the parser and the dispatch, and imports no numpy:
``repro --help`` costs little more than the interpreter.  Each command's
handler lives in its own :mod:`repro.commands` module, imported when the
command runs, so a command loads only what it runs (``repro service start``
loads the daemon path, not the experiment registry).  The parser's name
choices are the constants below, which tests hold equal to the registries
they name.

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
import importlib
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]

#: ``--protocol`` choices: the names of :data:`repro.sweeps.protocols.PROTOCOL_BUILDERS`.
PROTOCOL_NAMES = (
    "aloha",
    "beb",
    "decay",
    "komlos-greenberg",
    "local-clock",
    "local-clock-c",
    "round-robin",
    "rpd",
    "rpd-known-k",
    "scenario-a",
    "scenario-b",
    "scenario-c",
    "select-first",
    "tdma",
    "tree-splitting",
    "wait-and-go",
)

#: ``simulate --pattern`` choices: the keys of :data:`repro.commands.simulate.PATTERNS`.
PATTERN_NAMES = ("batched", "simultaneous", "staggered", "uniform")

#: ``adversary --strategy`` choices: :func:`repro.adversary.strategies.strategy_names`.
STRATEGY_NAMES = ("anneal", "bandit", "evolution", "random")

#: ``experiment`` choices: the keys of :data:`repro.experiments.registry.DEFINITIONS`.
EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 12))

#: ``--scale`` choices: the keys of :data:`repro.experiments.config.SCALES`.
SCALE_NAMES = ("full", "quick", "standard")

#: The handler module of each command; each defines ``run(args) -> int``.
_COMMANDS = {
    "simulate": "repro.commands.simulate",
    "bounds": "repro.commands.bounds",
    "experiment": "repro.commands.experiment",
    "paper": "repro.commands.paper",
    "verify-matrix": "repro.commands.verify_matrix",
    "workloads": "repro.commands.workloads",
    "sweep": "repro.commands.sweep",
    "adversary": "repro.commands.adversary",
    "service": "repro.commands.service",
    "bench": "repro.commands.bench",
    "obs": "repro.commands.obs",
}

#: Actions with a handler module of their own, so that ``service start``
#: loads no query path and ``sweep run`` no adversarial search.
_ACTIONS = {
    ("service", "start"): "repro.commands.serve",
    ("service", "query"): "repro.commands.query",
    ("sweep", "worst-case"): "repro.commands.worst_case",
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
    sim.add_argument("--protocol", choices=PROTOCOL_NAMES, default="scenario-b")
    sim.add_argument("--pattern", choices=PATTERN_NAMES, default="staggered")
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
    exp.add_argument("experiment_id", choices=sorted(EXPERIMENT_IDS), metavar="EXPERIMENT")
    exp.add_argument("--scale", choices=SCALE_NAMES, default="quick")

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
    paper.add_argument("--scale", choices=SCALE_NAMES, default="quick")
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
    wl.add_argument("--protocol", choices=PROTOCOL_NAMES, default="scenario-b")
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
        "--protocols", nargs="+", default=["scenario-b"], choices=PROTOCOL_NAMES,
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
        "--protocol", choices=PROTOCOL_NAMES, default="scenario-b",
        help="protocol under attack (search action)",
    )
    adversary.add_argument("--n", type=int, default=256, help="number of attached stations")
    adversary.add_argument("--k", type=int, default=16, help="awakened stations per candidate")
    adversary.add_argument(
        "--strategy", choices=STRATEGY_NAMES, default="anneal",
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
    service.add_argument("--protocol", choices=PROTOCOL_NAMES, default="scenario-b")
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
    service.add_argument("--scale", choices=SCALE_NAMES, default="quick")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The command line as invoked, recorded in trace manifests (--trace).
    args.raw_argv = ["repro", *(sys.argv[1:] if argv is None else list(argv))]
    module = _ACTIONS.get((args.command, getattr(args, "action", None)), _COMMANDS[args.command])
    return importlib.import_module(module).run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
