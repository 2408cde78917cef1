"""The repository's benchmark: four workloads, reported in reference seconds.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``peak_rss_mb``,
``throughput_per_s``, ``latency_ms``) of one workload for about
``--seconds`` seconds; ``--trace 1`` makes the separate traced run and
reports per-layer self times and counts.  Human-readable lines come first —
every gated number with its raw seconds beside it, the host probe's median
and IQR, the correctness checks and a result digest — and the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Every repetition runs in a fresh interpreter (``jobs.py``), one process at a
time, with an empty store and an empty temporary directory, all under
``.perfbench-work/`` in the checkout, which is removed at exit.  See
``LAYERS.md`` for what each workload is for and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import EDGE_PROBES, PROBE_REF_S, iqr, median, probe_mean, rescale, tail  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("paper-campaign", "service-queries", "sweep-scan", "adversary-search")

#: Set-up samples every run collects (extra set-up-only starts fill the gap).
MIN_SETUPS = 5

#: Repetitions each workload makes at the least, whatever ``--seconds`` says.
MIN_REPS = {"paper-campaign": 2, "service-queries": 2, "sweep-scan": 2, "adversary-search": 3}

#: Warm campaign processes per cold one (a warm run is short and has no
#: progress hook inside it, so it needs more samples).
WARM_PER_COLD = 4

#: Seconds one job process may take before it is killed.
JOB_TIMEOUT_S = 150


class JobError(RuntimeError):
    """A repetition crashed or timed out: the run has no valid result."""


class Bench:
    """State of one benchmark run: spawned jobs, set-ups, probes and checks."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, size: str) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.work = root / ".perfbench-work" / f"{workload}-{os.getpid()}"
        self.setups: List[Tuple[float, float]] = []
        self.rss: List[float] = []
        self.probes: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []
        self.digests: List[str] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.work / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def spawn(self, job: str, **args) -> Dict[str, object]:
        """Run one job in a fresh interpreter with an empty temp dir."""
        tmp = self.fresh_dir("tmp")
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=str(self.root / "src"), TMPDIR=str(tmp), XDG_CACHE_HOME=str(tmp))
        args.setdefault("size", self.size)
        command = [sys.executable, str(HERE / "jobs.py"), job, json.dumps(args)]
        before = probe_mean(EDGE_PROBES)
        spawned = time.monotonic()
        process = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise JobError(f"{job} job exceeded {JOB_TIMEOUT_S} s") from None
        finally:
            _kill_group(process)
        if process.returncode != 0:
            raise JobError(f"{job} job failed ({process.returncode}):\n{stderr.decode(errors='replace')[-3000:]}")
        out = json.loads(stdout.decode().strip().splitlines()[-1])
        raw = float(out["ready"]) - spawned
        ref = raw * PROBE_REF_S / ((before + float(out["ready_probe"])) / 2.0)
        self.setups.append((ref, raw))
        self.rss.append(float(out["rss_mb"]))
        self.probes.extend([before, float(out["ready_probe"])] + list(out["probes"]))
        shutil.rmtree(tmp, ignore_errors=True)
        return out

    def repeat(self, rep: Callable[[int], None]) -> int:
        """Call ``rep(i)`` until ``--seconds`` would be exceeded; returns the count."""
        start = time.monotonic()
        count, longest = 0, 0.0
        while True:
            elapsed = time.monotonic() - start
            if count >= MIN_REPS[self.workload] and elapsed + longest > self.seconds:
                return count
            t0 = time.monotonic()
            rep(count)
            longest = max(longest, time.monotonic() - t0)
            count += 1

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.lines.append(f"  FAILED: {what}")

    def line(self, text: str) -> None:
        self.lines.append(text)

    def figure(self, name: str, pairs: Sequence[Tuple[float, float]], unit: str) -> float:
        """Report the median of ``(reference, raw)`` pairs; returns the reference median."""
        ref = median([p[0] for p in pairs])
        raw = median([p[1] for p in pairs])
        self.line(f"  {name:<22} {ref:12.4f} {unit:<4} (raw {raw:.4f} {unit}; n={len(pairs)})")
        return ref

    def distribution(self, name: str, pairs: Sequence[Tuple[float, float]]) -> float:
        """Report median and tail of per-operation seconds in ms; returns the median."""
        refs = [p[0] * 1e3 for p in pairs]
        raws = [p[1] * 1e3 for p in pairs]
        p50, raw50 = median(refs), median(raws)
        text = f"  {name + '_p50_ms':<22} {p50:12.4f} ms   (raw {raw50:.4f} ms; n={len(refs)})"
        pct, value = tail(refs)
        if pct > 50:
            text += f"; p{pct} {value:.4f} ms (raw {tail(raws)[1]:.4f})"
        self.line(text)
        return p50

    def host_line(self) -> Dict[str, float]:
        host = {"host.probe_s": median(self.probes), "host.probe_iqr_s": iqr(self.probes)}
        self.line(
            f"  host.probe_s           {host['host.probe_s']:.5f} s median, IQR {host['host.probe_iqr_s']:.5f} s "
            f"(n={len(self.probes)}; reference {PROBE_REF_S} s)"
        )
        return host


def _kill_group(process: subprocess.Popen) -> None:
    """Stop a job and everything it started (its own session), then reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def _window_ref(out: Dict[str, object]) -> float:
    """A job's whole window, rescaled by the probes at its two ends."""
    probes = out["probes"]
    return float(out["window_s"]) * PROBE_REF_S / ((probes[0] + probes[-1]) / 2.0)


def _laps(out: Dict[str, object]) -> Dict[str, List[Tuple[float, float]]]:
    return rescale(out["laps"], out["probes"])


def _total(pairs: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    return sum(p[0] for p in pairs), sum(p[1] for p in pairs)


# -- timed runs (--trace 0) --------------------------------------------------


def timed_campaign(bench: Bench) -> Dict[str, float]:
    cold: List[Tuple[float, float]] = []
    warm: List[Tuple[float, float]] = []
    rates: List[Tuple[float, float]] = []

    def rep(_i: int) -> None:
        store = bench.fresh_dir("store")
        cold_out = bench.spawn("campaign", mode="cold", store=str(store))
        check_cold(bench, cold_out)
        cold.append(_total(_laps(cold_out)["cold"]))
        for _ in range(WARM_PER_COLD):
            warm_out = bench.spawn("campaign", mode="warm", store=str(store))
            check_warm(bench, cold_out, warm_out)
            warm.append(_total(_laps(warm_out)["warm"]))
        specs = float(cold_out["specs_unique"])
        rates.append((specs / cold[-1][0], specs / cold[-1][1]))
        shutil.rmtree(store, ignore_errors=True)

    reps = bench.repeat(rep)
    while len(bench.setups) < MIN_SETUPS:
        bench.spawn("campaign", mode="warm", store=str(bench.fresh_dir("store")), setup_only=True)
    bench.line(
        f"paper-campaign: {reps} repetitions of 1 cold + {WARM_PER_COLD} warm processes, "
        "PaperCampaign(scale=QUICK, workers=0)"
    )
    bench.figure("cold_s", cold, "s")
    warm_s = bench.figure("warm_s", warm, "s")
    return {"throughput_per_s": bench.figure("cold_specs_per_s", rates, "1/s"), "latency_ms": warm_s * 1e3}


def check_cold(bench: Bench, cold: Dict[str, object]) -> None:
    """A cold campaign starts empty and every certificate holds."""
    fresh = cold["fresh"]
    bench.check(
        fresh == {"store_records": 0, "family_cache_entries": 0, "tmp_entries": 0},
        f"cold repetition did not start empty: {fresh}",
    )
    for experiment_id, result in cold["experiments"].items():
        bench.check(bool(result["holds"]), f"{experiment_id} certificates do not hold")
    bench.digests.append(",".join(e["digest"] for e in cold["experiments"].values()))


def check_warm(bench: Bench, cold: Dict[str, object], warm: Dict[str, object]) -> None:
    """A warm campaign reads everything from the store and renders the same rows."""
    for experiment_id, result in cold["experiments"].items():
        same = warm["experiments"].get(experiment_id, {}).get("digest") == result["digest"]
        bench.check(same, f"{experiment_id} warm rows differ from cold rows")
    bench.check(int(warm["store_misses"]) == 0, f"warm campaign missed the store {warm['store_misses']} times")


def timed_service(bench: Bench) -> Dict[str, float]:
    laps: Dict[str, List[Tuple[float, float]]] = {"hit": [], "miss": [], "invalid": []}

    def rep(epoch: int) -> None:
        out = bench.spawn("service", seed=bench.seed, epoch=epoch, store=str(bench.fresh_dir("store")))
        check_service(bench, out)
        for tag, pairs in _laps(out).items():
            laps[tag].extend(pairs)

    epochs = bench.repeat(rep)
    while len(bench.setups) < MIN_SETUPS:
        bench.spawn("service", seed=bench.seed, epoch=0, store=str(bench.fresh_dir("store")), setup_only=True)
    every = laps["hit"] + laps["miss"] + laps["invalid"]
    ref, raw = _total(every)
    bench.line(
        f"service-queries: {epochs} epochs, closed loop, 1 client, daemon --workers 1; "
        f"{len(laps['hit'])} hits, {len(laps['miss'])} misses, {len(laps['invalid'])} invalid"
    )
    hit_p50 = bench.distribution("hit", laps["hit"])
    bench.distribution("miss", laps["miss"])
    rate = len(every) / ref
    bench.line(f"  {'queries_per_s':<22} {rate:12.4f} 1/s  (raw {len(every) / raw:.4f} 1/s)")
    return {"throughput_per_s": rate, "latency_ms": hit_p50}


def check_service(bench: Bench, out: Dict[str, object]) -> None:
    bench.attempted += int(out["attempted"])
    bench.failed += int(out["failed"])
    for reason in out["reasons"]:
        bench.line(f"  FAILED: {reason}")
    bench.digests.append(str(out["digest"]))


def timed_sweep(bench: Bench) -> Dict[str, float]:
    rates: List[Tuple[float, float]] = []
    configs: List[Tuple[float, float]] = []
    config_rss: List[float] = []
    first: List[str] = []

    def rep(i: int) -> None:
        # Each repetition draws its own seed, so one seed's rare slow config
        # weighs on one repetition, not on the run's median.
        out = bench.spawn("sweep", seed=1_000 * bench.seed + i, check_seed=1_000 * bench.seed)
        config_rss.extend(out["config_rss_mb"])
        pairs = _laps(out)["config"]
        configs.extend(pairs)
        ref, raw = _total(pairs)
        rates.append((out["patterns"] / ref, out["patterns"] / raw))
        bench.attempted += len(out["digests"])  # configs resolved (a failure aborts the job)
        if not first:
            first.extend(out["digests"])
            bench.digests.append(",".join(first))
        check_sweep(bench, out["check"], first)

    reps = bench.repeat(rep)
    while len(bench.setups) < MIN_SETUPS:
        bench.spawn("sweep", seed=1_000 * bench.seed, setup_only=True)
    bench.line(f"sweep-scan: {reps} repetitions (one seed each) of a serial SweepRunner over {len(first)} configs")
    rate = bench.figure("patterns_per_s", rates, "1/s")
    p50 = bench.distribution("config", configs)
    # One config in a few seeds doubles the engine's scan buffers, so the
    # process-wide peak jumps between seeds; a tail over per-config peaks
    # still shows a memory change in the heavy configs.
    pct, rss = tail(config_rss)
    if not pct:  # too few configs for a tail: the peak itself
        pct, rss = 100, max(config_rss)
    bench.line(
        f"  {'peak_rss_mb':<22} {rss:12.4f} MB   (p{pct} of per-config peaks, n={len(config_rss)}; "
        f"max {max(config_rss):.4f} MB)"
    )
    return {"throughput_per_s": rate, "latency_ms": p50, "peak_rss_mb": rss}


def check_sweep(bench: Bench, check: Dict[str, str], first: Sequence[str]) -> None:
    """Records re-resolved in a later process must equal the first repetition's."""
    for index, value in check.items():
        bench.check(value == first[int(index)], f"sweep config {index} differs between repetitions")


def timed_adversary(bench: Bench) -> Dict[str, float]:
    rates: List[Tuple[float, float]] = []
    steps: List[Tuple[float, float]] = []

    def rep(_i: int) -> None:
        out = bench.spawn("adversary", seed=bench.seed, store=str(bench.fresh_dir("store")))
        laps = _laps(out)
        steps.extend(laps["step"])
        ref, raw = _total(laps["step"] + laps.get("tail", []))
        rates.append((out["candidates"] / ref, out["candidates"] / raw))
        check_adversary(bench, out)

    reps = bench.repeat(rep)
    while len(bench.setups) < MIN_SETUPS:
        bench.spawn("adversary", seed=bench.seed, store=str(bench.fresh_dir("store")), setup_only=True)
    bench.line(f"adversary-search: {reps} repetitions of every strategy x protocol search")
    rate = bench.figure("candidates_per_s", rates, "1/s")
    p50 = bench.distribution("step", steps)
    return {"throughput_per_s": rate, "latency_ms": p50}


def check_adversary(bench: Bench, out: Dict[str, object]) -> None:
    searches = int(out["searches"])
    bench.check(int(out["failed"]) == 0, "a best certificate did not replay equal", searches)
    if bench.digests:
        bench.check(out["digest"] == bench.digests[0], "searches differ between repetitions")
    else:
        bench.digests.append(str(out["digest"]))


TIMED = {
    "paper-campaign": timed_campaign,
    "service-queries": timed_service,
    "sweep-scan": timed_sweep,
    "adversary-search": timed_adversary,
}


# -- traced runs (--trace 1) -------------------------------------------------

#: Per-layer metrics that are ratios or medians, not sums over traced jobs.
_NOT_ADDITIVE = ("engine.solved_frac", "service.resolve_hit_ms", "service.http_ms")


def combine(layers: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Sum per-layer metrics of several traced jobs of one workload."""
    out: Dict[str, float] = {}
    for metrics in layers:
        for key, value in metrics.items():
            if key not in _NOT_ADDITIVE:
                out[key] = out.get(key, 0.0) + value
    patterns = out.get("engine.patterns", 0.0)
    solved = sum(m["engine.solved_frac"] * m["engine.patterns"] for m in layers)
    out["engine.solved_frac"] = solved / patterns if patterns else 0.0
    for key in _NOT_ADDITIVE[1:]:
        out[key] = max(m[key] for m in layers)  # only the service job has them
    return out


def traced(bench: Bench) -> Dict[str, float]:
    """Untraced twin, traced run and the extras each workload needs."""
    extra: Dict[str, float] = {}
    if bench.workload == "paper-campaign":
        twins, traces = [], []
        for tracing_on, bucket in ((False, twins), (True, traces)):
            store = str(bench.fresh_dir("store"))
            cold = bench.spawn("campaign", mode="cold", store=store, trace=tracing_on, inner_probes=False)
            warm = bench.spawn("campaign", mode="warm", store=store, trace=tracing_on, inner_probes=False)
            check_cold(bench, cold)
            check_warm(bench, cold, warm)
            bucket.extend([cold, warm])
        cold_layers = traces[0]["layers"]
        core = cold_layers["core.self_s"] + cold_layers["combinatorics.self_s"]
        extra["core.cold_share"] = core / cold_layers["trace.total_s"]
        serial = bench.spawn("scaling", workers=0)
        parallel = bench.spawn("scaling", workers=2, cpus=bench.cpus)
        bench.check(serial["digest"] == parallel["digest"], "2-worker records differ from serial records")
        extra["sweeps.serial_s"] = float(serial["window_s"])
        extra["sweeps.parallel_2w_s"] = float(parallel["window_s"])
        extra["sweeps.speedup_2w"] = extra["sweeps.serial_s"] / extra["sweeps.parallel_2w_s"]
        bench.line(
            f"  sweeps.speedup_2w {extra['sweeps.speedup_2w']:.3f}x over serial "
            f"(base: serial {extra['sweeps.serial_s']:.3f} s, 2 workers {extra['sweeps.parallel_2w_s']:.3f} s raw, "
            f"{serial['specs']} unique specs)"
        )
    elif bench.workload == "service-queries":
        common = {"seed": bench.seed, "epoch": 0, "inner_probes": False}
        pool = bench.spawn("service", store=str(bench.fresh_dir("store")), **common)
        inline = bench.spawn("service", store=str(bench.fresh_dir("store")), inprocess=True, **common)
        traced_out = bench.spawn("service", store=str(bench.fresh_dir("store")), inprocess=True, trace=True, **common)
        for out in (pool, inline, traced_out):
            check_service(bench, out)
        pool_miss = median([p[0] for p in _laps(pool)["miss"]]) * 1e3
        inline_miss = median([p[0] for p in _laps(inline)["miss"]]) * 1e3
        extra["service.pool_ms"] = pool_miss - inline_miss
        bench.line(f"  service.pool_ms {extra['service.pool_ms']:.4f} (pool miss p50 {pool_miss:.4f} ms - inline {inline_miss:.4f} ms)")
        twins, traces = [inline], [traced_out]
    elif bench.workload == "sweep-scan":
        common = {"seed": 1_000 * bench.seed, "check_seed": 1_000 * bench.seed, "inner_probes": False}
        twins = [bench.spawn("sweep", **common)]
        traces = [bench.spawn("sweep", trace=True, **common)]
        for out in twins + traces:
            check_sweep(bench, out["check"], twins[0]["digests"])
        bench.check(traces[0]["digests"] == twins[0]["digests"], "traced sweep records differ from untraced ones")
        bench.digests.append(",".join(twins[0]["digests"]))
    else:
        twins = [bench.spawn("adversary", seed=bench.seed, store=str(bench.fresh_dir("store")), inner_probes=False)]
        traces = [bench.spawn("adversary", seed=bench.seed, store=str(bench.fresh_dir("store")), inner_probes=False, trace=True)]
        check_adversary(bench, twins[0])
        check_adversary(bench, traces[0])
    layers = combine([out["layers"] for out in traces])
    untraced_ref = sum(_window_ref(out) for out in twins)
    traced_ref = sum(_window_ref(out) for out in traces)
    extra["trace.overhead_frac"] = traced_ref / untraced_ref - 1.0
    layers.update(extra)
    report_layers(bench, layers)
    return layers


def report_layers(bench: Bench, layers: Dict[str, float]) -> None:
    total = layers["trace.total_s"]
    bench.line(f"{bench.workload}: traced run, self time per layer (raw seconds)")
    for layer in tracing.LAYERS:
        own = layers[f"{layer}.self_s"]
        bench.line(f"  {layer:<14} {own:10.4f} s  {100 * own / total:6.2f}%")
    bench.line(f"  {'unattributed':<14} {layers['unattributed_s']:10.4f} s  {100 * layers['unattributed_s'] / total:6.2f}%")
    bench.line(f"  {'traced total':<14} {total:10.4f} s  (self times + unattributed)")
    bench.check(layers["unattributed_s"] >= -1e-6 * max(total, 1.0), "spans overlap: self times exceed the traced total")
    bench.line(f"  trace.overhead_frac {layers['trace.overhead_frac']:.4f} (traced vs untraced, reference seconds)")


def declared(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    data = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in data[kind]}


# -- entry point ---------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its jobs and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro to benchmark; run from the root of a checkout", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds, args.size)
    # Every process of the run, this one included, shares one CPU: a probe
    # only speaks for the CPU it ran on, and the service's client, daemon
    # and pool worker take turns in a closed loop anyway.  Only the 2-worker
    # scaling job gets every CPU back.
    os.sched_setaffinity(0, {bench.cpus[-1]})
    try:
        if args.trace:
            values = traced(bench)
            values.update(bench.host_line())
            # A layer the workload does not touch reads 0.
            metrics = {
                name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit in declared("per_layer").items()
            }
        else:
            values = TIMED[args.workload](bench)
            values["setup_s"] = bench.figure("setup_s", bench.setups, "s")
            if "peak_rss_mb" not in values:
                values["peak_rss_mb"] = max(bench.rss)
                bench.line(f"  {'peak_rss_mb':<22} {values['peak_rss_mb']:12.4f} MB   (max over {len(bench.rss)} processes)")
            bench.host_line()
            metrics = {
                name: {"value": float(values[name]), "unit": unit} for name, unit in declared("end_to_end").items()
            }
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    bench.line(f"  checks: {bench.attempted} operations attempted, {bench.failed} failed; digest {'/'.join(d[:12] for d in bench.digests[:1])}")
    for text in bench.lines:
        print(text)
    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
