"""One repetition of one workload, run in a fresh interpreter.

``run.py`` starts ``python3 perfbench/jobs.py <job> '<json args>'`` once per
repetition, one process at a time, and reads the JSON object this script
prints as its last line.  A fresh interpreter per repetition is what keeps a
cold repetition cold: no in-process cache survives, and every cold
repetition gets an empty store and an empty temporary directory.

Each job first does its set-up (the ``repro`` import plus the workload's own
preparation), stamps ``ready`` on the system-wide monotonic clock — run.py
stamped the spawn on the same clock, so ``ready - spawn`` is the
set-up time — and then times its operations between calibration probes (see
``probe.py``).  With ``"trace": true`` the timed window runs under the
outside-in tracer (``tracing.py``) and the job returns per-layer metrics.
With ``"inner_probes": false`` the job probes only around the whole window,
which is how a traced run and its untraced twin are made comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from probe import EDGE_PROBES, Clock, probe, probe_mean
import tracing

import repro  # noqa: F401 - the import is part of every set-up

#: Workload sizes: ``full`` is what the benchmark measures, ``tiny`` is for
#: the benchmark's own tests.
SIZES: Dict[str, Dict[str, object]] = {
    "full": {
        "experiments": None,
        "service_protocols": ("scenario-b", "local-clock", "komlos-greenberg", "wait-and-go", "scenario-c", "rpd"),
        "service_shapes": ((128, 8), (256, 4)),
        "service_seeds": 9,
        "service_repeats": 9,
        "sweep_protocols": ("rpd", "decay", "aloha", "beb", "tree-splitting", "scenario-c"),
        "sweep_workloads": ("uniform", "churn", "heavy-tailed", "late-turn", "simultaneous"),
        "sweep_n": 1024,
        "sweep_ks": (16, 64),
        "sweep_batch": 256,
        "adversary_protocols": ("scenario-b", "rpd"),
        "adversary_strategies": ("anneal", "evolution", "bandit"),
        "adversary_n": 256,
        "adversary_k": 16,
        "adversary_budget": 1024,
    },
    "tiny": {
        "experiments": ("E1", "E4"),
        "service_protocols": ("scenario-b", "rpd"),
        "service_shapes": ((32, 4),),
        "service_seeds": 3,
        "service_repeats": 4,
        "sweep_protocols": ("rpd", "scenario-c"),
        "sweep_workloads": ("uniform", "late-turn"),
        "sweep_n": 64,
        "sweep_ks": (4,),
        "sweep_batch": 16,
        "adversary_protocols": ("rpd",),
        "adversary_strategies": ("anneal", "bandit"),
        "adversary_n": 64,
        "adversary_k": 4,
        "adversary_budget": 128,
    },
}

#: Queries the service must refuse with 400 (one of each kind of mistake).
INVALID_QUERIES = (
    {"protocol": "no-such-protocol", "n": 64, "k": 4},
    {"protocol": "rpd", "n": 8, "k": 16},
    {"protocol": "rpd", "n": 64, "k": 4, "colour": "red"},
    {"protocol": "rpd", "n": "sixty-four", "k": 4},
)

#: Share of stream entries that are invalid queries.
INVALID_SHARE = 0.02

#: Zipf exponent of config popularity in the service stream.
ZIPF_S = 1.1


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _high_water_mb() -> float:
    """This process's peak resident set since the last reset, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reset_high_water() -> None:
    """Restart the peak-resident-set count from the current resident set."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Window:
    """The timed window of a job: probes, laps and the optional tracer."""

    def __init__(self, args: Dict[str, object]) -> None:
        self.ready = time.monotonic()
        probe()  # warms the probe code; not recorded
        self.ready_probe = probe_mean(EDGE_PROBES)  # closes the set-up interval
        inner = bool(args.get("inner_probes", True))
        self.clock = Clock(min_segment_s=0.2 if inner else float("inf"))
        self.tracer = tracing.Tracer() if args.get("trace") else None
        self.raw_s = 0.0

    def __enter__(self) -> Clock:
        self.clock.probe(EDGE_PROBES)
        if self.tracer is not None:
            self.tracer.__enter__()
        self._t0 = time.perf_counter()
        self.clock.mark()
        return self.clock

    def __exit__(self, *exc) -> None:
        self.raw_s = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.__exit__(*exc)
        self.clock.probe(EDGE_PROBES)

    def export(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "ready": self.ready,
            "ready_probe": self.ready_probe,
            "window_s": self.raw_s,
            "rss_mb": peak_rss_mb(),
            **self.clock.export(),
        }
        if self.tracer is not None:
            out["layers"] = tracing.layer_metrics(self.tracer)
        return out


# -- paper-campaign ----------------------------------------------------------


def campaign_job(args: Dict[str, object], size: Dict[str, object]) -> Dict[str, object]:
    """``PaperCampaign(scale=QUICK, workers=0).run()`` — cold or warm per store."""
    from repro.experiments.cache import shared_cache
    from repro.experiments.campaign import PaperCampaign
    from repro.experiments.config import QUICK
    from repro.sweeps.store import SweepStore

    mode = str(args["mode"])
    store = SweepStore(str(args["store"]))
    campaign = PaperCampaign(scale=QUICK, store=store, workers=0, experiments=size["experiments"])
    fresh = {
        "store_records": len(store),
        "family_cache_entries": len(shared_cache),
        "tmp_entries": len(os.listdir(tempfile.gettempdir())),
    }
    window = Window(args)
    if args.get("setup_only"):
        return window.export()
    with window as clock:

        def progress(_line: str) -> None:
            clock.lap(mode)
            clock.maybe_probe()

        result = campaign.run(progress=progress)
        clock.lap(mode)
    out = window.export()
    out["experiments"] = {
        experiment_id: {
            "holds": res.all_certificates_hold,
            "digest": digest(
                {
                    "rows": res.rows,
                    "tables": res.tables,
                    "figures": res.figures,
                    "certificates": [c.describe() for c in res.certificates],
                    "notes": res.notes,
                }
            ),
        }
        for experiment_id, res in result.results.items()
    }
    out["fresh"] = fresh
    out["store_misses"] = result.manifest["store_misses"]
    out["specs_unique"] = result.manifest["specs_unique"]
    return out


def scaling_job(args: Dict[str, object], size: Dict[str, object]) -> Dict[str, object]:
    """Resolve the campaign's unique specs with ``workers`` processes, no store."""
    from repro.experiments.campaign import PaperCampaign, dedup_specs
    from repro.experiments.config import QUICK
    from repro.sweeps.runner import SweepRunner

    if "cpus" in args:  # the workers need a CPU each
        os.sched_setaffinity(0, set(args["cpus"]))
    plans = PaperCampaign(scale=QUICK, experiments=size["experiments"]).plan()
    unique = dedup_specs([spec for specs in plans.values() for spec in specs])
    runner = SweepRunner(workers=int(args["workers"]))
    window = Window({"inner_probes": False})
    with window as clock:
        result = runner.run(unique)
        clock.lap("resolve")
    out = window.export()
    out["specs"] = len(unique)
    out["digest"] = digest([record.as_dict() for record in result.records])
    return out


# -- service-queries ---------------------------------------------------------


def service_configs(seed: int, epoch: int, size: Dict[str, object]) -> List[Dict[str, object]]:
    """The distinct configs of one epoch: protocols x (n, k) x seeds."""
    base = 1_000_000 * seed + 1_000 * epoch
    return [
        {"protocol": protocol, "n": n, "k": k, "seed": base + j}
        for protocol in size["service_protocols"]
        for n, k in size["service_shapes"]
        for j in range(int(size["service_seeds"]))
    ]


def service_stream(seed: int, epoch: int, size: Dict[str, object]) -> List[Dict[str, object]]:
    """One epoch's seeded query stream.

    Every distinct config appears once as its miss; ``service_repeats``
    times as many repeats follow, Zipf-distributed over a seeded popularity
    order, so the stream is about 90% hits.  Each entry's ``expect`` is what
    the daemon must answer: ``miss`` at a config's first occurrence, ``hit``
    after it, ``invalid`` (HTTP 400) for the malformed queries mixed in.
    A tenth of the repeats spell ``n`` as a string, which must normalize to
    the same config.
    """
    rng = random.Random(f"service/{seed}/{epoch}")
    configs = service_configs(seed, epoch, size)
    order = list(range(len(configs)))
    rng.shuffle(order)
    weights = [0.0] * len(configs)
    for rank, index in enumerate(order):
        weights[index] = 1.0 / (rank + 1) ** ZIPF_S
    repeats = rng.choices(range(len(configs)), weights, k=len(configs) * int(size["service_repeats"]))
    sequence = list(range(len(configs))) + repeats
    rng.shuffle(sequence)
    stream: List[Dict[str, object]] = []
    seen = set()
    for index in sequence:
        query = dict(configs[index])
        if index in seen and rng.random() < 0.1:
            query["n"] = str(query["n"])
        stream.append({"query": query, "config": index, "expect": "hit" if index in seen else "miss"})
        seen.add(index)
    invalid = max(1, round(INVALID_SHARE * len(stream)))
    for j in range(invalid):
        position = rng.randrange(len(stream) + 1)
        stream.insert(position, {"query": dict(INVALID_QUERIES[j % len(INVALID_QUERIES)]), "config": None, "expect": "invalid"})
    return stream


class StreamChecker:
    """Checks every answer of a service stream; counts failed operations.

    A hit body must be byte-identical to the first body returned for the
    same config; a miss or hit must carry the matching ``X-Repro-Cache``
    header, and a miss body must name the queried config hash; an invalid
    query must be refused with 400.
    """

    def __init__(self, hashes: Sequence[str]) -> None:
        self.hashes = list(hashes)
        self.first_bodies: Dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str) -> bool:
        """Count one checked operation; keep the first few failure reasons."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return ok

    def check(self, entry: Dict[str, object], status: int, body: bytes, cache: str) -> bool:
        return self.record(*self._verdict(entry, status, body, cache))

    def _verdict(self, entry: Dict[str, object], status: int, body: bytes, cache: str) -> Tuple[bool, str]:
        expect = entry["expect"]
        if expect == "invalid":
            return status == 400, f"invalid query answered {status}"
        if status != 200 or cache != expect:
            return False, f"expected {expect}, got {status}/{cache}"
        index = int(entry["config"])
        if expect == "hit":
            return body == self.first_bodies.get(index), "hit body differs from the first body"
        try:
            named = json.loads(body.decode("utf-8")).get("hash")
        except (ValueError, UnicodeDecodeError, AttributeError):
            return False, "miss body is not a JSON object"
        if named != self.hashes[index]:
            return False, "miss body names another config"
        self.first_bodies[index] = body
        return True, ""


def _post(endpoint: str, payload: Dict[str, object]) -> Tuple[int, bytes]:
    """POST a query with plain urllib, for the queries that must be refused."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        endpoint + "/query",
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _start_daemon(store_root: Path, workers: int):
    """``repro service start`` as a real process; returns (process, endpoint)."""
    from repro.service import discover_endpoint
    from repro.sweeps.store import SweepStore

    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "service", "start", "--store", str(store_root), "--port", "0", "--workers", str(workers)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    store = SweepStore(store_root)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        endpoint = discover_endpoint(store)
        if endpoint is not None:
            return process, endpoint
        if process.poll() is not None:
            raise RuntimeError(f"service daemon exited: {process.stderr.read().decode(errors='replace')}")
        time.sleep(0.01)
    process.kill()
    process.wait()
    raise RuntimeError("service daemon did not publish its endpoint within 60 s")


def service_job(args: Dict[str, object], size: Dict[str, object]) -> Dict[str, object]:
    """A closed loop with one client against a daemon over an empty store.

    ``inprocess`` serves from a thread of this process with misses resolved
    inline (the traced variant); otherwise the daemon is a real
    ``repro service start --workers 1`` process.
    """
    from repro.service import QueryError, ResultsService, ServiceClient, normalize_query, render_response
    from repro.service.daemon import ServiceServer
    from repro.sweeps.runner import resolve_config
    from repro.sweeps.store import SweepStore

    seed, epoch = int(args["seed"]), int(args["epoch"])
    store_root = Path(str(args["store"]))
    inprocess = bool(args.get("inprocess"))
    stream = [] if args.get("setup_only") else service_stream(seed, epoch, size)
    configs = service_configs(seed, epoch, size)
    hashes = [normalize_query(query).config_hash() for query in configs]
    if inprocess:
        service = ResultsService(SweepStore(store_root), workers=0)
        server = ServiceServer(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        endpoint, process = server.endpoint, None
    else:
        process, endpoint = _start_daemon(store_root, workers=1)
    client = ServiceClient(endpoint, timeout=120)
    checker = StreamChecker(hashes)
    try:
        # Warms the pool (worker start, imports) outside the measured stream.
        client.query_raw({"protocol": "rpd", "n": 16, "k": 2, "batch": 4, "seed": 99_999})
        window = Window(args)
        with window as clock:
            for entry in stream:
                clock.mark()
                if entry["expect"] == "invalid":
                    status, body = _post(endpoint, entry["query"])
                    cache = ""
                else:
                    try:
                        body, cache = client.query_raw(entry["query"])
                        status = 200
                    except (QueryError, OSError) as exc:  # refused, or the daemon is gone
                        status, body, cache = 500, str(exc).encode(), ""
                clock.lap(str(entry["expect"]))
                checker.check(entry, status, body, cache)
                clock.maybe_probe()

        # A seeded sample must match the in-process resolve byte for byte.
        rng = random.Random(f"sample/{seed}/{epoch}")
        for index in rng.sample(range(len(configs)), min(3, len(configs)) if stream else 0):
            expected = render_response(resolve_config(normalize_query(configs[index]))).encode("utf-8")
            checker.record(checker.first_bodies.get(index) == expected, "sample differs from the in-process resolve")
        status = client.status()
        predicted_hits = sum(1 for e in stream if e["expect"] == "hit")
        predicted_misses = 1 + sum(1 for e in stream if e["expect"] == "miss")
        checker.record(
            (status["hits"], status["misses"]) == (predicted_hits, predicted_misses),
            f"/status {status['hits']}/{status['misses']} != predicted {predicted_hits}/{predicted_misses}",
        )
    finally:
        if process is None:
            server.shutdown()
            server.server_close()
        else:
            try:
                client.stop()
            except (QueryError, OSError):
                process.kill()
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
    out = window.export()
    out.update(
        attempted=checker.attempted,
        failed=checker.failed,
        reasons=checker.reasons,
        digest=digest([checker.first_bodies[i].decode() for i in sorted(checker.first_bodies)]),
    )
    return out


# -- sweep-scan --------------------------------------------------------------


def sweep_configs(seed: int, size: Dict[str, object]):
    from repro.sweeps.spec import SweepConfig

    return [
        SweepConfig(protocol=protocol, n=int(size["sweep_n"]), k=k, workload=workload, batch=int(size["sweep_batch"]), seed=seed)
        for k in size["sweep_ks"]
        for protocol in size["sweep_protocols"]
        for workload in size["sweep_workloads"]
    ]


def sweep_job(args: Dict[str, object], size: Dict[str, object]) -> Dict[str, object]:
    """A serial ``SweepRunner`` over near-free-construction protocols.

    After the timed window, a seeded sample of the ``check_seed`` grid is
    resolved again, untimed, so run.py can compare it with the records
    the repetition that ran that grid produced in another process.
    """
    from repro.sweeps.runner import SweepRunner, resolve_config

    configs = sweep_configs(int(args["seed"]), size)
    runner = SweepRunner(workers=0)
    config_rss: List[float] = []
    window = Window(args)
    if args.get("setup_only"):
        return window.export()
    with window as clock:
        _reset_high_water()

        def progress(_line: str) -> None:
            clock.lap("config")
            config_rss.append(_high_water_mb())
            _reset_high_water()
            clock.maybe_probe()
            clock.mark()

        result = runner.run(configs, progress=progress)
    out = window.export()
    out["config_rss_mb"] = config_rss
    check = sweep_configs(int(args["check_seed"]), size)
    sample = random.Random(f"sweep-check/{args['seed']}").sample(range(len(check)), min(3, len(check)))
    out["check"] = {str(i): digest(resolve_config(check[i]).as_dict()) for i in sample}
    out["patterns"] = sum(record.config.batch for record in result.records)
    out["digests"] = [digest(record.as_dict()) for record in result.records]
    return out


# -- adversary-search --------------------------------------------------------


def adversary_specs(seed: int, size: Dict[str, object]):
    from repro.adversary.search import SearchSpec

    return [
        SearchSpec(
            protocol=protocol, n=int(size["adversary_n"]), k=int(size["adversary_k"]),
            strategy=strategy, budget=int(size["adversary_budget"]), population=64,
            seed=1_000 * seed + j,
        )
        for j, (protocol, strategy) in enumerate(
            (p, s) for p in size["adversary_protocols"] for s in size["adversary_strategies"]
        )
    ]


def adversary_job(args: Dict[str, object], size: Dict[str, object]) -> Dict[str, object]:
    """Every strategy x protocol search, serially, checkpointing each step."""
    from repro.adversary import search
    from repro.adversary.certificates import replay_certificate
    from repro.sweeps.store import SweepStore

    store = SweepStore(str(args["store"]))
    specs = adversary_specs(int(args["seed"]), size)
    results = []
    window = Window(args)
    if args.get("setup_only"):
        return window.export()
    with window as clock:

        def progress(_step: int, _evaluated: int, _best: int) -> None:
            clock.lap("step")
            clock.maybe_probe()

        for spec in specs:
            clock.mark()
            # Looked up at call time, so the traced run sees its wrapper.
            results.append(search.adversarial_search(spec, store=store, progress=progress))
            clock.lap("tail")
    failed = sum(1 for result in results if replay_certificate(result.best) != result.best)
    out = window.export()
    out.update(
        candidates=sum(result.evaluated for result in results),
        searches=len(results),
        failed=failed,
        digest=digest([result.best.as_dict() for result in results]),
    )
    return out


JOBS: Dict[str, Callable[[Dict[str, object], Dict[str, object]], Dict[str, object]]] = {
    "campaign": campaign_job,
    "scaling": scaling_job,
    "service": service_job,
    "sweep": sweep_job,
    "adversary": adversary_job,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    job, args = argv[0], json.loads(argv[1])
    size = SIZES[str(args.get("size", "full"))]
    out = JOBS[job](args, size)
    out["pid"] = os.getpid()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
