"""The paper campaign's cold and warm cost per spec, against fixed budgets.

A cold ``repro paper`` run builds every protocol, resolves every
measurement spec through the engine and computes the render-side tables
(E4's adaptive adversary, E7's matrix figures, E8's family constructions);
a warm rerun over the complete :class:`~repro.sweeps.store.SweepStore`
reads every spec record and every ``render/<hash>`` memo blob back from
disk and simulates nothing.  This gate runs the full E1–E11 campaign cold
and then warm against the same store, and asserts

* **cold budget** — the fastest of :data:`COLD_ROUNDS` cold runs costs at
  most :data:`COLD_MS_PER_SPEC_BUDGET` per unique spec (the frozenset-era
  construction path took ~17 ms/spec on a 2-vCPU host and fails it);
* **warm budget** — the warm rerun costs at most
  :data:`WARM_MS_PER_SPEC_BUDGET` per spec, tighter than the old "warm >=
  10x over cold" bar ever allowed;
* **zero recomputation** — the warm manifest reports a 100% store hit rate;
* **bit-for-bit equality** — warm rows, tables, figures and notes are
  identical to the cold ones.

Absolute budgets replace the old warm/cold ratio, which improved whenever
the cold path got slower.  Render time counts against both budgets: the
per-spec figures cover everything a ``repro paper run`` does.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper_campaign.py -s
"""

from __future__ import annotations

import time

from repro.experiments.cache import shared_cache
from repro.experiments.campaign import PaperCampaign
from repro.experiments.config import QUICK
from repro.experiments.registry import DEFINITIONS
from repro.sweeps import SweepStore

#: The whole paper: every experiment, in registry order.
EXPERIMENTS = tuple(DEFINITIONS)

#: Cold runs, each from an empty store and an empty family cache.
COLD_ROUNDS = 3

#: Most milliseconds a cold run may spend per unique spec.
COLD_MS_PER_SPEC_BUDGET = 8.0

#: Most milliseconds a warm rerun may spend per unique spec.
WARM_MS_PER_SPEC_BUDGET = 0.5


def _run(store: SweepStore):
    return PaperCampaign(
        scale=QUICK, store=store, workers=0, experiments=EXPERIMENTS
    ).run()


def test_paper_campaign_cold_and_warm_per_spec_budgets(record_gate, tmp_path):
    """Regression gate: cold and warm campaign runs stay inside their budgets."""
    # Cold means cold: an empty store and no selective family built before.
    # The fastest of a few cold runs is the gated figure.
    cold_times = []
    for round_ in range(COLD_ROUNDS):
        store = SweepStore(tmp_path / f"paper-store-{round_}")
        shared_cache.clear()
        t0 = time.perf_counter()
        cold = _run(store)
        cold_times.append(time.perf_counter() - t0)
        assert cold.manifest["store_hits"] == 0
    cold_time = min(cold_times)

    warm_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        warm = _run(store)
        warm_times.append(time.perf_counter() - t0)
    warm_time = min(warm_times)

    assert warm.manifest["store_hit_rate"] == 1.0
    assert warm.manifest["store_misses"] == 0
    for experiment_id, result in warm.results.items():
        reference = cold.results[experiment_id]
        assert result.rows == reference.rows
        assert result.tables == reference.tables
        assert result.figures == reference.figures
        assert result.notes == reference.notes

    specs = cold.manifest["specs_unique"]
    cold_ms = cold_time * 1e3 / specs
    warm_ms = warm_time * 1e3 / specs
    print(
        f"paper campaign ({'+'.join(EXPERIMENTS)}, {specs} unique specs): "
        f"cold {cold_ms:.2f} ms/spec (budget {COLD_MS_PER_SPEC_BUDGET}), "
        f"warm {warm_ms:.3f} ms/spec (budget {WARM_MS_PER_SPEC_BUDGET}), "
        f"{specs / cold_time:.0f} cold specs/s"
    )
    # Record before asserting so a regression still lands in the trajectory.
    record_gate(
        "paper_campaign",
        threshold=COLD_MS_PER_SPEC_BUDGET,
        unit="ms/spec",
        measurements=[
            {
                "subset": "+".join(EXPERIMENTS),
                "unique_specs": specs,
                "cold_ms_per_spec": round(cold_ms, 3),
                "warm_ms_per_spec": round(warm_ms, 4),
                "cold_budget_ms": COLD_MS_PER_SPEC_BUDGET,
                "warm_budget_ms": WARM_MS_PER_SPEC_BUDGET,
            }
        ],
    )
    assert cold_ms <= COLD_MS_PER_SPEC_BUDGET, (
        f"cold campaign {cold_ms:.2f} ms/spec over its "
        f"{COLD_MS_PER_SPEC_BUDGET} ms budget ({cold_time:.2f}s for {specs} specs)"
    )
    assert warm_ms <= WARM_MS_PER_SPEC_BUDGET, (
        f"warm campaign rerun {warm_ms:.3f} ms/spec over its "
        f"{WARM_MS_PER_SPEC_BUDGET} ms budget ({warm_time:.2f}s for {specs} specs)"
    )
