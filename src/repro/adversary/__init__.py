"""Guided adversarial search: hunt the wake-pattern space for bad inputs.

The paper's bounds are worst-case over the adversary's choice of wake-up
pattern, and the hard instances live in a space exponentially larger than
the (n, k) grid the sweep layer enumerates.  This package searches that
space directly, building on the rest of the library:

* :mod:`repro.adversary.mutations` — shift/swap/merge neighbourhood
  operators over ``(stations, wake_times)`` rows (always valid, station
  count preserved);
* :mod:`repro.adversary.strategies` — pluggable strategies with plain JSON
  state: the blind ``random`` baseline, simulated annealing, an elitist
  evolutionary population, and a UCB bandit over workload-generator
  parameterizations;
* :mod:`repro.adversary.search` — the budgeted driver: one candidate
  population per step, checked once as one
  :class:`~repro.channel.wakeup.PatternBatch`, through the batch engine
  (:func:`repro.engine.run_batch`), every stream derived from config content
  via ``SeedSequence`` (bit-for-bit invariant to the resume point),
  checkpoints in a :class:`~repro.sweeps.store.SweepStore`;
* :mod:`repro.adversary.certificates` — schema-versioned replayable
  :class:`SearchCertificate` exports: protocol name, exact wake times,
  measured latency and its ratio to the paper's lower bound.

The CLI surface is ``repro adversary search|replay|report``; the full guide
is ``docs/adversary.md``.
"""

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "SearchSpec": "repro.adversary.search",
    "SearchResult": "repro.adversary.search",
    "adversarial_search": "repro.adversary.search",
    "seed_population": "repro.adversary.search",
    "effective_latencies": "repro.adversary.search",
    "checkpoint_summaries": "repro.adversary.search",
    "SearchStrategy": "repro.adversary.strategies",
    "RandomStrategy": "repro.adversary.strategies",
    "AnnealingStrategy": "repro.adversary.strategies",
    "EvolutionStrategy": "repro.adversary.strategies",
    "BanditStrategy": "repro.adversary.strategies",
    "STRATEGIES": "repro.adversary.strategies",
    "strategy_names": "repro.adversary.strategies",
    "get_strategy": "repro.adversary.strategies",
    "SearchCertificate": "repro.adversary.certificates",
    "CertificateSchemaError": "repro.adversary.certificates",
    "CERTIFICATE_SCHEMA": "repro.adversary.certificates",
    "evaluation_generators": "repro.adversary.certificates",
    "load_certificate": "repro.adversary.certificates",
    "read_certificates": "repro.adversary.certificates",
    "write_certificate": "repro.adversary.certificates",
    "replay_certificate": "repro.adversary.certificates",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
