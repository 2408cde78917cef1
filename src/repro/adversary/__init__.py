"""Guided adversarial search: hunt the wake-pattern space for bad inputs.

The paper's bounds are worst-case over the adversary's choice of wake-up
pattern, and the hard instances live in a space exponentially larger than
the (n, k) grid the sweep layer enumerates.  This package searches that
space directly, building on the rest of the library:

* :mod:`repro.adversary.mutations` — shift/swap/merge neighbourhood
  operators over :class:`~repro.channel.wakeup.WakeupPattern` (always valid,
  station count preserved);
* :mod:`repro.adversary.strategies` — pluggable strategies with plain JSON
  state: the blind ``random`` baseline, simulated annealing, an elitist
  evolutionary population, and a UCB bandit over workload-generator
  parameterizations;
* :mod:`repro.adversary.search` — the budgeted driver: one candidate
  population per step through the batch engine
  (:func:`repro.engine.run_batch`), every stream derived from config content
  via ``SeedSequence`` (bit-for-bit invariant to worker count and resume
  point), checkpoints in a :class:`~repro.sweeps.store.SweepStore`;
* :mod:`repro.adversary.certificates` — schema-versioned replayable
  :class:`SearchCertificate` exports: protocol name, exact wake times,
  measured latency and its ratio to the paper's lower bound.

The CLI surface is ``repro adversary search|replay|report``; the full guide
is ``docs/adversary.md``.
"""

from repro.adversary.certificates import (
    CERTIFICATE_SCHEMA,
    CertificateSchemaError,
    SearchCertificate,
    evaluation_generator,
    load_certificate,
    read_certificates,
    replay_certificate,
    write_certificate,
)
from repro.adversary.mutations import (
    MUTATIONS,
    merge_mutation,
    mutate,
    shift_mutation,
    swap_mutation,
)
from repro.adversary.search import (
    SearchResult,
    SearchSpec,
    adversarial_search,
    checkpoint_summaries,
    effective_latencies,
    seed_population,
)
from repro.adversary.strategies import (
    STRATEGIES,
    AnnealingStrategy,
    BanditStrategy,
    EvolutionStrategy,
    RandomStrategy,
    SearchStrategy,
    get_strategy,
    strategy_names,
)

__all__ = [
    "SearchSpec",
    "SearchResult",
    "adversarial_search",
    "seed_population",
    "effective_latencies",
    "checkpoint_summaries",
    "SearchStrategy",
    "RandomStrategy",
    "AnnealingStrategy",
    "EvolutionStrategy",
    "BanditStrategy",
    "STRATEGIES",
    "strategy_names",
    "get_strategy",
    "MUTATIONS",
    "mutate",
    "shift_mutation",
    "swap_mutation",
    "merge_mutation",
    "SearchCertificate",
    "CertificateSchemaError",
    "CERTIFICATE_SCHEMA",
    "evaluation_generator",
    "load_certificate",
    "read_certificates",
    "write_certificate",
    "replay_certificate",
]
