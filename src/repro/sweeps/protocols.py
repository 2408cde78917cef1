"""Named protocol builders: construct any library protocol from primitives.

A sweep config travels between processes as plain data — a protocol *name*
plus ``(n, k, seed)`` — and each worker reconstructs the protocol object on
its side of the pipe.  This registry is the single place that mapping lives:
the CLI's ``simulate``/``workloads`` subcommands and the sweep workers all
build protocols through :func:`build_protocol`, so a name means the same
protocol everywhere.

Construction is deterministic: the same ``(name, n, k, seed)`` always yields
a protocol with identical behaviour, which is what makes sweep results
worker-count invariant (see :mod:`repro.sweeps.runner`).  Builders that need
selective families draw them from a :class:`~repro.experiments.cache.FamilyCache`
(the process-wide :data:`~repro.experiments.cache.shared_cache` by default),
so a worker process pays for each ``(n, seed)`` concatenation once no matter
how many configs it resolves.
"""

from __future__ import annotations

from typing import Callable, Dict

__all__ = ["PROTOCOL_BUILDERS", "protocol_names", "register_protocol", "build_protocol"]

#: Registry of protocol builders ``(n, k, seed, cache) -> protocol``.
PROTOCOL_BUILDERS: Dict[str, Callable] = {}


def register_protocol(name: str, builder: Callable) -> None:
    """Register a named protocol builder ``(n, k, seed, cache) -> protocol``.

    An existing name is refused, so extensions cannot silently shadow the
    built-in set.
    """
    if name in PROTOCOL_BUILDERS:
        raise ValueError(f"protocol {name!r} is already registered")
    PROTOCOL_BUILDERS[name] = builder


def protocol_names() -> list:
    """Registered protocol names, sorted."""
    return sorted(PROTOCOL_BUILDERS)


def build_protocol(name: str, n: int, k: int = 1, *, seed: int = 0, **params):
    """Build one protocol from its registry name and ``(n, k, seed)``.

    Parameters
    ----------
    name:
        Registry key (see :func:`protocol_names`).
    n, k:
        Universe size and contender budget.  Builders that do not use ``k``
        (e.g. ``round-robin``) ignore it.
    seed:
        Seed for every stochastic ingredient of the construction (selective
        families, waking-matrix hash).  Purely randomized policies such as
        ``rpd`` are built deterministically and draw their randomness at
        simulation time instead.
    params:
        Extra construction parameters forwarded to the builder (e.g.
        ``window``/``c`` for ``scenario-c``).  A builder that does not accept
        a given parameter raises ``TypeError`` — overrides never pass
        silently.  This is how :attr:`SweepConfig.protocol_params
        <repro.sweeps.spec.SweepConfig>` reaches the construction.
    """
    try:
        builder = PROTOCOL_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; registered: {protocol_names()}"
        ) from None
    from repro.experiments.cache import shared_cache

    return builder(n, k, seed, shared_cache, **params)


def _build_round_robin(n, k, seed, cache):
    from repro.core.round_robin import RoundRobin

    return RoundRobin(n)


def _build_tdma(n, k, seed, cache):
    from repro.baselines import TDMA

    return TDMA(n)


def _build_scenario_a(n, k, seed, cache):
    from repro.core.scenario_a import WakeupWithS

    return WakeupWithS(n, s=0, families=cache.concatenation(n, n, seed=seed))


def _build_scenario_b(n, k, seed, cache):
    from repro.core.scenario_b import WakeupWithK

    return WakeupWithK(n, k, families=cache.concatenation(n, k, seed=seed))


def _build_scenario_c(n, k, seed, cache, c=2, window=0):
    from repro.core.scenario_c import WakeupProtocol

    # window=0 means "the paper's default" (derived from n); the explicit
    # values are what the E10 window-length ablation sweeps.
    return WakeupProtocol(n, c=c, window=window or None, seed=seed)


def _build_komlos_greenberg(n, k, seed, cache):
    from repro.baselines import KomlosGreenberg

    return KomlosGreenberg(n, k, families=cache.concatenation(n, k, seed=seed))


def _build_local_clock(n, k, seed, cache):
    from repro.core.local_clock import LocalClockWakeup

    return LocalClockWakeup(n, k, families=cache.concatenation(n, k, seed=seed))


def _build_local_clock_c(n, k, seed, cache):
    from repro.core.local_clock import LocalClockScenarioC

    return LocalClockScenarioC(n, seed=seed)


def _build_rpd(n, k, seed, cache):
    from repro.core.randomized import RepeatedProbabilityDecrease

    return RepeatedProbabilityDecrease(n)


def _build_rpd_known_k(n, k, seed, cache):
    from repro.core.randomized import RepeatedProbabilityDecrease

    return RepeatedProbabilityDecrease(n, k=k)


def _build_aloha(n, k, seed, cache):
    from repro.baselines import tuned_aloha

    return tuned_aloha(n, k)


def _build_beb(n, k, seed, cache):
    from repro.baselines import BinaryExponentialBackoff

    # Construction is deterministic; the backoff draws come from per-pattern
    # child streams at simulation time (run_feedback_batch / the slot loop),
    # which is what keeps sweep results worker-count invariant.
    return BinaryExponentialBackoff(n)


def _build_tree_splitting(n, k, seed, cache):
    from repro.baselines import TreeSplitting

    return TreeSplitting(n)


def _build_wait_and_go(n, k, seed, cache):
    from repro.core.scenario_b import WaitAndGo

    return WaitAndGo(n, k, families=cache.concatenation(n, k, seed=seed))


def _build_select_first(n, k, seed, cache):
    from repro.core.scenario_a import SelectAmongTheFirst

    # The non-interleaved Scenario A arm (the E10 interleaving ablation);
    # like scenario-a it selects among the first s=0 and ignores k.
    return SelectAmongTheFirst(n, 0, cache.concatenation(n, n, seed=seed))


def _build_decay(n, k, seed, cache):
    from repro.core.randomized import DecayPolicy

    return DecayPolicy(n)


register_protocol("round-robin", _build_round_robin)
register_protocol("tdma", _build_tdma)
register_protocol("scenario-a", _build_scenario_a)
register_protocol("scenario-b", _build_scenario_b)
register_protocol("scenario-c", _build_scenario_c)
register_protocol("komlos-greenberg", _build_komlos_greenberg)
register_protocol("local-clock", _build_local_clock)
register_protocol("local-clock-c", _build_local_clock_c)
register_protocol("rpd", _build_rpd)
register_protocol("rpd-known-k", _build_rpd_known_k)
register_protocol("aloha", _build_aloha)
register_protocol("beb", _build_beb)
register_protocol("tree-splitting", _build_tree_splitting)
register_protocol("wait-and-go", _build_wait_and_go)
register_protocol("select-first", _build_select_first)
register_protocol("decay", _build_decay)
