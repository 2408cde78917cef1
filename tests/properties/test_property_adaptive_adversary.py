"""The engine-backed replacement adversary against its scalar oracle.

:class:`~repro.channel.adversary.AdaptiveLowerBoundAdversary` resolves each
contender set with a one-pattern batch-engine scan and asks "who transmits
at the isolating round" with one ``batch_transmit_slots`` query.  The
reference below is the original formulation — the scalar slot loop
(:func:`~repro.channel.simulator.run_deterministic`) plus one
``protocol.transmits`` call per fresh station — and every report must match
it field for field, for every deterministic protocol in the name registry.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro._util import as_generator, validate_k_n
from repro.channel.adversary import (
    AdaptiveLowerBoundAdversary,
    AdversaryReport,
    random_station_subset,
)
from repro.channel.protocols import DeterministicProtocol
from repro.channel.simulator import run_deterministic
from repro.channel.wakeup import WakeupPattern
from repro.sweeps.protocols import build_protocol, protocol_names


def scalar_adversary(
    protocol: DeterministicProtocol,
    k: int,
    *,
    max_slots: int,
    initial: Optional[Sequence[int]] = None,
    rng=None,
) -> AdversaryReport:
    """The replacement process on the scalar simulator (the oracle)."""
    n = protocol.n
    k, n = validate_k_n(k, n)
    gen = as_generator(rng)
    if initial is not None:
        current = sorted(int(u) for u in initial)
    else:
        current = random_station_subset(n, k, gen)
    fresh = [u for u in range(1, n + 1) if u not in set(current)]
    gen.shuffle(fresh)

    isolating_slots: List[int] = []
    latencies: List[int] = []
    histories: List[Tuple[int, ...]] = []
    iterations = max(1, min(k, n - k) if n > k else 1)
    for _ in range(iterations):
        pattern = WakeupPattern(n, {u: 0 for u in current})
        result = run_deterministic(protocol, pattern, max_slots=max_slots)
        histories.append(tuple(current))
        if not result.solved:
            latencies.append(max_slots)
            break
        isolating_slots.append(result.success_slot)
        latencies.append(result.require_solved())
        if not fresh:
            break
        transmitting_at_r = {
            u for u in fresh if protocol.transmits(u, 0, result.success_slot)
        }
        preferred = [u for u in fresh if u not in transmitting_at_r]
        replacement = preferred[-1] if preferred else fresh[-1]
        fresh.remove(replacement)
        current = sorted(set(current) - {result.winner} | {replacement})

    return AdversaryReport(
        n=n,
        k=k,
        protocol=protocol.describe(),
        distinct_isolating_slots=len(set(isolating_slots)),
        max_latency=max(latencies) if latencies else 0,
        latencies=tuple(latencies),
        contender_sets=tuple(histories),
    )


@lru_cache(maxsize=None)
def _protocol(name: str, n: int, k: int, seed: int):
    return build_protocol(name, n, k, seed=seed)


#: Every registered protocol whose construction is a deterministic protocol.
DETERMINISTIC = [
    name
    for name in protocol_names()
    if isinstance(_protocol(name, 8, 2, 0), DeterministicProtocol)
]


def test_registry_has_deterministic_protocols():
    assert {"round-robin", "scenario-a", "scenario-b", "scenario-c"} <= set(DETERMINISTIC)


def _assert_same(protocol, k, *, max_slots, seed, initial=None):
    engine = AdaptiveLowerBoundAdversary(protocol, max_slots=max_slots).run(
        k, initial=initial, rng=seed
    )
    oracle = scalar_adversary(
        protocol, k, max_slots=max_slots, initial=initial, rng=seed
    )
    assert engine == oracle
    assert engine.latencies == oracle.latencies
    assert engine.contender_sets == oracle.contender_sets
    return engine


@pytest.mark.parametrize("name", DETERMINISTIC)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=2, max_value=24),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**16),
    max_slots=st.sampled_from([3, 40, 20_000]),
)
def test_engine_adversary_equals_scalar_oracle(name, n, data, seed, max_slots):
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    protocol = _protocol(name, n, k, seed % 4)
    _assert_same(protocol, k, max_slots=max_slots, seed=seed)


@pytest.mark.parametrize("name", DETERMINISTIC)
@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_explicit_initial_set_matches_oracle(name, n, data, seed):
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    initial = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=n), min_size=k, max_size=k, unique=True
        ),
        label="initial",
    )
    protocol = _protocol(name, n, k, 0)
    report = _assert_same(protocol, k, max_slots=20_000, seed=seed, initial=initial)
    assert report.contender_sets[0] == tuple(sorted(initial))


@pytest.mark.parametrize("name", DETERMINISTIC)
@pytest.mark.parametrize("n", [1, 5, 16])
def test_k_equal_n_runs_one_round(name, n):
    protocol = _protocol(name, n, n, 0)
    report = _assert_same(protocol, n, max_slots=20_000, seed=3)
    assert len(report.contender_sets) == 1


def test_unsolved_horizon_sentinel_matches_oracle():
    # Round-robin gives slot 0 to station 1 alone; a set without station 1
    # cannot be isolated within a one-slot horizon.
    protocol = _protocol("round-robin", 12, 4, 0)
    report = _assert_same(protocol, 4, max_slots=1, seed=0, initial=[3, 5, 7, 9])
    assert report.latencies == (1,)
    assert report.distinct_isolating_slots == 0
    assert report.max_latency == 1


def test_sentinel_after_replacements_matches_oracle():
    protocol = _protocol("round-robin", 16, 4, 0)
    # Stations 1, 2 and 3 are isolated at slots 0, 1 and 2 in turn; the
    # fourth set's first isolating slot is 3, outside a three-slot horizon.
    report = _assert_same(protocol, 4, max_slots=3, seed=0, initial=[1, 2, 3, 4])
    assert report.latencies == (0, 1, 2, 3)
    assert report.distinct_isolating_slots == 3
