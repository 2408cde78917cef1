"""Array-native pattern draws against their dict-building scalar oracles.

Every built-in generator draws a whole row with vector RNG calls and builds
its pattern through :meth:`~repro.channel.wakeup.WakeupPattern.from_arrays`.
The references below are the generator bodies those replaced: one scalar
``gen.integers`` call per station, a sorted Python list of stations and a
dict built pair by pair.  For every generator and any ``(n, k, seed,
params)`` the two must produce equal patterns *in the same insertion order*
(the order the randomized engines draw in) and leave the generator at the
same stream position.  The NumPy facts the vector draws rest on are pinned
at the bottom of the file.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro._util import as_generator, validate_k_n
from repro.channel.adversary import (
    batched_pattern,
    family_boundary_pattern,
    simultaneous_pattern,
    staggered_pattern,
    uniform_random_pattern,
    window_boundary_pattern,
)
from repro.channel.wakeup import WakeupPattern
from repro.workloads.generators import (
    churn_burst_pattern,
    clustered_id_pattern,
    density_drawn_pattern,
    duty_cycle_pattern,
    heavy_tailed_pattern,
    late_turn_pattern,
)

# ---------------------------------------------------------------------------
# The scalar oracle: the dict-building generator bodies
# ---------------------------------------------------------------------------


def oracle_station_subset(n, k, rng=None):
    gen = as_generator(rng)
    return sorted(int(u) + 1 for u in gen.choice(n, size=k, replace=False))


def oracle_simultaneous(n, k, *, start=0, stations=None, rng=None):
    k, n = validate_k_n(k, n)
    chosen = list(stations) if stations is not None else oracle_station_subset(n, k, rng)
    return WakeupPattern(n, {u: start for u in chosen})


def oracle_staggered(n, k, *, start=0, gap=1, stations=None, rng=None):
    k, n = validate_k_n(k, n)
    chosen = list(stations) if stations is not None else oracle_station_subset(n, k, rng)
    return WakeupPattern(n, {u: start + i * gap for i, u in enumerate(chosen)})


def oracle_batched(n, k, *, start=0, batch_size=4, batch_gap=16, stations=None, rng=None):
    k, n = validate_k_n(k, n)
    chosen = list(stations) if stations is not None else oracle_station_subset(n, k, rng)
    times = {}
    for i, u in enumerate(chosen):
        batch = i // batch_size
        times[u] = start + batch * batch_gap
    return WakeupPattern(n, times)


def oracle_uniform(n, k, *, start=0, window=128, stations=None, rng=None):
    k, n = validate_k_n(k, n)
    gen = as_generator(rng)
    chosen = list(stations) if stations is not None else oracle_station_subset(n, k, gen)
    times = {u: start + int(gen.integers(0, window)) for u in chosen}
    times[chosen[0]] = start
    return WakeupPattern(n, times)


def oracle_window_boundary(n, k, *, window_length, start=0, stations=None, rng=None):
    k, n = validate_k_n(k, n)
    chosen = list(stations) if stations is not None else oracle_station_subset(n, k, rng)
    offset = 1 if window_length > 1 else 0
    times = {u: start + i * window_length + offset for i, u in enumerate(chosen)}
    return WakeupPattern(n, times)


def oracle_family_boundary(n, k, *, boundaries, start=0, stations=None, rng=None):
    k, n = validate_k_n(k, n)
    chosen = list(stations) if stations is not None else oracle_station_subset(n, k, rng)
    sorted_bounds = sorted(int(b) for b in boundaries)
    times = {}
    for i, u in enumerate(chosen):
        b = sorted_bounds[i % len(sorted_bounds)]
        times[u] = max(start, b + 1)
    times[chosen[0]] = start
    return WakeupPattern(n, times)


def oracle_heavy_tailed(
    n, k, *, start=0, scale=8.0, alpha=1.2, cap=100_000, stations=None, rng=None
):
    k, n = validate_k_n(k, n)
    gen = as_generator(rng)
    chosen = list(stations) if stations is not None else oracle_station_subset(n, k, gen)
    offsets = np.minimum(np.floor(scale * gen.pareto(alpha, size=k)).astype(np.int64), cap)
    times = {u: start + int(o) for u, o in zip(chosen, offsets)}
    times[chosen[0]] = start
    return WakeupPattern(n, times)


def oracle_duty_cycle(
    n, k, *, start=0, period=64, periods=4, active_fraction=0.25, stations=None, rng=None
):
    k, n = validate_k_n(k, n)
    gen = as_generator(rng)
    chosen = list(stations) if stations is not None else oracle_station_subset(n, k, gen)
    active_len = max(1, int(period * active_fraction))
    cycle = gen.integers(0, periods, size=k)
    offset = gen.integers(0, active_len, size=k)
    times = {u: start + int(c) * period + int(o) for u, c, o in zip(chosen, cycle, offset)}
    times[chosen[0]] = start
    return WakeupPattern(n, times)


def oracle_churn(
    n, k, *, start=0, bursts=3, burst_gap=48, spread=2, stations=None, rng=None
):
    k, n = validate_k_n(k, n)
    gen = as_generator(rng)
    chosen = list(stations) if stations is not None else oracle_station_subset(n, k, gen)
    jitter = gen.integers(0, spread + 1, size=k)
    times = {
        u: start + (i % bursts) * burst_gap + int(jitter[i]) for i, u in enumerate(chosen)
    }
    times[chosen[0]] = start
    return WakeupPattern(n, times)


def oracle_clustered(n, k, *, start=0, clusters=2, window=32, rng=None):
    k, n = validate_k_n(k, n)
    clusters = min(clusters, k)
    gen = as_generator(rng)
    sizes = [k // clusters + (1 if c < k % clusters else 0) for c in range(clusters)]
    chosen = set()
    for size in sizes:
        base = int(gen.integers(1, n - size + 2))
        chosen.update(range(base, base + size))
    pool = [u for u in range(1, n + 1) if u not in chosen]
    shortfall = k - len(chosen)
    if shortfall > 0:
        extra = gen.choice(len(pool), size=shortfall, replace=False)
        chosen.update(pool[int(i)] for i in extra)
    ordered = sorted(chosen)[:k]
    times = {u: start + int(gen.integers(0, window)) for u in ordered}
    times[ordered[0]] = start
    return WakeupPattern(n, times)


def oracle_late_turn(n, k, *, start=0, gap=0, rng=None):
    k, n = validate_k_n(k, n)
    stations = list(range(n - k + 1, n + 1))
    if gap == 0:
        return oracle_simultaneous(n, k, start=start, stations=stations)
    return oracle_staggered(n, k, start=start, gap=gap, stations=stations)


def oracle_density(n, k, *, start=0, window=128, k_min=2, rng=None):
    k, n = validate_k_n(k, n)
    k_min = max(1, min(int(k_min), k))
    gen = as_generator(rng)
    log_lo, log_hi = np.log(k_min), np.log(k + 1)
    k_eff = min(k, int(np.exp(gen.uniform(log_lo, log_hi))))
    return oracle_uniform(n, max(k_min, k_eff), start=start, window=window, rng=gen)


# ---------------------------------------------------------------------------
# Parameter strategies, one per generator
# ---------------------------------------------------------------------------

_start = st.integers(0, 1_000)

#: name -> (array generator, oracle, params strategy, accepts ``stations=``)
CASES: Dict[str, tuple] = {
    "simultaneous": (
        simultaneous_pattern,
        oracle_simultaneous,
        st.fixed_dictionaries({"start": _start}),
        True,
    ),
    "staggered": (
        staggered_pattern,
        oracle_staggered,
        st.fixed_dictionaries({"start": _start, "gap": st.integers(0, 50)}),
        True,
    ),
    "batched": (
        batched_pattern,
        oracle_batched,
        st.fixed_dictionaries(
            {"start": _start, "batch_size": st.integers(1, 10), "batch_gap": st.integers(0, 50)}
        ),
        True,
    ),
    "uniform": (
        uniform_random_pattern,
        oracle_uniform,
        st.fixed_dictionaries({"start": _start, "window": st.integers(1, 300)}),
        True,
    ),
    "window-boundary": (
        window_boundary_pattern,
        oracle_window_boundary,
        st.fixed_dictionaries({"start": _start, "window_length": st.integers(1, 20)}),
        True,
    ),
    "family-boundary": (
        family_boundary_pattern,
        oracle_family_boundary,
        st.fixed_dictionaries(
            {
                "start": _start,
                "boundaries": st.lists(st.integers(0, 2_000), min_size=1, max_size=12),
            }
        ),
        True,
    ),
    "heavy-tailed": (
        heavy_tailed_pattern,
        oracle_heavy_tailed,
        st.fixed_dictionaries(
            {
                "start": _start,
                "scale": st.floats(0.5, 50.0),
                "alpha": st.floats(0.3, 3.0),
                "cap": st.integers(1, 100_000),
            }
        ),
        True,
    ),
    "duty-cycle": (
        duty_cycle_pattern,
        oracle_duty_cycle,
        st.fixed_dictionaries(
            {
                "start": _start,
                "period": st.integers(1, 100),
                "periods": st.integers(1, 8),
                "active_fraction": st.floats(0.01, 1.0),
            }
        ),
        True,
    ),
    "churn": (
        churn_burst_pattern,
        oracle_churn,
        st.fixed_dictionaries(
            {
                "start": _start,
                "bursts": st.integers(1, 6),
                "burst_gap": st.integers(0, 100),
                "spread": st.integers(0, 5),
            }
        ),
        True,
    ),
    "clustered-ids": (
        clustered_id_pattern,
        oracle_clustered,
        st.fixed_dictionaries(
            {"start": _start, "clusters": st.integers(1, 5), "window": st.integers(1, 200)}
        ),
        False,
    ),
    "late-turn": (
        late_turn_pattern,
        oracle_late_turn,
        st.fixed_dictionaries({"start": _start, "gap": st.integers(0, 10)}),
        False,
    ),
    "density-sweep": (
        density_drawn_pattern,
        oracle_density,
        st.fixed_dictionaries(
            {"start": _start, "window": st.integers(1, 300), "k_min": st.integers(1, 5)}
        ),
        False,
    ),
}


@st.composite
def draws(draw, name: str):
    _, _, params, takes_stations = CASES[name]
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, min(n, 80)))
    kwargs = draw(params)
    if takes_stations and draw(st.booleans()):
        # Explicit stations keep their given order, which need not be sorted.
        kwargs["stations"] = draw(st.permutations(range(1, n + 1)))[:k]
    return n, k, draw(st.integers(0, 2**32)), kwargs


def _assert_same_draw(name, n, k, seed, kwargs):
    generator, oracle, _, _ = CASES[name]
    gen_new, gen_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = generator(n, k, rng=gen_new, **kwargs)
    old = oracle(n, k, rng=gen_old, **kwargs)
    assert new == old
    assert list(new.wake_times.items()) == list(old.wake_times.items())
    stations, times = new.pair_arrays()
    assert list(zip(stations.tolist(), times.tolist())) == list(old.wake_times.items())
    # The same amount of stream was consumed.
    assert gen_new.random() == gen_old.random()


@pytest.mark.parametrize("name", sorted(CASES))
def test_array_draw_equals_scalar_oracle(name):
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(draws(name))
    def check(case):
        n, k, seed, kwargs = case
        _assert_same_draw(name, n, k, seed, kwargs)

    check()


#: Parameters without a default, for the edge cases below.
REQUIRED = {
    "window-boundary": {"window_length": 5},
    "family-boundary": {"boundaries": [40, 3, 17]},
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize(("n", "k"), [(1, 1), (2, 2), (1024, 1), (1024, 64), (64, 64)])
def test_array_draw_equals_scalar_oracle_at_edges(name, n, k):
    for seed in (0, 1, 2**31 - 1):
        _assert_same_draw(name, n, k, seed, dict(REQUIRED.get(name, {})))


# ---------------------------------------------------------------------------
# The NumPy facts the vector draws rest on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bound", [1, 2, 128, 2**31, 2**33])
@pytest.mark.parametrize("k", [1, 7, 64])
@pytest.mark.parametrize("low", [0, 5])
def test_vector_integers_equal_scalar_calls(bound, k, low):
    vector_gen, scalar_gen = np.random.default_rng(99), np.random.default_rng(99)
    vector = vector_gen.integers(low, low + bound, size=k)
    scalar = [int(scalar_gen.integers(low, low + bound)) for _ in range(k)]
    assert vector.dtype == np.int64
    assert vector.tolist() == scalar
    assert vector_gen.bit_generator.state == scalar_gen.bit_generator.state


@pytest.mark.parametrize(("n", "k"), [(1, 1), (16, 16), (1024, 1), (1024, 64), (20_000, 500)])
def test_sorted_choice_plus_one_equals_sorted_list(n, k):
    for seed in range(5):
        array_gen, list_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = np.sort(array_gen.choice(n, size=k, replace=False)) + 1
        assert drawn.dtype == np.int64
        listed = sorted(int(u) + 1 for u in list_gen.choice(n, size=k, replace=False))
        assert drawn.tolist() == listed
        assert array_gen.bit_generator.state == list_gen.bit_generator.state
