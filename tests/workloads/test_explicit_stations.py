"""Explicit ``stations=`` are validated once, the same way, by every generator.

A generator given an explicit station list must receive exactly ``k``
distinct IDs from ``[1, n]``; anything else raises :class:`ValueError`
instead of being truncated, deduplicated, padded or failing with an
unrelated error.  Any iterable is accepted and its order is kept.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.adversary import (
    batched_pattern,
    family_boundary_pattern,
    simultaneous_pattern,
    staggered_pattern,
    uniform_random_pattern,
    window_boundary_pattern,
)
from repro.workloads.generators import (
    churn_burst_pattern,
    duty_cycle_pattern,
    heavy_tailed_pattern,
)

#: Every generator taking ``stations=``, with the parameters it requires.
GENERATORS = {
    "simultaneous": (simultaneous_pattern, {}),
    "staggered": (staggered_pattern, {}),
    "batched": (batched_pattern, {}),
    "uniform": (uniform_random_pattern, {}),
    "window-boundary": (window_boundary_pattern, {"window_length": 4}),
    "family-boundary": (family_boundary_pattern, {"boundaries": [5, 9]}),
    "heavy-tailed": (heavy_tailed_pattern, {}),
    "duty-cycle": (duty_cycle_pattern, {}),
    "churn": (churn_burst_pattern, {}),
}

BAD_STATIONS = {
    "too many": [3, 5, 7, 9],
    "too few": [3],
    "none at all": [],
    "repeated": [3, 3],
    "zero": [0, 5],
    "above n": [5, 17],
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_explicit_stations_are_validated_at_the_generator(name):
    generator, params = GENERATORS[name]
    for label, stations in BAD_STATIONS.items():
        with pytest.raises(ValueError):
            generator(16, 2, stations=stations, rng=0, **params)
            pytest.fail(f"{name} accepted {label} stations {stations}")

    good = [
        ([9, 2], [9, 2]),
        (range(14, 16), [14, 15]),
        ((u for u in (4, 1)), [4, 1]),
        (np.array([7, 3]), [7, 3]),
    ]
    for stations, expected in good:
        pattern = generator(16, 2, stations=stations, rng=0, **params)
        assert list(pattern.wake_times) == expected
