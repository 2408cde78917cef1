"""Every E1–E11 campaign cell, as a query the results service answers.

Kept apart from :mod:`repro.service.api` because it loads the experiment
registry, which the daemon itself never needs: ``repro service start``
loads only the serving path, and ``repro service query --experiment`` this
module besides.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.campaign import dedup_specs
from repro.experiments.config import QUICK, ExperimentScale
from repro.experiments.registry import DEFINITIONS
from repro.service.wire import QueryError
from repro.sweeps.spec import SweepConfig

__all__ = ["experiment_queries"]


def experiment_queries(
    experiment_id: str,
    scale: Optional[ExperimentScale] = None,
    *,
    limit: Optional[int] = None,
) -> List[SweepConfig]:
    """The campaign cells of one experiment, as queryable configs.

    Every E1–E11 plan already *is* a list of content-hashable measurement
    specs (see :mod:`repro.experiments.campaign`), so the service can answer
    any campaign cell: this helper returns the deduplicated spec list of one
    experiment at ``scale`` (default ``QUICK``), optionally truncated to the
    first ``limit`` cells.  Render-only experiments (E7/E8) plan no
    measurements and raise :class:`QueryError` instead of returning an empty
    sweep silently.
    """
    try:
        definition = DEFINITIONS[experiment_id.upper()]
    except KeyError:
        raise QueryError(
            f"unknown experiment {experiment_id!r}; valid IDs: {sorted(DEFINITIONS)}"
        ) from None
    specs = dedup_specs(definition.plan(QUICK if scale is None else scale))
    if not specs:
        raise QueryError(
            f"experiment {definition.experiment} plans no measurement specs "
            "(render-only experiment)"
        )
    if limit is not None:
        if limit < 1:
            raise QueryError(f"limit must be >= 1, got {limit}")
        specs = specs[:limit]
    return specs
