"""Summary statistics over repeated simulation runs.

Experiments run every configuration over multiple seeds and/or wake-up
patterns; this module condenses the resulting latency samples into the
summary rows that the reporting layer prints.  Plain numpy is used throughout
(scipy is an optional dependency reserved for the fitting module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "SummaryStatistics",
    "sorted_median",
    "summarize",
]


@dataclass(frozen=True)
class SummaryStatistics:
    """Five-number-style summary of a latency sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    p90: float
    maximum: float

    def as_dict(self) -> dict:
        """Dictionary form used by the CSV/JSON exporters."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "median": self.median,
            "p90": self.p90,
            "max": self.maximum,
        }


def sorted_median(values: Iterable[float]) -> float:
    """Median of a non-empty sample by sorting and taking the middle.

    Equal to ``float(np.median(values))`` bit for bit on finite inputs: an
    odd sample returns its middle value and an even one averages the two
    middle values as ``(a + b) / 2`` in float64, as NumPy's median does.
    Unlike ``np.median`` it does not import ``numpy.ma`` (~20 ms on the
    first call in a process).
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot take the median of an empty sample")
    mid = len(data) // 2
    # NumPy takes the mean of the middle value(s), a sum that starts at +0.0:
    # the leading ``0.0 +`` reproduces it, down to -0.0 becoming 0.0.
    if len(data) % 2:
        return 0.0 + data[mid]
    return (0.0 + data[mid - 1] + data[mid]) / 2.0


def summarize(samples: Iterable[float]) -> SummaryStatistics:
    """Compute a :class:`SummaryStatistics` over a non-empty sample."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return SummaryStatistics(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        minimum=float(data.min()),
        median=sorted_median(data),
        p90=float(np.percentile(data, 90)),
        maximum=float(data.max()),
    )
