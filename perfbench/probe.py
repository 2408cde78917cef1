"""Calibration probe, reference-second rescaling and the summary statistics.

The host this benchmark runs on changes speed under it: a fixed loop can
take 60% longer from one second to the next, with CPU time equal to wall
time.  Every timed interval is therefore bracketed by a calibration probe —
fixed pure-Python code that allocates nothing that survives it and shares
no cache with the program — and reported in *reference seconds*::

    reference = raw * PROBE_REF_S / mean(probe before, probe after)

``PROBE_REF_S`` is a constant chosen once, so reference seconds compare
across runs, commits and hosts; it must never be edited.  Raw seconds are
printed beside every gated number but are never gated.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: Reference duration of one probe, in seconds.  Fixed forever: changing it
#: would rescale every recorded result.
PROBE_REF_S = 0.010

#: Rounds of the probe body (about 10 ms in total on a 2020s x86 core).
PROBE_ROUNDS = 10


def probe() -> float:
    """Run the fixed calibration code once; returns its wall time in seconds.

    The body mixes what the program's Python side does — hashing integers
    into sets and dicts, freezing a set, integer arithmetic — and drops
    everything it built before returning.
    """
    t0 = time.perf_counter()
    acc = 0
    for r in range(PROBE_ROUNDS):
        members = set()
        for i in range(2500):
            members.add((i * 7919 + r) % 10007)
        table = {i: i ^ r for i in range(1500)}
        acc += len(frozenset(members)) + len(table)
        for i in range(6000):
            acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


#: Probes averaged at each end of a timed window and of a set-up.  A window
#: without progress hooks inside it (a warm campaign) is one long lap, so
#: the probes at its ends set its whole scale.
EDGE_PROBES = 5


def probe_mean(rounds: int) -> float:
    """Mean of ``rounds`` back-to-back probes: a steadier reading for a long interval."""
    return sum(probe() for _ in range(rounds)) / rounds


class Clock:
    """Records laps between calibration probes, for later rescaling.

    Probes split the run into *segments*; every lap remembers the segment it
    fell in, and :func:`rescale` scales it by the mean of the two probes that
    close that segment.  Probe time itself is never part of a lap.
    """

    def __init__(self, min_segment_s: float = 0.2) -> None:
        self.min_segment_s = min_segment_s
        self.probes: List[float] = []
        self.laps: List[Tuple[str, float, int]] = []
        self._mark = time.perf_counter()
        self._segment_start = self._mark

    def probe(self, rounds: int = 1) -> None:
        """Close the current segment with a probe (and open the next one)."""
        self.probes.append(probe_mean(rounds))
        self._mark = self._segment_start = time.perf_counter()

    def maybe_probe(self) -> None:
        """Probe when the open segment has lasted at least ``min_segment_s``."""
        if time.perf_counter() - self._segment_start >= self.min_segment_s:
            self.probe()

    def mark(self) -> None:
        """Start the next lap now."""
        self._mark = time.perf_counter()

    def lap(self, tag: str) -> float:
        """End the lap started at the last mark/lap/probe; returns raw seconds."""
        now = time.perf_counter()
        raw = now - self._mark
        self.laps.append((tag, raw, len(self.probes) - 1))
        self._mark = now
        return raw

    def export(self) -> Dict[str, list]:
        return {"probes": list(self.probes), "laps": [list(lap) for lap in self.laps]}


def rescale(
    laps: Sequence[Sequence], probes: Sequence[float], ref: float = PROBE_REF_S
) -> Dict[str, List[Tuple[float, float]]]:
    """Per tag, the ``(reference, raw)`` seconds of every lap, in lap order.

    A lap in segment ``i`` lies between ``probes[i]`` and ``probes[i + 1]``;
    it is scaled by ``ref / mean(probes[i], probes[i + 1])``.  A lap without
    a probe on both sides is an error: the run forgot its closing probe.
    """
    out: Dict[str, List[Tuple[float, float]]] = {}
    for tag, raw, segment in laps:
        if segment < 0 or segment + 1 >= len(probes):
            raise ValueError(f"lap {tag!r} in segment {segment} is not bracketed by probes")
        factor = ref / ((probes[segment] + probes[segment + 1]) / 2.0)
        out.setdefault(tag, []).append((raw * factor, raw))
    return out


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q3 - q1)


#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99, 90, 75, 50)


def tail(values: Sequence[float]) -> Tuple[int, float]:
    """``(p, value)``: the highest percentile with >= 10 samples beyond it.

    ``(0, nan)`` when there are fewer than 20 samples (not even the median
    has ten beyond it).
    """
    count = len(values)
    for p in TAIL_PERCENTILES:
        if count * (100 - p) / 100.0 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return p, float(cuts[p - 1])
    return 0, float("nan")
