"""Content digests pinning the Scenario C matrix kernel's outcomes.

The batched membership path behind ``WakeupProtocol`` (global clock) and
``LocalClockScenarioC`` (local clock) decides every transmit event of the
``scenario-c`` and ``local-clock-c`` sweep protocols.  These digests hash the
full outcome columns of :func:`~repro.sweeps.runner.resolve_config` --
``slots_examined`` included, so the engine's chunk layout is pinned too --
for five workloads at k in {4, 64}, n = 1024, batch 32, plus the E10
``c``/``window`` ablation shapes.  The E7 entries pin
:func:`~repro.core.waking_matrix.first_isolation` (the per-cell matrix view of
the protocol) and E7's protocol run and membership frequencies.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.scenario_c import WakeupProtocol
from repro.core.waking_matrix import first_isolation
from repro.experiments.registry import _e7_compute
from repro.sweeps.runner import resolve_config
from repro.sweeps.spec import SweepConfig
from repro.workloads import WorkloadSuite


def _record_digest(record) -> str:
    payload = json.dumps([record.protocol_label, record.columns], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: ``resolve_config(SweepConfig(protocol, 1024, k, workload, batch=32, seed))`` -> digest.
RECORD_DIGESTS = {
    ("scenario-c", "uniform", 4, 0): "c39507f0cd4fc750",
    ("scenario-c", "uniform", 4, 5): "1e78c0f4316f372a",
    ("scenario-c", "uniform", 64, 0): "838bfaa08e876770",
    ("scenario-c", "uniform", 64, 5): "bb5370ec3f2d15b5",
    ("scenario-c", "churn", 4, 0): "4c18c56b80bc4fd2",
    ("scenario-c", "churn", 4, 5): "d8f6dab1a1bbd7ee",
    ("scenario-c", "churn", 64, 0): "804913a3c957c397",
    ("scenario-c", "churn", 64, 5): "12fe6e7b6967cad5",
    ("scenario-c", "heavy-tailed", 4, 0): "d9fa42963a9a6ae1",
    ("scenario-c", "heavy-tailed", 4, 5): "8f720cc266dd9d34",
    ("scenario-c", "heavy-tailed", 64, 0): "f456404cd18235e2",
    ("scenario-c", "heavy-tailed", 64, 5): "0ee5d7de9cb354aa",
    ("scenario-c", "late-turn", 4, 0): "216f9d1bf638995c",
    ("scenario-c", "late-turn", 4, 5): "270ab585fb57261e",
    ("scenario-c", "late-turn", 64, 0): "d49689f7a3a29048",
    ("scenario-c", "late-turn", 64, 5): "b3fd4b4e03f35a96",
    ("scenario-c", "simultaneous", 4, 0): "991a2f8ed06e2856",
    ("scenario-c", "simultaneous", 4, 5): "24ab6c821129253f",
    ("scenario-c", "simultaneous", 64, 0): "a21b38a3ef65912b",
    ("scenario-c", "simultaneous", 64, 5): "56495696c26d41b0",
    ("local-clock-c", "uniform", 4, 0): "6a7fb1a1b89c99d7",
    ("local-clock-c", "uniform", 4, 5): "dbb51b90b97318de",
    ("local-clock-c", "uniform", 64, 0): "2e5500ffec128c79",
    ("local-clock-c", "uniform", 64, 5): "c32b5a398f5d80c3",
    ("local-clock-c", "churn", 4, 0): "1bcc2c95a43e9891",
    ("local-clock-c", "churn", 4, 5): "6ffe88239f6c7546",
    ("local-clock-c", "churn", 64, 0): "79182dbb9320cc7d",
    ("local-clock-c", "churn", 64, 5): "6e287b770be1bf2a",
    ("local-clock-c", "heavy-tailed", 4, 0): "e971d64ea05b7b12",
    ("local-clock-c", "heavy-tailed", 4, 5): "ae55e1e5f15e7e73",
    ("local-clock-c", "heavy-tailed", 64, 0): "4edb33d8e04d18ae",
    ("local-clock-c", "heavy-tailed", 64, 5): "5221e54d74a133fd",
    ("local-clock-c", "late-turn", 4, 0): "bfca50ff200279e8",
    ("local-clock-c", "late-turn", 4, 5): "a93058af4e0f2b34",
    ("local-clock-c", "late-turn", 64, 0): "174791d0f100197a",
    ("local-clock-c", "late-turn", 64, 5): "1c41e478fbe8ebe0",
    ("local-clock-c", "simultaneous", 4, 0): "b40b041865ff5094",
    ("local-clock-c", "simultaneous", 4, 5): "cc21549d7ce7cf69",
    ("local-clock-c", "simultaneous", 64, 0): "b2e6e16b02a751dc",
    ("local-clock-c", "simultaneous", 64, 5): "cbaa8a15a204230e",
}

#: ``scenario-c`` with ``protocol_params`` at n=1024, k=16, uniform, batch 32, seed 0.
ABLATION_DIGESTS = {
    (("c", 1),): "7f82330d208c6cfc",
    (("window", 2),): "6225c7ebbaf0b963",
    (("c", 1), ("window", 5)): "19daaf5622591821",
}

#: ``_e7_compute(20_000, seed)`` -> (isolation, success_slot, winner, frequencies digest).
E7_RESULTS = {
    0: ((3, 3), 3, 3, "204bf066b1369e21"),
    1: ((6, 11), 6, 11, "b178ba94267d55d8"),
    2: ((4, 3), 4, 3, "b0cc9fd5531f161d"),
}

#: ``first_isolation`` of the first k=64 pattern of a workload at n=1024, seed s.
ISOLATIONS = {
    (0, "uniform"): (2, 27),
    (0, "simultaneous"): (11, 177),
    (1, "uniform"): (1, 237),
    (1, "simultaneous"): (51, 677),
    (2, "uniform"): (0, 382),
    (2, "simultaneous"): (11, 827),
}


@pytest.mark.parametrize(("protocol", "workload", "k", "seed"), sorted(RECORD_DIGESTS))
def test_config_record_digest(protocol, workload, k, seed):
    config = SweepConfig(protocol=protocol, n=1024, k=k, workload=workload, batch=32, seed=seed)
    assert _record_digest(resolve_config(config)) == RECORD_DIGESTS[protocol, workload, k, seed]


@pytest.mark.parametrize("protocol_params", sorted(ABLATION_DIGESTS))
def test_ablation_record_digest(protocol_params):
    config = SweepConfig(
        protocol="scenario-c",
        n=1024,
        k=16,
        workload="uniform",
        batch=32,
        seed=0,
        protocol_params=protocol_params,
    )
    assert _record_digest(resolve_config(config)) == ABLATION_DIGESTS[protocol_params]


@pytest.mark.parametrize("seed", sorted(E7_RESULTS))
def test_e7_first_isolation(seed):
    computed = _e7_compute(20_000, seed)
    frequencies = hashlib.sha256(json.dumps(computed["frequencies"]).encode()).hexdigest()[:16]
    got = (
        tuple(computed["isolation"]),
        computed["success_slot"],
        computed["winner"],
        frequencies,
    )
    assert got == E7_RESULTS[seed]


@pytest.mark.parametrize(("seed", "workload"), sorted(ISOLATIONS))
def test_first_isolation_at_scale(seed, workload):
    protocol = WakeupProtocol(1024, seed=seed)
    pattern = WorkloadSuite().generate(workload, n=1024, k=64, batch=1, seed=seed)[0]
    got = first_isolation(protocol.matrix, pattern, max_slots=200_000)
    assert got == ISOLATIONS[seed, workload]
