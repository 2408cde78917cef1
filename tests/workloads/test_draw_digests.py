"""Content digests pinning every built-in workload draw and a few sweep records.

Every bound in the paper is a worst case over wake-up patterns, so every
empirical number in the library is a max or mean over drawn patterns.  These
digests hash each batch's ``(station, wake)`` pairs in ``wake_times``
insertion order -- the order the randomized engines draw in -- so any change
to a generator's RNG stream, its draw order, its station order or its
representation shows up here as a mismatch.  The record digests hash the full
outcome columns of :func:`~repro.sweeps.runner.resolve_config` for one
deterministic, one oblivious-randomized and one feedback protocol.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.sweeps.runner import resolve_config
from repro.sweeps.spec import SweepConfig
from repro.workloads import WORKLOADS, WorkloadSuite

BUILTIN_WORKLOADS = (
    "batched",
    "churn",
    "clustered-ids",
    "density-sweep",
    "duty-cycle",
    "family-boundary",
    "heavy-tailed",
    "late-turn",
    "simultaneous",
    "staggered",
    "uniform",
    "window-boundary",
)


def _draw_digest(patterns) -> str:
    h = hashlib.sha256()
    for p in patterns:
        h.update(f"{p.n}|".encode())
        h.update(";".join(f"{u}@{t}" for u, t in p.wake_times.items()).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _record_digest(record) -> str:
    payload = json.dumps([record.protocol_label, record.columns], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: ``WorkloadSuite().generate(name, n=n, k=k, batch=8, seed=seed)`` -> digest.
DRAW_DIGESTS = {
    ("batched", 64, 1, 0): "a300cf6dc515f4c5",
    ("batched", 64, 1, 1): "4bcacaa84725542a",
    ("batched", 64, 1, 7): "482bdb3eedbea8fc",
    ("batched", 64, 4, 0): "857e7a3b86f4d5b0",
    ("batched", 64, 4, 1): "f692fd1041dcf2b2",
    ("batched", 64, 4, 7): "db5950b325ecc7f5",
    ("batched", 64, 64, 0): "31beb1a58c82766e",
    ("batched", 64, 64, 1): "31beb1a58c82766e",
    ("batched", 64, 64, 7): "31beb1a58c82766e",
    ("batched", 1024, 1, 0): "9e89c66b58a0e329",
    ("batched", 1024, 1, 1): "4f179aaa1763beca",
    ("batched", 1024, 1, 7): "943b5bf8e1778745",
    ("batched", 1024, 4, 0): "af5b41d256112642",
    ("batched", 1024, 4, 1): "05de83baf69bc61d",
    ("batched", 1024, 4, 7): "5c6f6104d14c1673",
    ("batched", 1024, 64, 0): "80561c761528e401",
    ("batched", 1024, 64, 1): "014f17499718dac0",
    ("batched", 1024, 64, 7): "117e85dc9aa5866e",
    ("churn", 64, 1, 0): "10dfea02d91bf710",
    ("churn", 64, 1, 1): "599d610de6159d1f",
    ("churn", 64, 1, 7): "521c526e5c3ea1ce",
    ("churn", 64, 4, 0): "57bab692d9fbbd8e",
    ("churn", 64, 4, 1): "fd770be8182fd6c1",
    ("churn", 64, 4, 7): "442372b2ad43ecc9",
    ("churn", 64, 64, 0): "70897d4686c5cd0f",
    ("churn", 64, 64, 1): "a23ab84b738093b7",
    ("churn", 64, 64, 7): "db01158f2a53d40d",
    ("churn", 1024, 1, 0): "b363b96849998d3b",
    ("churn", 1024, 1, 1): "ea3612229476b4e2",
    ("churn", 1024, 1, 7): "d43295428d0f9844",
    ("churn", 1024, 4, 0): "8dc2c8afa74f98d4",
    ("churn", 1024, 4, 1): "152d8342873eed5e",
    ("churn", 1024, 4, 7): "2bf5a7512c15eea8",
    ("churn", 1024, 64, 0): "99f1bc07adfde09e",
    ("churn", 1024, 64, 1): "73f78b3e9e529f1e",
    ("churn", 1024, 64, 7): "d1af95acb4b33a30",
    ("clustered-ids", 64, 1, 0): "f1bb2fdf6ef14242",
    ("clustered-ids", 64, 1, 1): "bdef4a432e9ef1aa",
    ("clustered-ids", 64, 1, 7): "1f5a9bf37e1e6bb6",
    ("clustered-ids", 64, 4, 0): "207e3ef5c29edfc3",
    ("clustered-ids", 64, 4, 1): "27de023a5103b2cd",
    ("clustered-ids", 64, 4, 7): "7ab9854d71f8fbb5",
    ("clustered-ids", 64, 64, 0): "98eedebb1d755560",
    ("clustered-ids", 64, 64, 1): "6a33d6357638057b",
    ("clustered-ids", 64, 64, 7): "0c12ddc400fa39f2",
    ("clustered-ids", 1024, 1, 0): "97a423248c1c6511",
    ("clustered-ids", 1024, 1, 1): "09e7d6701331c479",
    ("clustered-ids", 1024, 1, 7): "9ac095a0c23dfccd",
    ("clustered-ids", 1024, 4, 0): "835a47360fb4e172",
    ("clustered-ids", 1024, 4, 1): "29f1a254b1c461f9",
    ("clustered-ids", 1024, 4, 7): "f40bbb1ac2541f7f",
    ("clustered-ids", 1024, 64, 0): "d2a580e8c2ceb254",
    ("clustered-ids", 1024, 64, 1): "6f4518112ef37511",
    ("clustered-ids", 1024, 64, 7): "1e643f1ab36c702b",
    ("density-sweep", 64, 1, 0): "a1ff2e0d2ae94103",
    ("density-sweep", 64, 1, 1): "93a2a41f9e647b7a",
    ("density-sweep", 64, 1, 7): "418113be1ad670b1",
    ("density-sweep", 64, 4, 0): "ede9b1fe13b3f58a",
    ("density-sweep", 64, 4, 1): "b837cbf66905ceb3",
    ("density-sweep", 64, 4, 7): "eb8914072cd03cad",
    ("density-sweep", 64, 64, 0): "67d0fafe27830fb6",
    ("density-sweep", 64, 64, 1): "6e5facbc6aaac4d2",
    ("density-sweep", 64, 64, 7): "863dfdb258a6ae49",
    ("density-sweep", 1024, 1, 0): "780bf6d5045decf8",
    ("density-sweep", 1024, 1, 1): "9b694ae1ceadca19",
    ("density-sweep", 1024, 1, 7): "661c0fbb327c260d",
    ("density-sweep", 1024, 4, 0): "8d2c14e54d06f13c",
    ("density-sweep", 1024, 4, 1): "c737cf830708fa07",
    ("density-sweep", 1024, 4, 7): "c2f6900e2168fd41",
    ("density-sweep", 1024, 64, 0): "15569b719076a019",
    ("density-sweep", 1024, 64, 1): "a6a0afb992e6a378",
    ("density-sweep", 1024, 64, 7): "b46c3805670184f2",
    ("duty-cycle", 64, 1, 0): "1af565868e1b6e3c",
    ("duty-cycle", 64, 1, 1): "ee71ca3092e6059a",
    ("duty-cycle", 64, 1, 7): "08f3464b87465f17",
    ("duty-cycle", 64, 4, 0): "8ff656684c6d67c7",
    ("duty-cycle", 64, 4, 1): "f7b1f49a6955df6d",
    ("duty-cycle", 64, 4, 7): "f1220c84f887f1a6",
    ("duty-cycle", 64, 64, 0): "10dabe202b29c015",
    ("duty-cycle", 64, 64, 1): "73f308a91360bd65",
    ("duty-cycle", 64, 64, 7): "b01e6fd0ad3bd278",
    ("duty-cycle", 1024, 1, 0): "bd9cb0cc1a62e0e6",
    ("duty-cycle", 1024, 1, 1): "70a0c0a6c6fccdea",
    ("duty-cycle", 1024, 1, 7): "9bbef641cbc6f15b",
    ("duty-cycle", 1024, 4, 0): "f28f0c327b1835df",
    ("duty-cycle", 1024, 4, 1): "598b7f1c6c6c7110",
    ("duty-cycle", 1024, 4, 7): "3fabc67b8bbd28fe",
    ("duty-cycle", 1024, 64, 0): "8d33c4caf9d765ea",
    ("duty-cycle", 1024, 64, 1): "adbe3eb1fb8d5dff",
    ("duty-cycle", 1024, 64, 7): "67d2be4d1c2bf96f",
    ("family-boundary", 64, 1, 0): "2eec2004ae42aaf8",
    ("family-boundary", 64, 1, 1): "3867bb97c2334905",
    ("family-boundary", 64, 1, 7): "1fcc43df7be35ac3",
    ("family-boundary", 64, 4, 0): "ba3d7ca7192b7cee",
    ("family-boundary", 64, 4, 1): "85b578e351c8586d",
    ("family-boundary", 64, 4, 7): "73b9a60b29144f45",
    ("family-boundary", 64, 64, 0): "879cc73f7731300a",
    ("family-boundary", 64, 64, 1): "879cc73f7731300a",
    ("family-boundary", 64, 64, 7): "879cc73f7731300a",
    ("family-boundary", 1024, 1, 0): "0a7537d077380e6a",
    ("family-boundary", 1024, 1, 1): "eb0ece74b171fc2f",
    ("family-boundary", 1024, 1, 7): "824866496a75227b",
    ("family-boundary", 1024, 4, 0): "e0085d8f02520118",
    ("family-boundary", 1024, 4, 1): "75b38cfa61c4bb0b",
    ("family-boundary", 1024, 4, 7): "b0c5dfea28516703",
    ("family-boundary", 1024, 64, 0): "f7ff71ba1d855650",
    ("family-boundary", 1024, 64, 1): "294713d07dd5fc08",
    ("family-boundary", 1024, 64, 7): "0729e12e67934470",
    ("heavy-tailed", 64, 1, 0): "e6c1436236efe27b",
    ("heavy-tailed", 64, 1, 1): "efa8fe9f02f9f487",
    ("heavy-tailed", 64, 1, 7): "0e0d9b07b4dfed94",
    ("heavy-tailed", 64, 4, 0): "3c1a4ac4a8c24fd1",
    ("heavy-tailed", 64, 4, 1): "de528469dbfd1d2a",
    ("heavy-tailed", 64, 4, 7): "dd5b884d44584f53",
    ("heavy-tailed", 64, 64, 0): "0234f6431732108b",
    ("heavy-tailed", 64, 64, 1): "a759f40b7a522988",
    ("heavy-tailed", 64, 64, 7): "b4b46fa1ef4ea3d5",
    ("heavy-tailed", 1024, 1, 0): "aa1cec5ae08f4f82",
    ("heavy-tailed", 1024, 1, 1): "d079efc11f2a8c2f",
    ("heavy-tailed", 1024, 1, 7): "5458bc366f021b6d",
    ("heavy-tailed", 1024, 4, 0): "77357b825e996601",
    ("heavy-tailed", 1024, 4, 1): "b5f2df65a2084f7e",
    ("heavy-tailed", 1024, 4, 7): "a271f52e30c80c1f",
    ("heavy-tailed", 1024, 64, 0): "84bdbe7e71bc73b1",
    ("heavy-tailed", 1024, 64, 1): "dea037cc6e8023aa",
    ("heavy-tailed", 1024, 64, 7): "0e1635ad84a9281e",
    ("late-turn", 64, 1, 0): "c642c0b8c4872645",
    ("late-turn", 64, 1, 1): "c642c0b8c4872645",
    ("late-turn", 64, 1, 7): "c642c0b8c4872645",
    ("late-turn", 64, 4, 0): "bcecff73a3027950",
    ("late-turn", 64, 4, 1): "bcecff73a3027950",
    ("late-turn", 64, 4, 7): "bcecff73a3027950",
    ("late-turn", 64, 64, 0): "b9cf24eb5c391637",
    ("late-turn", 64, 64, 1): "b9cf24eb5c391637",
    ("late-turn", 64, 64, 7): "b9cf24eb5c391637",
    ("late-turn", 1024, 1, 0): "3e5d28af10a31f5f",
    ("late-turn", 1024, 1, 1): "3e5d28af10a31f5f",
    ("late-turn", 1024, 1, 7): "3e5d28af10a31f5f",
    ("late-turn", 1024, 4, 0): "ea416bad38ce442e",
    ("late-turn", 1024, 4, 1): "ea416bad38ce442e",
    ("late-turn", 1024, 4, 7): "ea416bad38ce442e",
    ("late-turn", 1024, 64, 0): "bc137781fe858762",
    ("late-turn", 1024, 64, 1): "bc137781fe858762",
    ("late-turn", 1024, 64, 7): "bc137781fe858762",
    ("simultaneous", 64, 1, 0): "a0fca5ed80c2263f",
    ("simultaneous", 64, 1, 1): "82d752358a3abcd2",
    ("simultaneous", 64, 1, 7): "4a70e389bd89e1a4",
    ("simultaneous", 64, 4, 0): "ff2448953984fa64",
    ("simultaneous", 64, 4, 1): "5756d29a5fa4da53",
    ("simultaneous", 64, 4, 7): "347a5dc85682775f",
    ("simultaneous", 64, 64, 0): "b9cf24eb5c391637",
    ("simultaneous", 64, 64, 1): "b9cf24eb5c391637",
    ("simultaneous", 64, 64, 7): "b9cf24eb5c391637",
    ("simultaneous", 1024, 1, 0): "801368a6a9843ee8",
    ("simultaneous", 1024, 1, 1): "a111828e4e925be7",
    ("simultaneous", 1024, 1, 7): "adc62875350fcd73",
    ("simultaneous", 1024, 4, 0): "863f37cdebce9c53",
    ("simultaneous", 1024, 4, 1): "4d0b15e09243e463",
    ("simultaneous", 1024, 4, 7): "cc8e0345574ec327",
    ("simultaneous", 1024, 64, 0): "f7117daf760886cf",
    ("simultaneous", 1024, 64, 1): "cbb7d9eea6403307",
    ("simultaneous", 1024, 64, 7): "db60d341dad6e7e1",
    ("staggered", 64, 1, 0): "2da117153bf43b2a",
    ("staggered", 64, 1, 1): "e081ccc1bacf8986",
    ("staggered", 64, 1, 7): "355d4cf6e8a8b6ed",
    ("staggered", 64, 4, 0): "eaa99f841d0dc1a5",
    ("staggered", 64, 4, 1): "8e45e6ed97f8d4a0",
    ("staggered", 64, 4, 7): "68e9f56da8ab8e3f",
    ("staggered", 64, 64, 0): "a40b79e87df813c4",
    ("staggered", 64, 64, 1): "a40b79e87df813c4",
    ("staggered", 64, 64, 7): "a40b79e87df813c4",
    ("staggered", 1024, 1, 0): "6ace3e4e1d3b2507",
    ("staggered", 1024, 1, 1): "56b96cfbdf1548c2",
    ("staggered", 1024, 1, 7): "7e86dcaaf6abb68b",
    ("staggered", 1024, 4, 0): "e6dfcbc7a93c1b1f",
    ("staggered", 1024, 4, 1): "580dc747e8968334",
    ("staggered", 1024, 4, 7): "95135fb75fd61390",
    ("staggered", 1024, 64, 0): "71d45efdcf42d3cb",
    ("staggered", 1024, 64, 1): "ae820d4048a2ee05",
    ("staggered", 1024, 64, 7): "b874b5025b238d45",
    ("uniform", 64, 1, 0): "9dadb837fbb34c16",
    ("uniform", 64, 1, 1): "a100db475d151939",
    ("uniform", 64, 1, 7): "d99d748afa5893f0",
    ("uniform", 64, 4, 0): "7eed60fe8f3636a2",
    ("uniform", 64, 4, 1): "948617b4da5a3259",
    ("uniform", 64, 4, 7): "2e455c9f50ca6c40",
    ("uniform", 64, 64, 0): "4f472d334fb3d4e4",
    ("uniform", 64, 64, 1): "dadc0288e2175e58",
    ("uniform", 64, 64, 7): "1c5dbdd0a0e1a194",
    ("uniform", 1024, 1, 0): "a5b33ace4b78c573",
    ("uniform", 1024, 1, 1): "cf9eb304ac214344",
    ("uniform", 1024, 1, 7): "38e3d85424a959ae",
    ("uniform", 1024, 4, 0): "b4af29965ecdee09",
    ("uniform", 1024, 4, 1): "34eee09bb1ca0efa",
    ("uniform", 1024, 4, 7): "dc102f1ffb1b9193",
    ("uniform", 1024, 64, 0): "078b2c2b3ba2d505",
    ("uniform", 1024, 64, 1): "44ed7a99c2ea512a",
    ("uniform", 1024, 64, 7): "4d176b872a57a45c",
    ("window-boundary", 64, 1, 0): "2a41b73fab610222",
    ("window-boundary", 64, 1, 1): "2c3798f4df4f83d5",
    ("window-boundary", 64, 1, 7): "1f0d55d6fbb42c6c",
    ("window-boundary", 64, 4, 0): "a01da0bff61146d3",
    ("window-boundary", 64, 4, 1): "b29eb2096e62d53f",
    ("window-boundary", 64, 4, 7): "662914d91eeeb2a2",
    ("window-boundary", 64, 64, 0): "fefcfc3f6a062388",
    ("window-boundary", 64, 64, 1): "fefcfc3f6a062388",
    ("window-boundary", 64, 64, 7): "fefcfc3f6a062388",
    ("window-boundary", 1024, 1, 0): "88800e9aed9ef07e",
    ("window-boundary", 1024, 1, 1): "0f05b9c08aaf5e47",
    ("window-boundary", 1024, 1, 7): "d4f6764ac75af6a2",
    ("window-boundary", 1024, 4, 0): "ecde42ff345ef93c",
    ("window-boundary", 1024, 4, 1): "a2ed61841d8a572b",
    ("window-boundary", 1024, 4, 7): "550cd4a439821237",
    ("window-boundary", 1024, 64, 0): "3a422cd2b42475b7",
    ("window-boundary", 1024, 64, 1): "412dd1ae6e67bd54",
    ("window-boundary", 1024, 64, 7): "f581fced619e5dca",
}

#: ``resolve_config(SweepConfig(protocol, 64, 8, workload, batch=16, seed))`` -> digest.
RECORD_DIGESTS = {
    ("scenario-b", "uniform", 0): "c36f7776b4a9feb0",
    ("scenario-b", "uniform", 3): "6f7d33670e11b279",
    ("scenario-b", "churn", 0): "f02f582a4aea09c3",
    ("scenario-b", "churn", 3): "1aeccc27fdc7ebd2",
    ("scenario-b", "late-turn", 0): "ac54c0fd5ee596f1",
    ("scenario-b", "late-turn", 3): "d84517e93c3f7263",
    ("rpd", "uniform", 0): "ef0b3e6db8a946b9",
    ("rpd", "uniform", 3): "01ca34ec0f253d78",
    ("rpd", "churn", 0): "9f5b6164419cb20d",
    ("rpd", "churn", 3): "6a924e1b9abe2cdf",
    ("rpd", "late-turn", 0): "1c674cbd0cfaadc7",
    ("rpd", "late-turn", 3): "4df510b223901d35",
    ("beb", "uniform", 0): "32f7fc2dbbfae112",
    ("beb", "uniform", 3): "fec1b88119c840fa",
    ("beb", "churn", 0): "72625baca52e8463",
    ("beb", "churn", 3): "bc954bb9f7b30be4",
    ("beb", "late-turn", 0): "2a4916e938a6b2d5",
    ("beb", "late-turn", 3): "c0489a0a3a8aa840",
}


def test_every_builtin_workload_is_pinned():
    assert set(BUILTIN_WORKLOADS) <= set(WORKLOADS)
    assert {key[0] for key in DRAW_DIGESTS} == set(BUILTIN_WORKLOADS)


@pytest.mark.parametrize(("name", "n", "k", "seed"), sorted(DRAW_DIGESTS))
def test_draw_digest(name, n, k, seed):
    patterns = WorkloadSuite().generate(name, n=n, k=k, batch=8, seed=seed)
    assert _draw_digest(patterns) == DRAW_DIGESTS[name, n, k, seed]


@pytest.mark.parametrize(("protocol", "workload", "seed"), sorted(RECORD_DIGESTS))
def test_config_record_digest(protocol, workload, seed):
    config = SweepConfig(protocol=protocol, n=64, k=8, workload=workload, batch=16, seed=seed)
    assert _record_digest(resolve_config(config)) == RECORD_DIGESTS[protocol, workload, seed]
