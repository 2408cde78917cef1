"""Pinned digests of whole adversarial searches and of their checkpoints.

Every strategy's proposals and mutations draw from the step stream in a
fixed order, and the randomized engines draw in each candidate's pair
order.  A change that keeps a search "equally good" but moves a single
draw, or reorders the pairs of one candidate, changes these digests.  So
do a changed tie rule, history entry, certificate field or checkpoint
byte.

Each case runs one search with a store and digests

* the result: the best certificate's ``as_dict()`` and the history, as
  canonical JSON;
* the checkpoint blob's bytes as written after every step, in step order.

The small cases cover every strategy on one deterministic protocol, one
plain randomized policy and one feedback policy.  The large cases are the
searches the ``adversary-search`` perfbench workload runs for its seed 0.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.adversary import SearchSpec, adversarial_search
from repro.sweeps.store import SweepStore


def _small(protocol: str, strategy: str, seed: int) -> SearchSpec:
    return SearchSpec(
        protocol=protocol,
        n=64,
        k=8,
        strategy=strategy,
        budget=310,
        population=20,
        seed=seed,
        window=64,
        max_slots=20_000,
    )


def _large(protocol: str, strategy: str, seed: int) -> SearchSpec:
    return SearchSpec(
        protocol=protocol,
        n=256,
        k=16,
        strategy=strategy,
        budget=1024,
        population=64,
        seed=seed,
    )


#: (spec, result digest, checkpoint digest), each the first 16 hex digits
#: of a SHA-256.
CASES = [
    (_small("scenario-b", "random", 3), "7a487de6dffa9623", "3e54864a5ca69ca0"),
    (_small("scenario-b", "anneal", 3), "d0734085a5600d8b", "cf117ee490edaa96"),
    (_small("scenario-b", "evolution", 3), "a3e6e66900e0313c", "3112351e63c0b84f"),
    (_small("scenario-b", "bandit", 3), "14057132fa2faad7", "0f1df87a97b5dc0f"),
    (_small("rpd", "random", 4), "4b2ea56dafc7589f", "7c853f2df785d889"),
    (_small("rpd", "anneal", 4), "18e4f68651ff5455", "a0bc0b0ea725cafc"),
    (_small("rpd", "evolution", 4), "bdf9c77336bbcec5", "a4f63d691312e737"),
    (_small("rpd", "bandit", 4), "8fa2ca8ece47769f", "abb5936cd75c4713"),
    (_small("beb", "random", 5), "eb25a4a8117e1f0f", "9299b4e5139950fd"),
    (_small("beb", "anneal", 5), "99657314d2210031", "4354b9f6325c7dd9"),
    (_small("beb", "evolution", 5), "87f79a3e6fa8febc", "19cc5c856f433237"),
    (_small("beb", "bandit", 5), "4f06e1395d91e82b", "3c232dff9e366c94"),
    (_large("scenario-b", "anneal", 0), "b77e9788e8e17a22", "ea3d0d76c54ac680"),
    (_large("scenario-b", "evolution", 1), "a239b2b92e64eb82", "a8dbd5729af7523a"),
    (_large("scenario-b", "bandit", 2), "914bc392eaa0670d", "f906ecb3e7aa5e8d"),
    (_large("rpd", "anneal", 3), "a0be617512e563ff", "b7cf4227127414b1"),
    (_large("rpd", "evolution", 4), "df7a30e2ac9ba3b0", "954a7ec0b8749912"),
    (_large("rpd", "bandit", 5), "64d4aee5a9645df1", "c6575b4b03265324"),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(spec: SearchSpec, root) -> tuple:
    store = SweepStore(root)
    path = store.blob_path(f"adversary/{spec.config_hash()}")
    blobs = hashlib.sha256()

    def progress(step: int, evaluated: int, best: int) -> None:
        blobs.update(path.read_bytes())

    result = adversarial_search(spec, store=store, progress=progress)
    payload = {"best": result.best.as_dict(), "history": list(result.history)}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _digest(canonical.encode("utf-8")), blobs.hexdigest()[:16]


@pytest.mark.parametrize(
    "spec, result_digest, checkpoint_digest",
    CASES,
    ids=[f"{spec.protocol}-{spec.strategy}-n{spec.n}" for spec, _, _ in CASES],
)
def test_search_digests_are_pinned(tmp_path, spec, result_digest, checkpoint_digest):
    assert _run(spec, tmp_path) == (result_digest, checkpoint_digest)
