"""Content digests pinning every selective family the library draws.

A family's content is its universe, its label and its ordered transmission
sets; :func:`_digest` hashes each set's sorted members in order, so any
change to the RNG stream, the draw order, the deduplication or the storage
form of :class:`~repro.combinatorics.set_family.SetFamily` shows up here as
a mismatch.  The digests must hold for every later representation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.combinatorics.superimposed import kautz_singleton_code
from repro.core.selective import concatenated_families, random_selective_family


def _digest(families) -> str:
    h = hashlib.sha256()
    for fam in families:
        h.update(f"{fam.n}|{fam.label}\n".encode())
        for members in fam.sets:
            h.update((",".join(map(str, sorted(members))) + ";").encode())
    return h.hexdigest()[:16]


#: ``random_selective_family(n, k, rng=seed)`` -> digest.
RANDOM_DIGESTS = {
    (64, 2, 0): "b19440dcb75d0290",
    (64, 2, 1): "2c0c98ab89d6aa64",
    (64, 2, 7): "b97d9a4cc0163182",
    (64, 8, 0): "f568e7e3b32a36c6",
    (64, 8, 1): "116d06a3a90d16a5",
    (64, 8, 7): "e2540ffcad26c3de",
    (64, 32, 0): "3b0c5878d6d69589",
    (64, 32, 1): "1f39e843641c1e5a",
    (64, 32, 7): "1cfb165225b9ccde",
    (256, 2, 0): "44b34f331aa9fb59",
    (256, 2, 1): "2b89ad6800dcf434",
    (256, 2, 7): "29a562e496ade703",
    (256, 8, 0): "740bde8af3b07d4c",
    (256, 8, 1): "9c31ada196584aa5",
    (256, 8, 7): "bcb48d42791fe3af",
    (256, 32, 0): "7937f7da1dc2c036",
    (256, 32, 1): "331da9593504ac3b",
    (256, 32, 7): "15775e36ef7646a2",
    (1024, 2, 0): "7020e02fd1bbddb3",
    (1024, 2, 1): "d54390f793effb31",
    (1024, 2, 7): "84a6f0b2d345e192",
    (1024, 8, 0): "6ffac0f92801376e",
    (1024, 8, 1): "f1c063cae3affada",
    (1024, 8, 7): "420e421ba1b2b454",
    (1024, 32, 0): "32644d8524afc7ce",
    (1024, 32, 1): "b07c3da6e4ed7906",
    (1024, 32, 7): "8e578a19937dc2ef",
}

#: ``concatenated_families(n, max_k, rng=seed)`` -> digest.
CONCAT_DIGESTS = {
    (64, 64, 0): "f30625c1adcc1001",
    (64, 64, 3): "e2ec06eb1cc9d338",
    (256, 256, 0): "eca70d12da2e88f1",
    (256, 256, 3): "447dd357ece956dc",
    (1024, 16, 0): "77d0f03b62654bc1",
    (1024, 16, 3): "a2980993ac94f282",
}

@pytest.mark.parametrize(("n", "k", "seed"), sorted(RANDOM_DIGESTS))
def test_random_family_digest(n, k, seed):
    family = random_selective_family(n, k, rng=seed)
    assert _digest([family]) == RANDOM_DIGESTS[n, k, seed]


@pytest.mark.parametrize(("n", "max_k", "seed"), sorted(CONCAT_DIGESTS))
def test_concatenated_random_digest(n, max_k, seed):
    families = concatenated_families(n, max_k, rng=seed)
    assert _digest(families) == CONCAT_DIGESTS[n, max_k, seed]


def test_concatenated_explicit_digest():
    families = concatenated_families(32, 8, method="explicit")
    assert _digest(families) == "802d5abe23647fcf"


#: ``kautz_singleton_code(n, k)`` -> digest of ``n``, ``k``, ``q``, ``degree``
#: and the packed code matrix.  Covers every explicit E8 cell (k <= 8), the
#: larger strengths at n = 256 and n = 2048, and the n = 1 and k = 1 edges.
KAUTZ_SINGLETON_DIGESTS = {
    (64, 2): "f5c857916a5b5247",  # q=5, degree=2
    (64, 4): "6c139956ebc244d0",  # q=11, degree=1
    (64, 8): "a428a700f363ab56",  # q=11, degree=1
    (128, 2): "05f827bf1a4b31f6",  # q=7, degree=2
    (128, 4): "a1f516f0aa16a2a4",  # q=11, degree=2
    (128, 8): "828a1616a338022b",  # q=13, degree=1
    (256, 2): "5bfc1a516452b902",  # q=7, degree=2
    (256, 4): "f748ae743edc57cf",  # q=11, degree=2
    (256, 8): "eb6ab6edc67bde03",  # q=17, degree=1
    (512, 2): "a6ea7d771cb31f59",  # q=7, degree=3
    (512, 4): "f8d859724a6379e1",  # q=11, degree=2
    (512, 8): "3738a2a1bb99c522",  # q=17, degree=2
    (1024, 2): "4d7f0d4557ce6d03",  # q=7, degree=3
    (1024, 4): "1b8e47af040bb488",  # q=11, degree=2
    (1024, 8): "4969c9688b3656a7",  # q=17, degree=2
    (2048, 2): "13085c3a7e1333ad",  # q=7, degree=3
    (2048, 4): "a11781517a39f052",  # q=13, degree=2
    (2048, 8): "b3a4b1ef48c62487",  # q=17, degree=2
    (256, 16): "d29e9878a1bb6689",  # q=17, degree=1
    (256, 32): "da57120d415c2c4d",  # q=37, degree=1
    (256, 64): "459e642f52a86957",  # q=67, degree=1
    (2048, 16): "f4b185e5d8fa14ad",  # q=37, degree=2
    (2048, 32): "c7af138d2c30a42d",  # q=47, degree=1
    (2048, 64): "26ed2a793be5c3e7",  # q=67, degree=1
    (1, 1): "d76833b03420a3ae",  # q=1, degree=0
    (2, 1): "4fccf0de4259f1ec",  # q=2, degree=1
    (64, 1): "6f23a79ef738d42c",  # q=5, degree=2
    (2048, 1): "2f8a7d9ddd559bb8",  # q=5, degree=4
}


def _code_digest(code) -> str:
    h = hashlib.sha256(f"{code.n}|{code.strength}|{code.q}|{code.degree}\n".encode())
    h.update(np.packbits(code.matrix).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(("n", "k"), sorted(KAUTZ_SINGLETON_DIGESTS))
def test_kautz_singleton_digest(n, k):
    code = kautz_singleton_code(n, k)
    assert (code.n, code.strength) == (n, k)
    assert _code_digest(code) == KAUTZ_SINGLETON_DIGESTS[n, k]
