"""Content digests pinning every selective family the library draws.

A family's content is its ordered transmission sets; the digest hashes each
set's sorted members (plus the construction metadata) in order, so any
change to the RNG stream, the draw order, the deduplication or the storage
form of :class:`~repro.combinatorics.selectors.SetFamily` shows up here as a
mismatch.  The digests were recorded from the frozenset-backed
implementation and must hold for every later representation.
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
        h.update(
            f"{fam.n}|{fam.k}|{fam.method}|{fam.seed}|{fam.verified}|"
            f"{fam.family.label}\n".encode()
        )
        for members in fam.family.sets:
            h.update((",".join(map(str, sorted(members))) + ";").encode())
    return h.hexdigest()[:16]


#: ``random_selective_family(n, k, rng=seed)`` -> digest.
RANDOM_DIGESTS = {
    (64, 2, 0): "ed44264c6b6a8872",
    (64, 2, 1): "51866293d3a83f31",
    (64, 2, 7): "44d6d6284cd5d3f9",
    (64, 8, 0): "d0ae9d011ad36db6",
    (64, 8, 1): "3d84512d8fd3de18",
    (64, 8, 7): "1f7e31eaa2b22258",
    (64, 32, 0): "ee22fc80cb831889",
    (64, 32, 1): "7061ae689b6e9fda",
    (64, 32, 7): "bc5681b1e97c6eaf",
    (256, 2, 0): "e047bbc1a37ff9aa",
    (256, 2, 1): "8b9847f7115a4186",
    (256, 2, 7): "bc864ff76dd46295",
    (256, 8, 0): "400bc080c1100bbb",
    (256, 8, 1): "ab5ed81c9828aff5",
    (256, 8, 7): "d69ab993d4246dbf",
    (256, 32, 0): "bef22c13cb367a1a",
    (256, 32, 1): "92b841e72c5bd9f9",
    (256, 32, 7): "a0c6f03b3d285291",
    (1024, 2, 0): "f6ae41a82e9ebb26",
    (1024, 2, 1): "675804e57789230f",
    (1024, 2, 7): "f168601271f34fb1",
    (1024, 8, 0): "25bd7cd1b86c6b31",
    (1024, 8, 1): "f0534225bcce7051",
    (1024, 8, 7): "25b181bfd86b0d19",
    (1024, 32, 0): "6bd462128037937c",
    (1024, 32, 1): "f6cf822558d233a1",
    (1024, 32, 7): "898b28e1e1b5fef6",
}

#: ``concatenated_families(n, max_k, rng=seed)`` -> digest.
CONCAT_DIGESTS = {
    (64, 64, 0): "269c09ab5d5cd795",
    (64, 64, 3): "0ed1748b07a07af6",
    (256, 256, 0): "6b3179dbf0bd599f",
    (256, 256, 3): "4264aa3d6bf75201",
    (1024, 16, 0): "8c8f84144e706fdd",
    (1024, 16, 3): "db189568eccd799b",
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
    assert _digest(families) == "d4ee0e80ec4cd940"


def test_monte_carlo_verified_digest():
    family = random_selective_family(64, 8, rng=5, verification="monte-carlo")
    assert family.verified == "monte-carlo"
    assert _digest([family]) == "9fe4e3aa49f2eae4"


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
