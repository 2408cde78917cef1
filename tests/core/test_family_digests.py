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

import pytest

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


def test_concatenated_greedy_digest():
    families = concatenated_families(8, 4, method="greedy", rng=0)
    assert _digest(families) == "4928821360307720"


def test_concatenated_explicit_digest():
    families = concatenated_families(32, 8, method="explicit")
    assert _digest(families) == "d4ee0e80ec4cd940"


def test_monte_carlo_verified_digest():
    family = random_selective_family(64, 8, rng=5, verification="monte-carlo")
    assert family.verified == "monte-carlo"
    assert _digest([family]) == "9fe4e3aa49f2eae4"
