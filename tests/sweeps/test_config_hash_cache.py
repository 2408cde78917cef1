"""``SweepConfig.config_hash`` is computed once per instance.

The value is cached on the frozen dataclass; the cache must be invisible:
equality, ``hash()``, pickling, copies and the pinned store key all behave
as if every call recomputed it.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle

import repro.sweeps.spec as spec_module
from repro.sweeps.spec import SweepConfig

PINNED = dict(
    protocol="round-robin", n=32, k=4, workload="uniform", batch=8, seed=0, max_slots=10_000
)


def _fresh(**overrides) -> SweepConfig:
    return SweepConfig(**dict(PINNED, **overrides))


def test_hash_is_computed_once_per_instance(monkeypatch):
    calls = []
    sha256 = hashlib.sha256

    def counting_sha256(data):
        calls.append(data)
        return sha256(data)

    monkeypatch.setattr(spec_module.hashlib, "sha256", counting_sha256)
    config = _fresh()
    assert [config.config_hash() for _ in range(5)] == ["2d58865d4a8e4a0b"] * 5
    assert len(calls) == 1
    # A second, equal instance computes its own (equal) value once.
    assert _fresh().config_hash() == "2d58865d4a8e4a0b"
    assert len(calls) == 2


def test_pinned_service_hash_is_unchanged():
    config = _fresh()
    assert config.config_hash() == "2d58865d4a8e4a0b"
    assert SweepConfig.from_dict(config.as_dict()).config_hash() == "2d58865d4a8e4a0b"


def test_cache_does_not_affect_equality_or_builtin_hash():
    hashed, plain = _fresh(), _fresh()
    hashed.config_hash()
    assert hashed == plain and plain == hashed
    assert hash(hashed) == hash(plain)
    assert len({hashed, plain}) == 1
    assert repr(hashed) == repr(plain)
    assert hashed != _fresh(seed=1)


def test_pickling_is_unchanged_by_the_cache():
    hashed, plain = _fresh(params={"gap": 2}), _fresh(params={"gap": 2})
    before = pickle.dumps(plain)
    hashed.config_hash()
    assert pickle.dumps(hashed) == before
    restored = pickle.loads(pickle.dumps(hashed))
    assert restored == hashed
    assert restored.config_hash() == hashed.config_hash()
    assert restored.params == (("gap", 2),)


def test_copies_and_replacements_hash_their_own_fields():
    config = _fresh()
    config.config_hash()
    assert copy.deepcopy(config).config_hash() == config.config_hash()
    changed = dataclasses.replace(config, k=8)
    assert changed.config_hash() == _fresh(k=8).config_hash()
    assert changed.config_hash() != config.config_hash()
