"""Shared internal utilities for the :mod:`repro` package.

This module collects small helpers used throughout the library:

* integer math used by the paper's bounds (``log2`` variants that are safe at
  the boundary values the paper glosses over with "we omit floors/ceilings"),
* validation helpers that convert user errors into clear exceptions,
* deterministic random-generator plumbing (every stochastic construction in
  the library takes a seed or an ``numpy.random.Generator`` so results are
  reproducible bit-for-bit).

Seed-derivation convention
--------------------------

Whenever one seed has to fan out into several independent streams — batch
shards in :mod:`repro.engine`, per-pattern draws in :mod:`repro.workloads`,
search steps and candidates in :mod:`repro.adversary` — child generators MUST
be the children :meth:`numpy.random.SeedSequence.spawn` would give (derived
here by :func:`spawn_generators` and :func:`indexed_generators`), never seeds
made with ad-hoc integer offsets such as ``seed + i``.  Offset seeds produce
correlated streams (neighbouring seeds of the same bit-generator share
state-setup structure) and collide across call sites (two loops both using
``seed + i`` reuse each other's streams); ``SeedSequence`` hashes the parent
entropy with the spawn key, which guarantees independence and gives every
derivation site its own namespace.

The children are equal to numpy's bit for bit, but they are not built one
``SeedSequence`` at a time: the entropy words every child shares are mixed
into the 4-word pool once, in Python integers, and the one word that differs
between children is mixed into all of them at once with ``uint32`` array
operations (:func:`_child_states`).  Each ``PCG64`` is then seeded from its
precomputed row.  numpy's own ``SeedSequence.spawn`` is the oracle the tests
compare against; it is not called here.

Nothing in here is part of the public API; the public surface re-exports only
what is documented in :mod:`repro`.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "RngLike",
    "as_generator",
    "spawn_generators",
    "indexed_generators",
    "stable_key",
    "ragged_arange",
    "MAX_CELLS_PER_CHUNK",
    "ceil_log2",
    "ceil_div",
    "log2_safe",
    "loglog2_safe",
    "validate_station_id",
    "validate_station_ids",
    "validate_positive_int",
    "validate_k_n",
]

#: Anything acceptable as a source of randomness: ``None`` (fresh entropy),
#: an integer seed, or an already-constructed :class:`numpy.random.Generator`.
RngLike = Union[None, int, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like value.

    Parameters
    ----------
    rng:
        ``None`` for OS entropy, an ``int`` seed for reproducible streams, or
        an existing generator (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def stable_key(name: str) -> int:
    """Map a string to a stable non-negative integer usable as seed entropy.

    Python's built-in ``hash`` is salted per process, so it cannot be used to
    derive reproducible seeds from workload names; this uses SHA-256 instead.
    """
    import hashlib

    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def spawn_generators(seed: RngLike, count: int, *keys: Union[int, str]) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from one seed.

    This is the library's sanctioned way to fan a seed out into multiple
    streams (see the module docstring).  Child ``i`` is the generator
    ``default_rng(SeedSequence([seed, *keys]).spawn(count)[i])`` would give,
    bit for bit, with string ``keys`` hashed by :func:`stable_key`; all
    ``count`` seeds are derived in one pass.  Passing a ``Generator`` draws a
    fresh 64-bit parent seed from it, so generator-valued seeds stay usable.
    Negative seeds or keys raise :class:`ValueError`, as ``SeedSequence``
    does.

    A child's ``bit_generator.seed_seq`` holds only its precomputed seed
    words, so ``Generator.spawn`` on a child raises ``TypeError``; nothing in
    the library spawns from a child.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    head = _seed_words(seed, keys)
    # SeedSequence pads a spawned child's run entropy to the pool size, so
    # the spawn key is always mixed in after the pool is full.
    head += [0] * (_POOL_SIZE - len(head))
    return _generators(_child_states(head, np.arange(count, dtype=np.uint32)))


def indexed_generators(seed: int, indices: Iterable[int], *keys: Union[int, str]) -> list[np.random.Generator]:
    """``[spawn_generators(seed, 1, *keys, i)[0] for i in indices]`` in one pass.

    The index is the last entropy word, so the derivation needs ``seed`` and
    ``keys`` to fill ``SeedSequence``'s 4-word pool on their own (three keys
    always do); each index must lie in ``[0, 2**32)``.
    """
    head = _seed_words(seed, keys)
    if len(head) < _POOL_SIZE:
        raise ValueError(f"seed and keys must span at least {_POOL_SIZE} entropy words, got {len(head)}")
    values = [int(i) for i in indices]
    for i in values:
        if not 0 <= i <= _MASK32:
            raise ValueError(f"indices must lie in [0, 2**32), got {i}")
    # The child's spawn key (0) is the one entropy word after the index.
    return _generators(_child_states(head, np.array(values, dtype=np.uint32), tail=(0,)))


# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _seed_words(seed: RngLike, keys: tuple) -> list[int]:
    """The uint32 entropy words of ``[seed, *keys]``, as ``SeedSequence`` splits them."""
    if isinstance(seed, np.random.Generator):
        parent = int(seed.integers(0, 2**63))
    elif seed is None:
        # Match as_generator(None): an unseeded spawn draws fresh OS entropy
        # (namespace keys alone must not make the streams deterministic).
        parent = np.random.SeedSequence().entropy
    else:
        parent = seed
    words: list[int] = []
    for value in [parent, *(stable_key(k) if isinstance(k, str) else k for k in keys)]:
        value = int(value)
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, got {value}")
        # Little-endian 32-bit words; zero is one word.
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _hash_chain(hash_const: int, mult: int, length: int) -> list[int]:
    """``hash_const`` followed by its next ``length`` multiples by ``mult`` (mod 2**32)."""
    chain = [hash_const]
    for _ in range(length):
        hash_const = hash_const * mult & _MASK32
        chain.append(hash_const)
    return chain


def _child_states(head: list[int], varying: np.ndarray, tail: tuple = ()) -> np.ndarray:
    """PCG64 seed words, one ``(4,)`` uint64 row per value of ``varying``.

    Row ``j`` is ``SeedSequence``'s ``generate_state(4, uint64)`` for the
    assembled entropy words ``head + [varying[j]] + tail``.  ``head`` must
    fill the pool (at least 4 words): it is mixed once, in Python ints, and
    every later word is mixed into each pool word with ``uint32`` array
    operations over all children at once.
    """
    # SeedSequence's hashmix advances one hash constant per call: 4 calls
    # fill the pool, 12 mix it, and each later word makes 4 more.
    mixed = _POOL_SIZE * len(head)
    chain = _hash_chain(_INIT_A, _MULT_A, mixed + _POOL_SIZE * (1 + len(tail)))

    def hashmix(value: int, call: int) -> int:
        value = (value ^ chain[call]) * chain[call + 1] & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word, call) for call, word in enumerate(head[:_POOL_SIZE])]
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], call))
                call += 1
    for word in head[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word, call))
            call += 1
    # From here on the pool and the hash constants are uint32 arrays (which
    # wrap), shaped (pool word, child): a Python int that overflows uint32
    # beside a uint32 array could promote to float on numpy 1.x.
    pool = np.array(pool, dtype=np.uint32)[:, None]
    rest = np.array(chain[mixed:], dtype=np.uint32)[:, None]
    left, right, shift = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R), np.uint32(16)
    for i, word in enumerate((varying, *tail)):
        at = _POOL_SIZE * i
        hashed = (word ^ rest[at : at + _POOL_SIZE]) * rest[at + 1 : at + _POOL_SIZE + 1]
        hashed ^= hashed >> shift
        pool = pool * left - hashed * right
        pool ^= pool >> shift
    # generate_state(4, uint64): 8 uint32 words cycling through the pool.
    chain = np.array(_hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE), dtype=np.uint32)[:, None]
    out = (np.concatenate([pool, pool]) ^ chain[:-1]) * chain[1:]
    out ^= out >> shift
    out = out.astype(np.uint64)
    return (out[0::2] | out[1::2] << np.uint64(32)).T.copy()


class _SeedWords(ISeedSequence):
    """A seed sequence that hands ``PCG64`` its precomputed seed words.

    ``PCG64`` asks its seed sequence for ``generate_state(4, uint64)`` once,
    at construction.  This is not an ``ISpawnableSeedSequence``, so
    ``Generator.spawn`` on a generator seeded from it raises ``TypeError``.
    """

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("only the 4 uint64 words PCG64 asks for are precomputed")
        return self.state


def _generators(states: np.ndarray) -> list[np.random.Generator]:
    """One ``Generator(PCG64)`` per row of precomputed seed words."""
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in states]


#: Cap on the cells (pairs × slots, or rows × slots) a vectorized chunked
#: scan materializes at once — bounds the transient working set of the batch
#: engine's bincount scans and of the matrix-geometry enumerations in
#: :mod:`repro.core.waking_matrix`, which must agree on the budget.
MAX_CELLS_PER_CHUNK = 1 << 22


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange`` per row: ``[0..c0), [0..c1), ...`` flattened.

    The building block for vectorized ragged expansion: paired with
    ``np.repeat(values, counts)`` it enumerates, without a Python loop, the
    ``j``-th element of every variable-length run.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    run_starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - run_starts


def ceil_log2(x: int) -> int:
    """Return ``ceil(log2(x))`` for a positive integer ``x``.

    ``ceil_log2(1) == 0``.  Raises :class:`ValueError` for ``x < 1``.
    """
    if x < 1:
        raise ValueError(f"ceil_log2 requires x >= 1, got {x}")
    return (x - 1).bit_length()


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for ``b > 0``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b}")
    return -(-a // b)


def log2_safe(x: float) -> float:
    """``log2(x)`` clamped to be at least 1.

    The paper's bounds use expressions such as ``k log(n/k)`` that collapse to
    zero at ``k == n``; following the paper's convention (``Θ(k log(n/k)+1)``)
    we never let the logarithmic factor drop below 1 so that bound formulas
    stay positive and comparable.
    """
    if x <= 1.0:
        return 1.0
    return math.log2(x)


def loglog2_safe(x: float) -> float:
    """``log2(log2(x))`` clamped to be at least 1 (see :func:`log2_safe`)."""
    return log2_safe(log2_safe(x))


def validate_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive ``int`` and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def validate_station_id(station: int, n: int) -> int:
    """Validate a station ID against the universe ``[1, n]``.

    The paper indexes stations ``1..n``; the library follows that convention
    everywhere in the public API (internal arrays are 0-based).
    """
    if not isinstance(station, (int, np.integer)) or isinstance(station, bool):
        raise TypeError(f"station ID must be an integer, got {type(station).__name__}")
    station = int(station)
    if not 1 <= station <= n:
        raise ValueError(f"station ID must be in [1, {n}], got {station}")
    return station


def validate_station_ids(stations: Iterable[int], n: int) -> list[int]:
    """Validate a collection of station IDs, returning them as a list."""
    out = [validate_station_id(s, n) for s in stations]
    if len(set(out)) != len(out):
        raise ValueError("station IDs must be distinct")
    return out


def validate_k_n(k: int, n: int) -> tuple[int, int]:
    """Validate the pair ``(k, n)`` with ``1 <= k <= n``."""
    n = validate_positive_int(n, "n")
    k = validate_positive_int(k, "k")
    if k > n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return k, n
