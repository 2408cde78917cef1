"""Vectorized batch execution: one chunked scan resolving B patterns.

The per-pattern engines in :mod:`repro.channel.simulator` resolve one wake-up
pattern per call; every empirical estimate in the library is a maximum (or
mean) over *many* patterns, so the per-call Python overhead — one
:func:`numpy.add.at` per awake station per chunk for deterministic protocols,
one ``transmit_probability`` call per awake station per *slot* for randomized
policies — dominates at scale.  This module batches B patterns into a single
chunked scan shared by both protocol kinds:

1. the batch arrives as one :class:`~repro.channel.wakeup.PatternBatch`,
   whose flat columns are the aligned *pair* arrays (a sequence of
   :class:`~repro.channel.wakeup.WakeupPattern` is converted once, by
   :meth:`~repro.channel.wakeup.PatternBatch.from_patterns`);
2. per chunk of the shared absolute timeline, one vectorized query yields the
   transmit events of all pairs at once —
   :meth:`~repro.channel.protocols.DeterministicProtocol.batch_transmit_slots`
   for deterministic protocols, or a Bernoulli sample over
   :meth:`~repro.channel.protocols.RandomizedPolicy.transmit_probability_matrix`
   (one draw block per pattern from its own child generator) for randomized
   policies;
3. transmitter counts are accumulated into a 2-D ``(rows × slots)`` array with
   a single :func:`numpy.bincount`, and each row's first count-1 slot (its
   first success) is extracted vectorized;
4. resolved rows drop out of subsequent chunks, so the scan cost tracks the
   *unsolved* rows only.

The results are identical — same ``solved``/``success_slot``/``winner``/
``latency`` per pattern — to running the per-pattern engine pattern by
pattern.  For :func:`run_deterministic_batch` this is structural; for
:func:`run_randomized_batch` it holds *bit for bit* given the same per-pattern
child generators, because the batch consumes each pattern's stream in exactly
the slot-loop's order: slots ascending, stations in pattern order within a
slot, one uniform draw per awake station with positive probability.  The
property suite in ``tests/properties`` asserts both equivalences slot for
slot; only the diagnostic ``slots_examined`` of the deterministic batch
differs, because the batch scan shares chunk boundaries across rows.

Example
-------
>>> from repro.core.round_robin import RoundRobin
>>> from repro.channel.wakeup import WakeupPattern
>>> from repro.engine import run_deterministic_batch
>>> patterns = [WakeupPattern(16, {5: 0, 9: 3}), WakeupPattern(16, {2: 1, 3: 1})]
>>> result = run_deterministic_batch(RoundRobin(16), patterns)
>>> bool(result.solved.all()), result.latency.tolist()
(True, [4, 0])
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import core as obs
from repro._util import MAX_CELLS_PER_CHUNK, RngLike
from repro.channel.protocols import (
    DeterministicProtocol,
    FeedbackVectorizedPolicy,
    RandomizedPolicy,
)
from repro.channel.simulator import DEFAULT_MAX_SLOTS
from repro.engine.feedback_batch import run_feedback_batch
from repro.engine.result import BatchResult, Patterns, _pattern_batch, _resolve_generators

__all__ = [
    "BatchResult",
    "run_batch",
    "run_deterministic_batch",
    "run_randomized_batch",
    "DEFAULT_BATCH_CHUNK",
    "DEFAULT_RANDOMIZED_CHUNK",
]

#: Initial chunk length of the shared batch scan.  Smaller than the
#: per-pattern engine's default because the per-chunk fixed cost is amortized
#: over all B rows, while every extra slot costs work proportional to the
#: number of *unsolved* rows — and most batches resolve within tens of slots.
DEFAULT_BATCH_CHUNK = 128

#: Initial chunk length of the randomized scan.  Expected randomized
#: latencies are O(log n) (the whole point of Section 6), so a short first
#: chunk avoids sampling Bernoulli matrices far past the typical success
#: slot; pathological batches still grow geometrically.  Chunk layout never
#: affects outcomes — only wasted work.
DEFAULT_RANDOMIZED_CHUNK = 16

#: Cap on rows × slots examined per chunk (bounds the bincount working set);
#: shared with the waking-matrix geometry enumerations via repro._util.
_MAX_CELLS_PER_CHUNK = MAX_CELLS_PER_CHUNK

#: Cap on the geometric chunk growth, matching the per-pattern engine.
_MAX_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# The shared chunked scan
# ---------------------------------------------------------------------------


class _ScanScratch:
    """Reusable per-chunk buffers for one scan invocation.

    The scan's per-chunk masks and index buffers have batch-constant shapes
    (B rows, P pairs) or monotone-bounded ones (the singles mask), so one
    allocation per batch serves every chunk.  ``reused_bytes`` tallies the
    allocations avoided from the second chunk on, reported once per scan as
    the ``engine.scratch_bytes_reused`` gauge.
    """

    def __init__(self, n_rows: int, n_pairs: int) -> None:
        self.row_pos = np.empty(n_rows, dtype=np.int64)
        self.success_col = np.empty(n_rows, dtype=np.int64)
        self.done = np.empty(n_pairs, dtype=bool)
        self.live = np.empty(n_pairs, dtype=bool)
        self.tmp = np.empty(n_pairs, dtype=bool)
        self._singles = np.empty(0, dtype=bool)
        self._fixed_bytes = (
            self.row_pos.nbytes
            + self.success_col.nbytes
            + self.done.nbytes
            + self.live.nbytes
            + self.tmp.nbytes
        )
        self.chunks = 0
        self.reused_bytes = 0

    def singles(self, rows: int, cols: int) -> np.ndarray:
        """A ``(rows, cols)`` bool view over the growable singles buffer."""
        needed = rows * cols
        if self._singles.size < needed:
            self._singles = np.empty(needed, dtype=bool)
        return self._singles[:needed].reshape(rows, cols)

    def mark_chunk(self) -> None:
        self.chunks += 1
        if self.chunks > 1:
            self.reused_bytes += self._fixed_bytes + self._singles.nbytes


def _chunked_first_success_scan(
    *,
    emit: Callable[[np.ndarray, int, int], Tuple[np.ndarray, np.ndarray]],
    pair_row: np.ndarray,
    pair_station: np.ndarray,
    pair_wake: np.ndarray,
    first_wake: np.ndarray,
    horizon: np.ndarray,
    chunk: int,
    cost_per_pair: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve every row's first singleton-transmitter slot in one shared scan.

    ``emit(live_pairs, chunk_start, chunk_stop)`` produces the transmit events
    of the given pairs within the chunk as two aligned int64 arrays
    ``(pair_index, slots)`` — ``pair_index`` into the *global* pair arrays —
    with each (pair, slot) combination appearing at most once.  Everything
    else (2-D transmit counts, per-row first-success extraction, winner
    recovery, horizon bookkeeping, chunk growth) is shared by the
    deterministic and randomized engines.

    ``cost_per_pair`` switches the chunk-length cap from rows × slots to
    pairs × slots — the randomized engine materializes a dense probability
    matrix over live pairs, so its working set scales with pairs.

    Returns ``(solved, success_slot, winner, latency, slots_examined)``
    columns; ``slots_examined`` accounts the scanned window per row (the
    deterministic diagnostic — callers with different conventions overwrite
    it).
    """
    B = int(first_wake.shape[0])
    solved = np.zeros(B, dtype=bool)
    success_slot = np.full(B, -1, dtype=np.int64)
    winner = np.full(B, -1, dtype=np.int64)
    latency = np.full(B, -1, dtype=np.int64)
    slots_examined = np.zeros(B, dtype=np.int64)
    row_done = np.zeros(B, dtype=bool)

    scratch = _ScanScratch(B, int(pair_row.shape[0]))
    pair_horizon = horizon[pair_row]

    chunk_start = int(first_wake.min())
    chunk_len = max(16, int(chunk))

    while not row_done.all():
        active_rows = np.flatnonzero(~row_done)
        scan_stop = int(horizon[active_rows].max())
        if chunk_start >= scan_stop:
            break
        A = active_rows.shape[0]
        scratch.mark_chunk()
        pair_done = np.take(row_done, pair_row, out=scratch.done)
        # Keep the per-chunk working set bounded regardless of batch size.
        if cost_per_pair:
            weight = max(1, pair_done.size - int(np.count_nonzero(pair_done)))
        else:
            weight = A
        length = min(chunk_len, max(16, _MAX_CELLS_PER_CHUNK // weight))
        chunk_stop = min(scan_stop, chunk_start + length)
        length = chunk_stop - chunk_start

        with obs.span("engine.chunk_scan"):
            row_pos = scratch.row_pos
            row_pos.fill(-1)
            row_pos[active_rows] = np.arange(A, dtype=np.int64)

            # live = (~done) & (wake < stop) & (horizon > start), per pair.
            live = np.less(pair_wake, chunk_stop, out=scratch.live)
            live &= np.greater(pair_horizon, chunk_start, out=scratch.tmp)
            live &= np.logical_not(pair_done, out=scratch.tmp)
            live_pairs = np.flatnonzero(live)
            if live_pairs.size:
                entry_global, entry_slot = emit(live_pairs, chunk_start, chunk_stop)
                entry_pos = row_pos[pair_row[entry_global]]
                keys = entry_pos * length + (entry_slot - chunk_start)
                counts = np.bincount(keys, minlength=A * length).reshape(A, length)
                # A slot only counts for a row inside the row's own horizon
                # window.  Horizon-valid columns form a per-row prefix, so it
                # suffices to find the first singleton column and check it
                # against the prefix length — no 2-D validity mask needed.
                singles = np.equal(counts, 1, out=scratch.singles(A, length))
                first_col = np.argmax(singles, axis=1)
                has_success = singles[np.arange(A), first_col] & (
                    first_col < horizon[active_rows] - chunk_start
                )
            else:
                entry_global = np.empty(0, dtype=np.int64)
                entry_slot = np.empty(0, dtype=np.int64)
                entry_pos = np.empty(0, dtype=np.int64)
                # No transmit events: argmax over all-zero counts selects
                # column 0 everywhere and no row can have a success.
                first_col = np.zeros(A, dtype=np.int64)
                has_success = np.zeros(A, dtype=bool)

            if has_success.any():
                won_pos = np.flatnonzero(has_success)
                won_rows = active_rows[won_pos]
                won_slots = chunk_start + first_col[won_pos]
                solved[won_rows] = True
                success_slot[won_rows] = won_slots
                latency[won_rows] = won_slots - first_wake[won_rows]
                # The unique transmitter of each winning slot is recovered from the
                # chunk's own (pair, slot) entries: counts said "exactly one", so
                # exactly one entry matches per newly solved row.
                success_col = scratch.success_col[:A]
                success_col.fill(-1)
                success_col[won_pos] = first_col[won_pos]
                match = entry_slot - chunk_start == success_col[entry_pos]
                matched = np.flatnonzero(match)
                if matched.size != won_pos.size:
                    raise RuntimeError(
                        "internal inconsistency: 2-D transmit counts found singleton "
                        f"slots for {won_pos.size} rows but {matched.size} transmitter "
                        "entries matched them"
                    )
                winner[pair_row[entry_global[matched]]] = pair_station[entry_global[matched]]
                row_done[won_rows] = True

            # Account the scanned window per still-active row (diagnostic).
            windows = np.minimum(chunk_stop, horizon[active_rows]) - np.maximum(
                chunk_start, first_wake[active_rows]
            )
            slots_examined[active_rows] += np.maximum(windows, 0)

        obs.add("engine.chunks")
        obs.add("engine.slots_scanned", int(np.maximum(windows, 0).sum()))

        # Rows whose horizon is fully scanned are finished (unsolved).
        row_done[np.flatnonzero(~solved & (horizon <= chunk_stop))] = True

        chunk_start = chunk_stop
        chunk_len = min(chunk_len * 2, _MAX_CHUNK)

    obs.add("engine.patterns", B)
    obs.add("engine.patterns_solved", int(np.count_nonzero(solved)))
    obs.gauge("engine.scratch_bytes_reused", scratch.reused_bytes)
    return solved, success_slot, winner, latency, slots_examined


# ---------------------------------------------------------------------------
# Deterministic engine
# ---------------------------------------------------------------------------


def run_deterministic_batch(
    protocol: DeterministicProtocol,
    patterns: Patterns,
    *,
    max_slots: int = DEFAULT_MAX_SLOTS,
    chunk: int = DEFAULT_BATCH_CHUNK,
) -> BatchResult:
    """Resolve B wake-up patterns against one protocol in a single scan.

    Parameters
    ----------
    protocol:
        Any :class:`~repro.channel.protocols.DeterministicProtocol` over the
        same universe size as every pattern.
    patterns:
        The batch, a :class:`~repro.channel.wakeup.PatternBatch` or a
        sequence of patterns; rows of the result align with its order.
    max_slots:
        Per-row horizon, measured from each row's own first wake-up (the same
        convention as :func:`~repro.channel.simulator.run_deterministic`).
    chunk:
        Initial chunk length of the shared scan; chunks double as the scan
        advances.

    Returns
    -------
    BatchResult
        Outcome columns identical to running ``run_deterministic`` per
        pattern.
    """
    if not isinstance(protocol, DeterministicProtocol):
        raise TypeError(
            f"expected a DeterministicProtocol, got {type(protocol).__name__}"
        )
    batch = _pattern_batch(protocol, patterns)
    if not len(batch):
        return BatchResult.empty(protocol)

    pair_station, pair_wake, first_wake = batch.stations, batch.wake_times, batch.first_wake
    horizon = first_wake + int(max_slots)

    def emit(live_pairs: np.ndarray, chunk_start: int, chunk_stop: int):
        entry_pair, entry_slot = protocol.batch_transmit_slots(
            pair_station[live_pairs], pair_wake[live_pairs], chunk_start, chunk_stop
        )
        return live_pairs[entry_pair], entry_slot

    solved, success_slot, winner, latency, slots_examined = _chunked_first_success_scan(
        emit=emit,
        pair_row=batch.pair_row,
        pair_station=pair_station,
        pair_wake=pair_wake,
        first_wake=first_wake,
        horizon=horizon,
        chunk=chunk,
    )

    return BatchResult(
        protocol=protocol.describe(),
        n=protocol.n,
        solved=solved,
        k=batch.k,
        first_wake=first_wake,
        success_slot=success_slot,
        winner=winner,
        latency=latency,
        slots_examined=slots_examined,
    )


# ---------------------------------------------------------------------------
# Randomized engine
# ---------------------------------------------------------------------------


def run_randomized_batch(
    policy: RandomizedPolicy,
    patterns: Patterns,
    *,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    seed: RngLike = None,
    max_slots: int = DEFAULT_MAX_SLOTS,
    chunk: int = DEFAULT_RANDOMIZED_CHUNK,
) -> BatchResult:
    """Resolve B wake-up patterns against one randomized policy in one scan.

    Each pattern's Bernoulli decisions are drawn from its *own* generator —
    either supplied via ``rngs`` or spawned from ``seed`` by
    :func:`~repro._util.spawn_generators` (one ``SeedSequence`` child per
    pattern, derived before any chunking) — so pattern ``i``'s outcome is independent of batch size,
    shard size and chunk layout.  Given the same per-pattern generators the
    outcome columns are bit-for-bit identical to
    :func:`~repro.channel.simulator.run_randomized` per pattern: the batch
    consumes each stream in the slot-loop's exact order (slots ascending,
    stations in pattern order, one uniform draw per awake station with
    positive probability).

    The policy's class picks the engine.  Oblivious policies are resolved from
    their :meth:`~repro.channel.protocols.RandomizedPolicy.transmit_probability_matrix`
    with the same chunked bincount scan as the deterministic engine;
    feedback-driven policies
    (:class:`~repro.channel.protocols.FeedbackVectorizedPolicy`) go to
    :func:`~repro.engine.feedback_batch.run_feedback_batch`, which advances
    the whole batch slot by slot.

    Parameters
    ----------
    policy:
        Any :class:`~repro.channel.protocols.RandomizedPolicy` over the same
        universe size as every pattern.
    patterns:
        The batch, a :class:`~repro.channel.wakeup.PatternBatch` or a
        sequence of patterns; rows of the result align with its order.
    rngs:
        Optional per-pattern generators (one per pattern, consumed in order).
    seed:
        Base seed used to spawn per-pattern child generators when ``rngs`` is
        not given; the spawn matches :class:`~repro.engine.campaign.Campaign`.
    max_slots:
        Per-row horizon, measured from each row's own first wake-up.
    chunk:
        Initial chunk length of the shared scan; chunks double as the scan
        advances.

    Returns
    -------
    BatchResult
        Outcome columns identical to running ``run_randomized`` per pattern
        with the same generators (including ``slots_examined``).
    """
    if not isinstance(policy, RandomizedPolicy):
        raise TypeError(f"expected a RandomizedPolicy, got {type(policy).__name__}")
    batch = _pattern_batch(policy, patterns)
    if not len(batch):
        return BatchResult.empty(policy)
    generators = _resolve_generators(rngs, seed, len(batch))

    if isinstance(policy, FeedbackVectorizedPolicy):
        # Probabilities react to channel signals, so slots cannot be sampled
        # ahead of the outcomes they depend on: advance every pattern
        # slot-synchronously instead.
        return run_feedback_batch(policy, batch, rngs=generators, max_slots=max_slots)

    B = len(batch)
    pair_row, pair_station, pair_wake = batch.pair_row, batch.stations, batch.wake_times
    first_wake = batch.first_wake
    horizon = first_wake + int(max_slots)

    def emit(live_pairs: np.ndarray, chunk_start: int, chunk_stop: int):
        slots = np.arange(chunk_start, chunk_stop, dtype=np.int64)
        live_wake = pair_wake[live_pairs]
        probabilities = np.asarray(
            policy.transmit_probability_matrix(
                pair_station[live_pairs], live_wake, chunk_start, chunk_stop
            ),
            dtype=np.float64,
        )
        if probabilities.shape != (live_pairs.size, slots.size):
            raise ValueError(
                f"{policy.describe()} returned a probability matrix of shape "
                f"{probabilities.shape}, expected {(live_pairs.size, slots.size)}"
            )
        p_min = float(probabilities.min()) if probabilities.size else 0.0
        p_max = float(probabilities.max()) if probabilities.size else 0.0
        if p_min < 0.0 or p_max > 1.0:
            raise ValueError(
                f"{policy.describe()} returned probabilities outside [0, 1]"
            )
        rows_of_live = pair_row[live_pairs]

        # Fast path: when every live pair is awake for the whole chunk, no
        # row's horizon intersects it, every probability is positive, and
        # rows contribute equal pair counts (the shape of every simultaneous
        # or fully-woken batch), each row's draw block is one contiguous
        # ``gen.random`` fill in (slot, station) row-major order — no cell
        # enumeration, no regrouping.
        L = slots.size
        counts_live = np.bincount(rows_of_live, minlength=B)
        live_row_ids = np.flatnonzero(counts_live)
        k0 = live_pairs.size // live_row_ids.size
        if (
            p_min > 0.0
            and live_pairs.size == k0 * live_row_ids.size
            and int(counts_live[live_row_ids].max()) == k0
            and int(live_wake.max()) <= chunk_start
            and int(horizon[live_row_ids].min()) >= chunk_stop
        ):
            draws = np.empty((live_row_ids.size, L * k0), dtype=np.float64)
            for r, row in enumerate(live_row_ids):
                generators[int(row)].random(out=draws[r])
            hits = draws.reshape(-1, L, k0) < (
                probabilities.reshape(-1, k0, L).transpose(0, 2, 1)
            )
            row_idx, slot_idx, j_idx = np.nonzero(hits)
            return (
                live_pairs[row_idx * k0 + j_idx],
                chunk_start + slot_idx,
            )
        # A cell consumes one uniform draw exactly when the slot-loop engine
        # would: the station is awake, the slot is inside the row's horizon,
        # and the probability is positive.  Built directly in (slot × pair)
        # layout so that C-order enumeration yields cells in (slot,
        # pair-position) order — within any one row exactly the slot loop's
        # draw order (slots ascending, stations in pattern order).
        drawable = (
            (slots[:, None] >= live_wake[None, :])
            & (slots[:, None] < horizon[rows_of_live][None, :])
            & (probabilities.T > 0.0)
        )
        empty = np.empty(0, dtype=np.int64)
        cell_flat = np.flatnonzero(drawable)
        if cell_flat.size == 0:
            return empty, empty
        m = live_pairs.size
        cell_pos = cell_flat % m
        cell_slot = cell_flat // m
        cell_row = rows_of_live[cell_pos]
        # Group the cells by row without disturbing their in-row order, then
        # fill each row's group from its own generator in one block draw —
        # the uniforms land exactly where the slot loop would have drawn them.
        order = np.argsort(cell_row, kind="stable")
        draws_per_row = np.bincount(cell_row, minlength=B)
        grouped = np.empty(cell_flat.size, dtype=np.float64)
        offset = 0
        for row in np.flatnonzero(draws_per_row):
            count = int(draws_per_row[row])
            generators[row].random(out=grouped[offset : offset + count])
            offset += count
        draws = np.empty_like(grouped)
        draws[order] = grouped
        hits = draws < probabilities[cell_pos, cell_slot]
        if not hits.any():
            return empty, empty
        return live_pairs[cell_pos[hits]], chunk_start + cell_slot[hits]

    solved, success_slot, winner, latency, _ = _chunked_first_success_scan(
        emit=emit,
        pair_row=pair_row,
        pair_station=pair_station,
        pair_wake=pair_wake,
        first_wake=first_wake,
        horizon=horizon,
        chunk=chunk,
        cost_per_pair=True,
    )

    # Match the slot-loop engine's accounting exactly: a solved run examines
    # latency + 1 slots, an unsolved run the full horizon.
    slots_examined = np.where(solved, latency + 1, np.int64(max_slots))

    return BatchResult(
        protocol=policy.describe(),
        n=policy.n,
        solved=solved,
        k=batch.k,
        first_wake=first_wake,
        success_slot=success_slot,
        winner=winner,
        latency=latency,
        slots_examined=slots_examined,
    )


def run_batch(
    protocol: Union[DeterministicProtocol, RandomizedPolicy],
    patterns: Patterns,
    *,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    seed: RngLike = None,
    max_slots: int = DEFAULT_MAX_SLOTS,
    chunk: Optional[int] = None,
) -> BatchResult:
    """Resolve B patterns against *any* protocol kind in one batched call.

    The kind-agnostic front door of the batch layer: deterministic protocols
    dispatch to :func:`run_deterministic_batch`, randomized policies to
    :func:`run_randomized_batch` (which in turn routes every
    :class:`~repro.channel.protocols.FeedbackVectorizedPolicy` to the
    slot-synchronous feedback engine).  Callers that receive a protocol from
    the name registry
    (:func:`repro.sweeps.protocols.build_protocol`) — the sweep workers, the
    guided adversarial search — use this instead of branching on the type
    themselves.

    ``rngs``/``seed`` feed the per-pattern streams of randomized policies and
    must be omitted for deterministic protocols (a deterministic run consumes
    no randomness; passing streams it would silently drop is almost certainly
    a caller bug).  ``chunk=None`` defers to each engine's own default.
    """
    if isinstance(protocol, DeterministicProtocol):
        if rngs is not None or seed is not None:
            raise ValueError(
                f"{type(protocol).__name__} is deterministic: it consumes no "
                "randomness, so rngs/seed must not be passed"
            )
        return run_deterministic_batch(
            protocol,
            patterns,
            max_slots=max_slots,
            chunk=DEFAULT_BATCH_CHUNK if chunk is None else chunk,
        )
    if isinstance(protocol, RandomizedPolicy):
        return run_randomized_batch(
            protocol,
            patterns,
            rngs=rngs,
            seed=seed,
            max_slots=max_slots,
            chunk=DEFAULT_RANDOMIZED_CHUNK if chunk is None else chunk,
        )
    raise TypeError(
        "expected a DeterministicProtocol or RandomizedPolicy, got "
        f"{type(protocol).__name__}"
    )
