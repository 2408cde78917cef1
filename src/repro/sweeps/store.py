"""On-disk sweep results: one JSON record per config, keyed by config hash.

The store is what makes sweeps *resumable*: every resolved config is written
as ``<config_hash>.json`` under the store root the moment it completes, so an
interrupted sweep loses at most the configs that were in flight, and a re-run
(or a larger sweep sharing configs with an earlier one) skips everything
already on disk.  Records carry the full per-pattern outcome columns — not
just summary statistics — so a resumed sweep returns results bit-for-bit
identical to an uninterrupted serial run, and a stored record can be lifted
back into a :class:`~repro.engine.BatchResult` for further analysis.

Concurrency contract
--------------------

The store has no locks; its coordination primitive is the atomic
single-file write.  Every :meth:`SweepStore.save` (and
:meth:`SweepStore.save_blob`) writes to a writer-unique temp file in the
destination directory and publishes it with :func:`os.replace` — atomic on
POSIX and NTFS alike — which gives three guarantees that multiple processes
sharing one store (sweep workers, the paper campaign, the
:mod:`repro.service` daemon, an overlapping ``repro sweep run``) rely on:

* **no torn reads** — a reader observes either the previous intact record
  or the new intact record, never a partial write; a crash mid-write leaves
  only a stray ``*.tmp`` file, never a truncated record;
* **last writer wins** — two writers racing on the same config hash both
  land intact records and the later :func:`os.replace` silently replaces
  the earlier one.  This is safe *by construction of the key*: records are
  keyed by the config's content hash and resolution is deterministic in the
  config content alone, so racing writers are writing byte-identical
  payloads and it cannot matter which one survives
  (``tests/sweeps/test_sweep_store.py`` holds the same-content tolerance
  test);
* **read-modify-write is not provided** — records and blobs are replaced
  whole.  Drivers that need cross-record state (campaign manifests,
  adversary checkpoints) keep it in writer-owned blobs instead of mutating
  shared ones.

Record files are versioned: every record carries a ``schema`` field and
:func:`load_record` is the single gate that lifts on-disk JSON back into a
:class:`ConfigRecord` — it migrates records from known older layouts (the
pre-schema ``version: 1`` form) and rejects anything newer or malformed with
a :class:`StoreSchemaError` naming the file and the expected schema, instead
of lifting arbitrary JSON into a :class:`~repro.engine.BatchResult` silently.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.engine import BatchResult
from repro.sweeps.spec import SweepConfig

__all__ = ["ConfigRecord", "SweepStore", "StoreSchemaError", "load_record"]

#: Columns persisted per config (aligned, one entry per pattern).
_COLUMNS = ("solved", "k", "first_wake", "success_slot", "winner", "latency", "slots_examined")

#: Schema version stamped into every record file (as the ``schema`` field).
#: Schema 1 records predate the field and carry ``version: 1`` instead;
#: :func:`load_record` still reads them (the payload layout is identical).
_SCHEMA = 2


class StoreSchemaError(ValueError):
    """A store record could not be lifted into a :class:`ConfigRecord`.

    Raised for records written by a newer schema than this code understands,
    for files that are not valid record JSON at all, and for records missing
    required fields — always with the offending file named in the message so
    a user can delete or regenerate it.
    """


@dataclass(frozen=True)
class ConfigRecord:
    """One resolved config: its identity plus the full outcome columns.

    Attributes
    ----------
    config:
        The :class:`~repro.sweeps.spec.SweepConfig` that was resolved.
    protocol_label:
        ``protocol.describe()`` of the protocol instance that ran.
    columns:
        Per-pattern outcome columns as plain lists (see
        :class:`~repro.engine.BatchResult` for their meaning).
    summary:
        ``BatchResult.summary()`` statistics of the batch.
    """

    config: SweepConfig
    protocol_label: str
    columns: Dict[str, list]
    summary: Dict[str, float]

    @classmethod
    def from_batch(cls, config: SweepConfig, batch: BatchResult) -> "ConfigRecord":
        """Build a record from a freshly resolved :class:`BatchResult`."""
        return cls(
            config=config,
            protocol_label=batch.protocol,
            columns={name: getattr(batch, name).tolist() for name in _COLUMNS},
            summary=batch.summary(),
        )

    def to_batch_result(self) -> BatchResult:
        """Reconstruct the :class:`BatchResult` the record was built from."""
        return BatchResult(
            protocol=self.protocol_label,
            n=self.config.n,
            solved=np.asarray(self.columns["solved"], dtype=bool),
            k=np.asarray(self.columns["k"], dtype=np.int64),
            first_wake=np.asarray(self.columns["first_wake"], dtype=np.int64),
            success_slot=np.asarray(self.columns["success_slot"], dtype=np.int64),
            winner=np.asarray(self.columns["winner"], dtype=np.int64),
            latency=np.asarray(self.columns["latency"], dtype=np.int64),
            slots_examined=np.asarray(self.columns["slots_examined"], dtype=np.int64),
        )

    @property
    def all_solved(self) -> bool:
        """True iff every pattern of the config solved within the horizon."""
        return all(self.columns["solved"])

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form written to disk."""
        return {
            "schema": _SCHEMA,
            "hash": self.config.config_hash(),
            "config": self.config.as_dict(),
            "protocol_label": self.protocol_label,
            "columns": self.columns,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ConfigRecord":
        """Inverse of :meth:`as_dict`."""
        return cls(
            config=SweepConfig.from_dict(data["config"]),
            protocol_label=data["protocol_label"],
            columns={name: list(data["columns"][name]) for name in _COLUMNS},
            summary=dict(data["summary"]),
        )

    def row(self) -> Dict[str, object]:
        """Flat config+summary dict for CSV/JSON export (one row per config)."""
        out = self.config.as_dict()
        # Flatten the params mapping into one readable column so rows that
        # differ only in workload parameters stay distinguishable in a CSV.
        out["params"] = ",".join(f"{k}={v}" for k, v in sorted(out["params"].items()))
        out["hash"] = self.config.config_hash()
        out.update(self.summary)
        return out


def load_record(data: Dict[str, object], *, source: str = "<record>") -> ConfigRecord:
    """Lift one on-disk record dict into a :class:`ConfigRecord`, versioned.

    Accepts the current ``schema: 2`` layout and migrates the pre-schema
    ``version: 1`` layout (identical payload, different version field).
    Anything else — an unknown or newer schema, a record missing its
    version marker, a payload missing required fields — raises
    :class:`StoreSchemaError` naming ``source`` so stale or foreign files
    never masquerade as results.
    """
    if not isinstance(data, dict):
        raise StoreSchemaError(f"{source}: record is not a JSON object")
    schema = data.get("schema", None)
    if schema is None and data.get("version") == 1:
        schema = _SCHEMA  # legacy layout: same payload, pre-rename version field
    if schema is None:
        raise StoreSchemaError(
            f"{source}: record has no schema marker (expected schema={_SCHEMA})"
        )
    if schema != _SCHEMA:
        raise StoreSchemaError(
            f"{source}: record schema {schema!r} is not supported "
            f"(this build reads schema {_SCHEMA}); delete or regenerate it"
        )
    try:
        return ConfigRecord.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreSchemaError(f"{source}: malformed record ({exc})") from exc


class SweepStore:
    """Directory of per-config result records, keyed by config hash.

    Parameters
    ----------
    root:
        Store directory; created on first write.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, config: SweepConfig) -> Path:
        """The record file a config maps to (whether or not it exists)."""
        return self.root / f"{config.config_hash()}.json"

    def __contains__(self, config: SweepConfig) -> bool:
        return self.path_for(config).exists()

    def save(self, record: ConfigRecord) -> Path:
        """Atomically persist one record; returns its path.

        The temp name is unique per writer (``tempfile`` in the store root),
        so concurrent sweeps sharing a store cannot interleave their writes:
        whichever ``os.replace`` lands last wins with an intact record.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(record.config)
        fd, tmp = tempfile.mkstemp(
            prefix=f"{record.config.config_hash()}.", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(record.as_dict()))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path

    def load(self, config: SweepConfig) -> Optional[ConfigRecord]:
        """Load the record for ``config``, or ``None`` if not stored yet.

        Raises :class:`StoreSchemaError` when a file exists for the config's
        hash but is not a readable record of a supported schema.
        """
        path = self.path_for(config)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreSchemaError(f"{path}: not valid JSON ({exc})") from exc
        return load_record(data, source=str(path))

    # -- auxiliary blobs -----------------------------------------------------
    #
    # Besides per-config result records, a store can hold named auxiliary
    # JSON blobs — checkpoints of long-running drivers that want the same
    # atomic-write + resume semantics (the adversarial-search driver keeps
    # its per-step state under ``adversary/<spec-hash>``, the paper campaign
    # its render-side compute under ``render/<hash>``).  Blob keys map to
    # ``<key>.json`` under the store root; a ``/`` in the key creates a
    # subdirectory, which keeps blobs out of the top-level ``*.json`` record
    # namespace (and out of ``len(store)``).  Schema versioning of the blob
    # payload is the caller's contract; this layer only guarantees atomic
    # writes and raises :class:`StoreSchemaError` for unreadable JSON.

    def blob_path(self, key: str) -> Path:
        """The file a blob key maps to (whether or not it exists)."""
        if not key or key.startswith("/") or ".." in key:
            raise ValueError(f"invalid blob key {key!r}")
        return self.root / f"{key}.json"

    def save_blob(self, key: str, payload: Dict[str, object]) -> Path:
        """Atomically persist one JSON blob under ``key``; returns its path."""
        path = self.blob_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path

    def load_blob(self, key: str) -> Optional[Dict[str, object]]:
        """Load the blob under ``key``, or ``None`` when absent.

        Raises :class:`StoreSchemaError` when the file exists but is not
        valid JSON (a torn or foreign file must fail loudly, exactly like a
        corrupt config record).
        """
        path = self.blob_path(key)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreSchemaError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise StoreSchemaError(f"{path}: blob is not a JSON object")
        return data

    def blobs(self, prefix: str) -> List[Path]:
        """Existing blob files under ``prefix/`` (sorted, for reporting)."""
        directory = self.root / prefix
        if not directory.is_dir():
            return []
        return sorted(directory.glob("*.json"))

    def completed(self, configs: Sequence[SweepConfig]) -> List[SweepConfig]:
        """The subset of ``configs`` that already have a stored record."""
        return [config for config in configs if config in self]

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
