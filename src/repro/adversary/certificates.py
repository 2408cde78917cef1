"""Replayable search certificates: a found pattern plus its replay recipe.

A guided search is only as trustworthy as its worst finding is *replayable*:
the :class:`SearchCertificate` packages everything needed to re-measure the
reported latency standalone — the protocol registry name and construction
parameters (:mod:`repro.sweeps.protocols`), the exact wake times, and (for
randomized policies) the coordinates of the per-candidate stream the search
used, so :func:`replay_certificate` reproduces the recorded number bit for
bit or fails loudly.

Certificates are schema-versioned plain JSON, written atomically, and lifted
back through one gate (:func:`load_certificate`) that rejects foreign,
corrupted or newer-schema files with a :class:`CertificateSchemaError` naming
the offending source — the same discipline :mod:`repro.sweeps.store` applies
to sweep records.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Union

import numpy as np

from repro._util import indexed_generators
from repro.channel.wakeup import WakeupPattern, decode_wake_times, encode_wake_times

__all__ = [
    "CERTIFICATE_SCHEMA",
    "CertificateSchemaError",
    "SearchCertificate",
    "evaluation_generators",
    "load_certificate",
    "read_certificates",
    "write_certificate",
    "replay_certificate",
]

#: Schema version stamped into every certificate (as the ``schema`` field).
CERTIFICATE_SCHEMA = 1


class CertificateSchemaError(ValueError):
    """A certificate could not be lifted into a :class:`SearchCertificate`.

    Raised for unknown or newer schemas, for files that are not certificate
    JSON at all, and for payloads missing required fields — always naming the
    offending source so the user can delete or regenerate it.
    """


def evaluation_generators(
    seed: int, spec_hash: str, step: int, indices: Iterable[int]
) -> List[np.random.Generator]:
    """The per-candidate streams for candidates ``indices`` of search step ``step``.

    Every randomized-policy evaluation in a guided search draws from a
    generator derived here — keyed by the search seed, the spec's content
    hash and the candidate's *global* step coordinates, never by its position
    inside a worker's shard.  That is the whole worker-count/resume-invariance
    argument in one line: the stream a candidate consumes depends only on
    *which* candidate it is, so any sharding of a step's population across
    processes (or a resume that re-enters the step) replays identical draws.
    A search derives a whole step's population in one call; a replayed
    certificate re-derives its one stream from its recorded
    ``(seed, spec_hash, step, index)``.
    """
    return indexed_generators(int(seed), indices, "adversary-eval", spec_hash, int(step))


@dataclass(frozen=True)
class SearchCertificate:
    """One replayable worst-case finding of a guided adversarial search.

    ``latency`` follows the search's effective-latency convention: the run's
    latency when solved, else ``max_slots`` (``solved`` disambiguates).
    ``step``/``index`` are the candidate's global coordinates inside the
    search — for randomized policies they pin down the evaluation stream via
    :func:`evaluation_generators`.  ``bound_ratio`` is
    ``latency / trivial_lower_bound(n, k)`` computed through
    :func:`repro.analysis.certificates.bound_ratio`.
    """

    protocol: str
    n: int
    k: int
    strategy: str
    seed: int
    wake_times: Dict[int, int]
    latency: int
    solved: bool
    bound_ratio: float
    max_slots: int
    spec_hash: str
    step: int
    index: int
    protocol_params: Dict[str, object]

    def pattern(self) -> WakeupPattern:
        """The certified wake-up pattern as a first-class object."""
        return WakeupPattern(self.n, dict(self.wake_times))

    def as_dict(self) -> Dict[str, object]:
        """Plain-data JSON form; :func:`load_certificate` inverts it."""
        return {
            "schema": CERTIFICATE_SCHEMA,
            "protocol": self.protocol,
            "n": self.n,
            "k": self.k,
            "strategy": self.strategy,
            "seed": self.seed,
            "wake_times": encode_wake_times(self.wake_times),
            "latency": self.latency,
            "solved": self.solved,
            "bound_ratio": self.bound_ratio,
            "max_slots": self.max_slots,
            "spec_hash": self.spec_hash,
            "step": self.step,
            "index": self.index,
            "protocol_params": dict(self.protocol_params),
        }

    def describe(self) -> str:
        """One-line summary for reports and CLI output."""
        status = "solved" if self.solved else "UNSOLVED"
        return (
            f"{self.protocol} n={self.n} k={self.k} [{self.strategy}] "
            f"latency={self.latency} ({status}) ratio={self.bound_ratio:.3g}"
        )


def load_certificate(
    data: Mapping[str, object], *, source: str = "<certificate>"
) -> SearchCertificate:
    """Lift one certificate dict into a :class:`SearchCertificate`, versioned.

    The single validation gate for certificates from any origin (files,
    store checkpoints, network payloads): anything that is not a
    schema-``1`` certificate with a well-formed payload raises
    :class:`CertificateSchemaError` naming ``source``.
    """
    if not isinstance(data, Mapping):
        raise CertificateSchemaError(f"{source}: certificate is not a JSON object")
    schema = data.get("schema")
    if schema is None:
        raise CertificateSchemaError(
            f"{source}: certificate has no schema marker "
            f"(expected schema={CERTIFICATE_SCHEMA})"
        )
    if schema != CERTIFICATE_SCHEMA:
        raise CertificateSchemaError(
            f"{source}: certificate schema {schema!r} is not supported "
            f"(this build reads schema {CERTIFICATE_SCHEMA}); "
            "delete or regenerate it"
        )
    try:
        return SearchCertificate(
            protocol=str(data["protocol"]),
            n=int(data["n"]),
            k=int(data["k"]),
            strategy=str(data["strategy"]),
            seed=int(data["seed"]),
            wake_times=decode_wake_times(data["wake_times"]),
            latency=int(data["latency"]),
            solved=bool(data["solved"]),
            bound_ratio=float(data["bound_ratio"]),
            max_slots=int(data["max_slots"]),
            spec_hash=str(data["spec_hash"]),
            step=int(data["step"]),
            index=int(data["index"]),
            protocol_params=dict(data["protocol_params"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateSchemaError(f"{source}: malformed certificate ({exc})") from exc


def write_certificate(certificate: SearchCertificate, path: Union[str, Path]) -> Path:
    """Atomically write one certificate as JSON; returns its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(certificate.as_dict(), indent=2, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def read_certificates(path: Union[str, Path]) -> List[SearchCertificate]:
    """Read a certificate file through the :func:`load_certificate` gate.

    The file holds one certificate (what :func:`write_certificate` writes)
    or a JSON array of them (what ``repro sweep worst-case --export
    PATH.json`` writes, one row per grid cell); element ``i`` is lifted with
    source ``PATH[i]``.  Unreadable JSON and an empty array raise
    :class:`CertificateSchemaError` naming the path, exactly like a schema
    mismatch.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CertificateSchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, list):
        return [load_certificate(data, source=str(path))]
    if not data:
        raise CertificateSchemaError(f"{path}: holds no certificates")
    return [load_certificate(row, source=f"{path}[{i}]") for i, row in enumerate(data)]


def replay_certificate(certificate: SearchCertificate) -> SearchCertificate:
    """Re-measure a certificate standalone and return the re-measured copy.

    Rebuilds the protocol from the registry
    (:func:`repro.sweeps.protocols.build_protocol`), re-runs the certified
    pattern through the batch engine — re-deriving the original evaluation
    stream via :func:`evaluation_generators` when the protocol is a randomized
    policy — and returns a certificate identical to the input except for the
    re-measured ``latency``/``solved``/``bound_ratio``.  A faithful replay
    compares equal to its input; callers (the CLI's ``adversary replay``, the
    replay tests) assert exactly that.
    """
    from repro.analysis.certificates import bound_ratio as _bound_ratio
    from repro.channel.protocols import RandomizedPolicy
    from repro.core.lower_bounds import trivial_lower_bound
    from repro.engine import run_batch
    from repro.sweeps.protocols import build_protocol

    protocol = build_protocol(
        certificate.protocol,
        certificate.n,
        certificate.k,
        seed=certificate.seed,
        **certificate.protocol_params,
    )
    rngs = None
    if isinstance(protocol, RandomizedPolicy):
        rngs = evaluation_generators(
            certificate.seed, certificate.spec_hash, certificate.step, [certificate.index]
        )
    batch = run_batch(
        protocol, [certificate.pattern()], rngs=rngs, max_slots=certificate.max_slots
    )
    solved = bool(batch.solved[0])
    latency = int(batch.latency[0]) if solved else int(certificate.max_slots)
    return replace(
        certificate,
        latency=latency,
        solved=solved,
        bound_ratio=_bound_ratio(
            certificate.n, certificate.k, latency, trivial_lower_bound
        ),
    )
