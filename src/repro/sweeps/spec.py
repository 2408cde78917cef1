"""Sweep specifications: config grids as plain, hashable data.

A :class:`SweepSpec` describes a whole experiment campaign as the Cartesian
product of axes — protocols × universe sizes × contender budgets × workloads ×
seeds — and expands it into an ordered list of :class:`SweepConfig` records.
Each config is pure data (strings and integers only), which buys three things
at once:

* it crosses process boundaries cheaply (the sweep runner ships configs, not
  protocol objects, to its workers);
* it serializes to JSON, so a spec is a file a user can edit and re-run
  (``repro sweep run --spec grid.json``);
* it hashes stably — :meth:`SweepConfig.config_hash` is a SHA-256 digest of
  the canonical JSON form — so an on-disk result store can key records by
  config and recognize already-computed work across interpreter sessions.

The grid expansion order is deterministic (protocol, then n, then k, then
workload, then seed) and combinations with ``k > n`` are skipped, mirroring
the ``k <= n`` constraint every experiment sweep applies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

__all__ = ["SweepConfig", "SweepSpec", "powers_of_two_up_to"]

#: Extra workload parameters, stored as a sorted tuple of (key, value) pairs
#: so configs stay hashable and their canonical JSON form is order-free.
ParamItems = Tuple[Tuple[str, object], ...]


def _freeze_params(params: Optional[Mapping[str, object]]) -> ParamItems:
    items = tuple(sorted((str(k), v) for k, v in dict(params or {}).items()))
    for _, value in items:
        if not isinstance(value, (int, float, str, bool)):
            raise TypeError(
                f"workload parameters must be JSON scalars, got {type(value).__name__}"
            )
    return items


@dataclass(frozen=True)
class SweepConfig:
    """One fully-specified simulation configuration of a sweep.

    Attributes
    ----------
    protocol:
        Name in :data:`repro.sweeps.protocols.PROTOCOL_BUILDERS`.
    n, k:
        Universe size and contender budget.
    workload:
        Name in the workload registry (see :mod:`repro.workloads`).
    batch:
        Number of patterns the config resolves.
    seed:
        Base seed; it alone determines the patterns (via the workload suite's
        ``SeedSequence`` discipline) and, for randomized policies, the
        per-pattern generators — never any shared mutable stream, which is
        what makes sweep results worker-count invariant.
    max_slots:
        Simulation horizon per pattern.
    params:
        Extra workload parameters as sorted ``(key, value)`` pairs.
    protocol_params:
        Extra protocol-construction parameters as sorted ``(key, value)``
        pairs, forwarded to the protocol builder (e.g. ``window``/``c`` for
        ``scenario-c`` ablations).  Empty for the default construction — and
        omitted from the canonical JSON form when empty, so configs without
        overrides keep their historical hashes (and their store records).
    """

    protocol: str
    n: int
    k: int
    workload: str = "uniform"
    batch: int = 64
    seed: int = 0
    max_slots: int = 200_000
    params: ParamItems = ()
    protocol_params: ParamItems = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(dict(self.params)))
        object.__setattr__(
            self, "protocol_params", _freeze_params(dict(self.protocol_params))
        )
        if self.n < 1 or self.k < 1 or self.k > self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.max_slots < 1:
            raise ValueError(f"max_slots must be >= 1, got {self.max_slots}")

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-ready; ``params`` becomes a dict).

        ``protocol_params`` appears only when non-empty: the default
        construction keeps the exact canonical form (and hash) it had before
        the field existed, so pre-existing stores stay valid.
        """
        out: Dict[str, object] = {
            "protocol": self.protocol,
            "n": self.n,
            "k": self.k,
            "workload": self.workload,
            "batch": self.batch,
            "seed": self.seed,
            "max_slots": self.max_slots,
            "params": dict(self.params),
        }
        if self.protocol_params:
            out["protocol_params"] = dict(self.protocol_params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepConfig":
        """Inverse of :meth:`as_dict`."""
        known = dict(data)
        params = known.pop("params", {})
        protocol_params = known.pop("protocol_params", {})
        return cls(
            params=_freeze_params(params),
            protocol_params=_freeze_params(protocol_params),
            **known,
        )

    def config_hash(self) -> str:
        """Stable 16-hex-digit key for the on-disk result store.

        The hash covers every field through the canonical (sorted-keys) JSON
        form of :meth:`as_dict`, so two configs share a key iff they describe
        the same computation — across processes, sessions and platforms.
        """
        # Computed once per instance: the fields are frozen, and the campaign
        # asks for one spec's hash several times (dedup, store path, lookup).
        cached = self.__dict__.get("_config_hash")
        if cached is None:
            canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_config_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        # The cached hash is derived data; a pickle carries the fields alone,
        # identical whether or not the hash was asked for.
        state = dict(self.__dict__)
        state.pop("_config_hash", None)
        return state

    def label(self) -> str:
        """Short human-readable identifier used in tables and progress lines."""
        protocol = self.protocol
        if self.protocol_params:
            overrides = ",".join(f"{k}={v}" for k, v in self.protocol_params)
            protocol = f"{protocol}[{overrides}]"
        return (
            f"{protocol} n={self.n} k={self.k} "
            f"{self.workload} x{self.batch} seed={self.seed}"
        )


def powers_of_two_up_to(n: int) -> List[int]:
    """The default ``k`` axis: powers of two up to ``n`` (``[1]`` for n=1).

    Shared by the grid expansion and the CLI's ``sweep worst-case`` action so
    an omitted ``k_values`` means the same sweep everywhere.
    """
    ks, k = [], 2
    while k <= n:
        ks.append(k)
        k *= 2
    return ks or [1]


@dataclass(frozen=True)
class SweepSpec:
    """A config grid: the Cartesian product of sweep axes.

    ``k_values=None`` (the default) uses the powers of two up to each ``n`` —
    the ``k`` sweep every E-series experiment walks.  Combinations with
    ``k > n`` are skipped.

    Examples
    --------
    >>> spec = SweepSpec(protocols=("round-robin",), n_values=(16,), k_values=(4,))
    >>> [c.label() for c in spec.configs()]
    ['round-robin n=16 k=4 uniform x64 seed=0']
    """

    protocols: Tuple[str, ...] = ("scenario-b",)
    n_values: Tuple[int, ...] = (256,)
    k_values: Optional[Tuple[int, ...]] = None
    workloads: Tuple[str, ...] = ("uniform",)
    seeds: Tuple[int, ...] = (0,)
    batch: int = 64
    max_slots: int = 200_000
    params: ParamItems = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if self.k_values is not None:
            object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "params", _freeze_params(dict(self.params)))
        for name, values in (
            ("protocols", self.protocols),
            ("n_values", self.n_values),
            ("workloads", self.workloads),
            ("seeds", self.seeds),
        ):
            if not values:
                raise ValueError(f"spec axis {name!r} must be non-empty")
        if self.k_values is not None and not self.k_values:
            raise ValueError("spec axis 'k_values' must be non-empty (or None)")

    # -- grid expansion ------------------------------------------------------

    def configs(self) -> List[SweepConfig]:
        """Expand the grid in deterministic (protocol, n, k, workload, seed) order."""
        out: List[SweepConfig] = []
        for protocol in self.protocols:
            for n in self.n_values:
                ks = self.k_values if self.k_values is not None else powers_of_two_up_to(n)
                for k in ks:
                    if k > n:
                        continue
                    for workload in self.workloads:
                        for seed in self.seeds:
                            out.append(
                                SweepConfig(
                                    protocol=protocol,
                                    n=n,
                                    k=k,
                                    workload=workload,
                                    batch=self.batch,
                                    seed=seed,
                                    max_slots=self.max_slots,
                                    params=self.params,
                                )
                            )
        if not out:
            raise ValueError("spec expands to an empty grid (every k exceeded its n)")
        return out

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-ready)."""
        return {
            "protocols": list(self.protocols),
            "n_values": list(self.n_values),
            "k_values": None if self.k_values is None else list(self.k_values),
            "workloads": list(self.workloads),
            "seeds": list(self.seeds),
            "batch": self.batch,
            "max_slots": self.max_slots,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Inverse of :meth:`as_dict` (missing keys take the defaults)."""
        known = dict(data)
        params = known.pop("params", {})
        k_values = known.pop("k_values", None)
        return cls(
            params=_freeze_params(params),
            k_values=None if k_values is None else tuple(k_values),
            **known,
        )

    def to_json(self, *, indent: int = 2) -> str:
        """Serialize the spec to a JSON string."""
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a spec from a JSON string."""
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as JSON to ``path`` and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepSpec":
        """Read a spec previously written with :meth:`save` (or by hand)."""
        return cls.from_json(Path(path).read_text())
