"""Sweep orchestration: whole config grids sharded across processes.

The third layer of the execution stack.  The protocol/policy vectorized APIs
answer "which pairs transmit in this chunk", :mod:`repro.engine` turns that
into one chunked scan over B patterns, and this package turns a *grid* of
``(protocol, n, k, workload, seed)`` configs into a process-parallel,
resumable campaign:

* :class:`~repro.sweeps.spec.SweepSpec` / :class:`~repro.sweeps.spec.SweepConfig`
  — the grid and its cells as plain JSON-able data with stable content
  hashes;
* :class:`~repro.sweeps.runner.SweepRunner` — shards pending configs across
  the processes of a :class:`~repro.sweeps.runner.WorkerPool`; results are
  bit-for-bit identical for any worker count because every config derives
  its randomness from its own content (``SeedSequence``, never a shared
  stream);
* :class:`~repro.sweeps.store.SweepStore` — one JSON record per config keyed
  by config hash, written atomically as configs finish, so interrupted
  sweeps resume and overlapping sweeps share work;
* :mod:`repro.sweeps.protocols` — the name → builder registry workers use to
  reconstruct protocols from primitives (shared with the CLI).

Example
-------
>>> from repro.sweeps import SweepSpec, SweepRunner
>>> spec = SweepSpec(protocols=("round-robin",), n_values=(32,), k_values=(4,), batch=8)
>>> result = SweepRunner(workers=0).run(spec)
>>> len(result), result.all_solved
(1, True)

The CLI front end is ``repro sweep run|resume|status`` (see
:mod:`repro.cli`).
"""

from repro.sweeps.protocols import PROTOCOL_BUILDERS, build_protocol, protocol_names
from repro.sweeps.runner import SweepResult, SweepRunner, SweepStatus, map_jobs, resolve_config
from repro.sweeps.spec import SweepConfig, SweepSpec
from repro.sweeps.store import ConfigRecord, StoreSchemaError, SweepStore, load_record

__all__ = [
    "PROTOCOL_BUILDERS",
    "build_protocol",
    "protocol_names",
    "SweepConfig",
    "SweepSpec",
    "SweepStore",
    "StoreSchemaError",
    "load_record",
    "ConfigRecord",
    "SweepRunner",
    "SweepResult",
    "SweepStatus",
    "map_jobs",
    "resolve_config",
]
