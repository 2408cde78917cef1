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

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "PROTOCOL_BUILDERS": "repro.sweeps.protocols",
    "build_protocol": "repro.sweeps.protocols",
    "protocol_names": "repro.sweeps.protocols",
    "SweepConfig": "repro.sweeps.spec",
    "SweepSpec": "repro.sweeps.spec",
    "SweepStore": "repro.sweeps.store",
    "StoreSchemaError": "repro.sweeps.store",
    "load_record": "repro.sweeps.store",
    "ConfigRecord": "repro.sweeps.store",
    "SweepRunner": "repro.sweeps.runner",
    "SweepResult": "repro.sweeps.runner",
    "SweepStatus": "repro.sweeps.runner",
    "map_jobs": "repro.sweeps.runner",
    "resolve_config": "repro.sweeps.runner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
