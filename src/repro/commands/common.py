"""What several command handlers share: usage errors and ``--trace`` sessions."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.obs import core as obs

__all__ = ["tracing", "usage_error"]


def usage_error(exc: Exception) -> int:
    """Report a usage error as ``error: <message>`` on stderr; exit like argparse."""
    message = exc.args[0] if exc.args else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


@contextmanager
def tracing(trace: Optional[str], argv: Optional[List[str]] = None) -> Iterator[None]:
    """Run one command under an observability session when ``--trace`` is set.

    A session already enabled (``REPRO_OBS``) keeps collecting and keeps its
    own lifetime — a command-level ``--trace`` on top of it is refused with a
    warning rather than silently splitting the run across two sinks.
    """
    if trace is None:
        yield
        return
    if obs.enabled():
        print(
            "warning: observability already enabled (REPRO_OBS); --trace ignored",
            file=sys.stderr,
        )
        yield
        return
    obs.enable(trace, argv=argv)
    try:
        yield
    finally:
        manifest = obs.disable()
        if manifest is not None and manifest.get("trace"):
            print(
                f"trace written to {manifest['trace']} "
                f"(manifest: {obs.manifest_path_for(str(manifest['trace']))})"
            )
