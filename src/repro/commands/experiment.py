"""``repro experiment``: one experiment of the E1–E11 registry."""

from __future__ import annotations

import argparse

from repro.experiments.campaign import run_experiment
from repro.experiments.config import SCALES

__all__ = ["run"]


def run(args: argparse.Namespace) -> int:
    result = run_experiment(args.experiment_id, SCALES[args.scale])
    print(result.summary())
    return 0 if result.all_certificates_hold else 1
