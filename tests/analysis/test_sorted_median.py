"""``sorted_median`` equals ``float(np.median(x))`` bit for bit on finite input."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.analysis.statistics import sorted_median
from repro.experiments.config import QUICK
from repro.experiments.campaign import run_experiment

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _same_bits(a: float, b: float) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a.hex() == b.hex()


def _assert_matches_numpy(values) -> None:
    with np.errstate(over="ignore"):  # two huge middles sum to inf in both
        expected = float(np.median(np.asarray(values, dtype=float)))
    got = sorted_median(values)
    assert type(got) is float
    assert _same_bits(got, expected), (values, got, expected)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, min_size=1, max_size=41))
def test_matches_numpy_on_finite_floats(values):
    _assert_matches_numpy(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=1, max_size=20).map(lambda xs: xs + xs[:1] * 3))
def test_matches_numpy_with_ties(values):
    _assert_matches_numpy(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-(2**60), max_value=2**60), min_size=1, max_size=30))
def test_matches_numpy_on_integers(values):
    _assert_matches_numpy(values)


@pytest.mark.parametrize(
    "values",
    [
        [3.0],
        [1.0, 2.0],
        [5.0, 1.0, 3.0],
        [4.0, 1.0, 3.0, 2.0],
        [2.0, 2.0, 2.0, 2.0],
        [1.0, 2.0, 2.0, 9.0],
        [0.1, 0.2, 0.3, 0.4],
        [1 / 3, 2 / 3, 1 / 7, 5 / 9, 0.5, 0.25],
        [-0.0, 0.0],
        [1e308, 1.5e308],
        [0.34, 0.35, 0.34, 0.33],
    ],
)
def test_matches_numpy_on_odd_even_and_tied_cases(values):
    _assert_matches_numpy(values)


def test_empty_sample_is_rejected():
    with pytest.raises(ValueError):
        sorted_median([])


def test_e11_note_is_unchanged():
    result = run_experiment("E11", QUICK)
    ratios = [
        row["local_clock_schedule"] / max(1, row["wait_and_go_global"]) for row in result.rows
    ]
    assert result.notes[0] == (
        "median latency ratio local/global for the selective-family schedules: "
        f"{float(np.median(ratios)):.2f}x on this pattern battery"
    )
    assert result.notes[0] == (
        "median latency ratio local/global for the selective-family schedules: "
        "0.34x on this pattern battery"
    )


def test_helper_does_not_import_numpy_ma():
    code = (
        "import sys\n"
        "from repro.analysis.statistics import sorted_median\n"
        "sorted_median([1.0, 2.0, 4.0, 3.0])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
