"""Reporting: text tables, ASCII figures and result export.

The benchmark harness prints the same rows/series the paper's claims are
about; since the original paper contains no numeric tables (it is a theory
paper), the formats here are the reproduction's own, designed so that the
tables of ``repro paper report`` regenerate verbatim from the same runs.
"""

from repro.reporting.tables import TextTable
from repro.reporting.figures import ascii_line_plot, render_matrix_occupancy, render_trace
from repro.reporting.export import (
    results_to_csv,
    results_to_json,
    write_csv,
    write_json,
)

__all__ = [
    "TextTable",
    "ascii_line_plot",
    "render_matrix_occupancy",
    "render_trace",
    "results_to_csv",
    "results_to_json",
    "write_csv",
    "write_json",
]
