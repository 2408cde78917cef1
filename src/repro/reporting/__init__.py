"""Reporting: text tables, ASCII figures and result export.

The benchmark harness prints the same rows/series the paper's claims are
about; since the original paper contains no numeric tables (it is a theory
paper), the formats here are the reproduction's own, designed so that the
tables of ``repro paper report`` regenerate verbatim from the same runs.
"""

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "TextTable": "repro.reporting.tables",
    "ascii_line_plot": "repro.reporting.figures",
    "render_matrix_occupancy": "repro.reporting.figures",
    "render_trace": "repro.reporting.figures",
    "results_to_csv": "repro.reporting.export",
    "results_to_json": "repro.reporting.export",
    "write_csv": "repro.reporting.export",
    "write_json": "repro.reporting.export",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
