"""ASCII figures: line plots, transmission-matrix occupancy, and trace timelines.

The reproduction runs in a terminal-only environment, so the paper's figures
are rendered as ASCII art:

* :func:`ascii_line_plot` — log-friendly scatter/line plot used for the
  latency-vs-``k`` and gap-factor figures (E5, E6);
* :func:`render_matrix_occupancy` — the paper's Figure 1: which cells of the
  transmission matrix a station visits between its wake-up and the end of a
  row span;
* :func:`render_trace` — the paper's Figure 2 flavour: a per-slot timeline
  showing who transmits (and where collisions happen) so the column-alignment
  of stations with different wake-up times is visible.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.channel.trace import ExecutionTrace
from repro.core.waking_matrix import MatrixParameters

__all__ = ["ascii_line_plot", "render_matrix_occupancy", "render_trace"]


def ascii_line_plot(
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    *,
    width: int = 70,
    height: int = 18,
    title: Optional[str] = None,
    logy: bool = False,
) -> str:
    """Render one or more series against common x values as an ASCII plot.

    Each series gets a distinct marker; collisions of markers in the same cell
    show the marker of the last series drawn.  Intended for the "shape"
    figures of ``repro paper report``, not for precision reading.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("xs must be non-empty")
    if not series:
        raise ValueError("series must be non-empty")
    markers = "*o+x#@%&"
    all_ys = np.concatenate([np.asarray(ys, dtype=float) for ys in series.values()])
    if logy:
        if np.any(all_ys <= 0):
            raise ValueError("logy requires strictly positive values")
        transform = np.log10
    else:

        def transform(v):
            return np.asarray(v, dtype=float)

    ty = transform(all_ys)
    y_min, y_max = float(ty.min()), float(ty.max())
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = float(xs.min()), float(xs.max())
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for s_idx, (name, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        if ys.shape != xs.shape:
            raise ValueError(f"series {name!r} length does not match xs")
        marker = markers[s_idx % len(markers)]
        for x, y in zip(xs, transform(ys)):
            col = int(round((x - x_min) / (x_max - x_min) * (width - 1)))
            row = int(round((y - y_min) / (y_max - y_min) * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    y_label_top = f"{(10**y_max if logy else y_max):.3g}"
    y_label_bottom = f"{(10**y_min if logy else y_min):.3g}"
    lines.append(f"y_max = {y_label_top}")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f"y_min = {y_label_bottom}   x: {x_min:.3g} .. {x_max:.3g}")
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {name}" for i, name in enumerate(series)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def render_matrix_occupancy(
    params: MatrixParameters,
    wake_times: Dict[int, int],
    *,
    columns: int = 72,
) -> str:
    """Render which matrix rows each station occupies over time (paper Figure 1/2).

    Every station gets one text row per matrix row it ever executes; a ``#``
    marks slots where that station is conditionally transmitting from that
    matrix row, ``.`` marks slots where it is operational but on a different
    row, and a space marks slots before ``µ(σ)``.  The horizontal axis covers
    ``columns`` slots starting at the earliest wake-up.
    """
    if not wake_times:
        raise ValueError("wake_times must be non-empty")
    start = min(wake_times.values())
    lines = [
        f"matrix: rows={params.rows}, window={params.window}, length={params.length}",
        f"slots {start} .. {start + columns - 1} (one character per slot)",
    ]
    for station in sorted(wake_times):
        sigma = wake_times[station]
        mu = params.mu(sigma)
        for row in range(1, params.rows + 1):
            row_start = mu + params.row_start_offset(row)
            row_stop = row_start + params.row_spans[row - 1]
            cells = []
            for slot in range(start, start + columns):
                if slot < sigma:
                    cells.append(" ")
                elif slot < mu:
                    cells.append("w")  # waiting for the window boundary
                elif row_start <= slot < row_stop:
                    cells.append("#")
                elif slot >= mu:
                    cells.append(".")
                else:
                    cells.append(" ")
            line = "".join(cells)
            if "#" in line:
                lines.append(f"station {station:>4} row {row:>2} |{line}|")
    return "\n".join(lines)


def render_trace(trace: ExecutionTrace, *, stations: Optional[Sequence[int]] = None) -> str:
    """Render an execution trace as a per-station timeline.

    One row per station, one character per slot: ``T`` transmit (successful
    slot marked ``!``), ``.`` awake and silent, space not yet relevant.  A
    footer row marks the channel outcome per slot (``s`` silence, ``C``
    collision, ``!`` success).
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    slots = [r.slot for r in trace]
    lo, hi = slots[0], slots[-1]
    involved = sorted({u for r in trace for u in r.transmitters})
    if stations is not None:
        involved = sorted(set(involved) | {int(s) for s in stations})
    index = {slot: r for slot, r in zip(slots, trace)}
    lines = [f"slots {lo} .. {hi}"]
    for u in involved:
        cells = []
        for slot in range(lo, hi + 1):
            record = index.get(slot)
            if record is None:
                cells.append(" ")
            elif u in record.transmitters:
                cells.append("!" if record.outcome.is_success else "T")
            else:
                cells.append(".")
        lines.append(f"station {u:>4} |{''.join(cells)}|")
    outcome_cells = []
    for slot in range(lo, hi + 1):
        record = index.get(slot)
        if record is None:
            outcome_cells.append(" ")
        elif record.outcome.is_success:
            outcome_cells.append("!")
        elif record.transmitters:
            outcome_cells.append("C")
        else:
            outcome_cells.append("s")
    lines.append(f"channel      |{''.join(outcome_cells)}|")
    return "\n".join(lines)
