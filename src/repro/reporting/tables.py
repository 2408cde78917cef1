"""Plain-text tables.

Small, dependency-free table rendering used by the benchmark harness and the
examples.  Numbers are formatted compactly (integers as integers, floats with
three significant digits) so that the tables of ``repro paper report`` stay
readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

__all__ = ["TextTable", "format_cell"]


def format_cell(value: Any) -> str:
    """Format a table cell: ints verbatim, floats to 4 significant digits."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    if value is None:
        return "-"
    return str(value)


@dataclass
class TextTable:
    """A simple column-aligned text table.

    Examples
    --------
    >>> t = TextTable(["k", "latency"])
    >>> t.add_row([2, 10]); t.add_row([4, 31])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    k | latency
    --+--------
    2 | 10
    4 | 31
    """

    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)
    title: Optional[str] = None

    def add_row(self, values: Sequence[Any]) -> None:
        """Append a row (must match the number of headers)."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells but the table has {len(self.headers)} columns"
            )
        self.rows.append([format_cell(v) for v in values])

    def render(self) -> str:
        """Render the table as aligned plain text."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        header = " | ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        separator = "-+-".join("-" * w for w in widths)
        lines.append(header.rstrip())
        lines.append(separator)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
