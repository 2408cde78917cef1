"""Result export: CSV and JSON serialization of experiment rows.

Experiments produce lists of flat dictionaries (one per configuration); this
module turns them into CSV / JSON files so results can be archived next to
the ``repro paper report`` output and re-plotted outside the repository.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Union

__all__ = ["results_to_csv", "results_to_json", "write_csv", "write_json", "write_rows"]

PathLike = Union[str, Path]


def _normalize(rows: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    normalized = [dict(row) for row in rows]
    if not normalized:
        raise ValueError("no rows to export")
    return normalized


def results_to_csv(rows: Iterable[Mapping[str, Any]]) -> str:
    """Serialize rows to a CSV string (columns = union of keys, insertion order)."""
    normalized = _normalize(rows)
    columns: List[str] = []
    for row in normalized:
        for key in row:
            if key not in columns:
                columns.append(key)
    import io

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    for row in normalized:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buffer.getvalue()


def results_to_json(rows: Iterable[Mapping[str, Any]], *, indent: int = 2) -> str:
    """Serialize rows to a JSON array string."""
    normalized = _normalize(rows)
    return json.dumps(normalized, indent=indent, default=_json_default)


def _json_default(obj: Any) -> Any:
    """Fallback serializer for numpy scalars and other simple objects."""
    for attr in ("item",):
        if hasattr(obj, attr):
            return getattr(obj, attr)()
    if hasattr(obj, "as_dict"):
        return obj.as_dict()
    return str(obj)


def write_csv(rows: Iterable[Mapping[str, Any]], path: PathLike) -> Path:
    """Write rows as CSV to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(results_to_csv(rows))
    return path


def write_json(rows: Iterable[Mapping[str, Any]], path: PathLike, *, indent: int = 2) -> Path:
    """Write rows as JSON to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(results_to_json(rows, indent=indent))
    return path


def write_rows(rows: Iterable[Mapping[str, Any]], path: PathLike) -> Path:
    """Write rows to ``path``, picking the format from its suffix.

    ``.json`` writes a JSON array; anything else writes CSV (the default the
    ``repro sweep --export`` and experiment harnesses share).
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return write_json(rows, path)
    return write_csv(rows, path)
