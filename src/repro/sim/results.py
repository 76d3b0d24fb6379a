"""Result records, tables and serialisation.

Experiments produce tabular data: one row per (algorithm, parameter point,
trial) with cost columns.  :class:`ResultTable` is a small dependency-free
table abstraction with CSV/JSON export and fixed-width text rendering, used by
every experiment module and by the benchmark harness to print the series that
correspond to the paper's figures.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.exceptions import ExperimentError

__all__ = ["ResultTable", "summarise_values"]


def summarise_values(values: Sequence[float]) -> Dict[str, float]:
    """Return mean / min / max / count of a numeric sample (empty-safe)."""
    values = [float(v) for v in values]
    if not values:
        return {"mean": 0.0, "min": 0.0, "max": 0.0, "count": 0.0}
    return {
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "count": float(len(values)),
    }


def _same_cells(left: object, right: object) -> bool:
    """``left == right``, except that two ``nan`` floats compare equal."""
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (left != left and right != right)
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _same_cells(value, right[key]) for key, value in left.items()
        )
    if isinstance(left, (list, tuple)) and type(left) is type(right):
        return len(left) == len(right) and all(map(_same_cells, left, right))
    return left == right


@dataclass
class ResultTable:
    """A list of homogeneous result rows (dictionaries) with export helpers.

    Attributes
    ----------
    name:
        Table name, used as default file stem and in rendered headers.
    columns:
        Column order; rows may contain extra keys, which are ignored when
        rendering but preserved when exporting to JSON.
    rows:
        The data rows.
    """

    name: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append a row given as keyword arguments."""
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise ExperimentError(
                f"row for table {self.name!r} is missing columns: {missing}"
            )
        self.rows.append(dict(values))

    def extend(self, rows: Iterable[Dict[str, object]]) -> None:
        """Append many rows."""
        for row in rows:
            self.add_row(**row)

    def column(self, name: str) -> List[object]:
        """Return all values of one column, in row order."""
        if name not in self.columns and not any(name in row for row in self.rows):
            raise ExperimentError(f"unknown column {name!r} in table {self.name!r}")
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria: object) -> "ResultTable":
        """Return a new table containing only the rows matching all criteria."""
        selected = [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]
        return ResultTable(name=self.name, columns=list(self.columns), rows=selected)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        """Field-wise equality in which a ``nan`` cell equals a ``nan`` cell.

        Two runs of one plan fill undefined ratios (``table1``'s
        ``ws_property_ratio``) with distinct ``nan`` objects, which plain
        ``==`` never equates; their ``to_json()`` agrees, and so does this.
        """
        if not isinstance(other, ResultTable):
            return NotImplemented
        return (
            self.name == other.name
            and self.columns == other.columns
            and _same_cells(self.rows, other.rows)
        )

    # ------------------------------------------------------------------ export

    def to_csv(self, path: str) -> Path:
        """Write the table to ``path`` as CSV and return the path."""
        file_path = Path(path)
        file_path.parent.mkdir(parents=True, exist_ok=True)
        with file_path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns, extrasaction="ignore")
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        return file_path

    def to_json(self, path: Optional[str] = None) -> str:
        """Serialise the table to JSON; optionally also write it to ``path``."""
        payload = json.dumps(
            {"name": self.name, "columns": self.columns, "rows": self.rows},
            indent=2,
            default=str,
        )
        if path is not None:
            file_path = Path(path)
            file_path.parent.mkdir(parents=True, exist_ok=True)
            file_path.write_text(payload)
        return payload

    # --------------------------------------------------------------- rendering

    def format_text(self, float_digits: int = 3, max_rows: Optional[int] = None) -> str:
        """Render the table as fixed-width text (used in reports and benchmarks)."""
        rows = self.rows if max_rows is None else self.rows[:max_rows]

        def render(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.{float_digits}f}"
            return str(value)

        rendered = [[render(row.get(column, "")) for column in self.columns] for row in rows]
        widths = [
            max(len(column), *(len(row[index]) for row in rendered)) if rendered else len(column)
            for index, column in enumerate(self.columns)
        ]
        header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(self.columns))
        separator = "  ".join("-" * widths[i] for i in range(len(self.columns)))
        lines = [f"# {self.name}", header, separator]
        for row in rendered:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)
