"""Result tables: the text/CSV output format of every experiment."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["Table"]


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10000:
            return f"{value:,.0f}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


@dataclass
class Table:
    """A titled grid of results, printable as text or CSV.

    Every experiment returns one of these; the CLI prints them so the
    regenerated rows sit next to the paper's figure in the output (see
    EXPERIMENTS.md for the side-by-side record).
    """

    title: str
    columns: Sequence[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append a row; must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells but table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list[Any]:
        """All values of one column, by header name."""
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Aligned plain-text rendering."""
        cells = [[_fmt(c) for c in self.columns]] + [
            [_fmt(v) for v in row] for row in self.rows
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        lines = [self.title, "=" * len(self.title)]
        header, *body = cells
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV rendering (header + rows)."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (used by EXPERIMENTS.md)."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(str(c) for c in self.columns) + " |")
        lines.append("|" + "---|" * len(self.columns))
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"*{note}*")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()
