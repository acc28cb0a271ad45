"""Tiny table formatter for experiment output.

Every experiment driver returns a :class:`Table`; the CLI renders it to
the terminal (``experiments``) or as markdown (``experiments --markdown``),
and the claim tests read its columns.  No dependencies, fixed-width
rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["Table"]


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        if x == 0:
            return "0"
        if abs(x) >= 1000 or abs(x) < 0.001:
            return f"{x:.3g}"
        return f"{x:.3f}".rstrip("0").rstrip(".")
    return str(x)


@dataclass
class Table:
    """A titled grid of results plus free-form footnotes."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        """All values of one column (for the claim tests' assertions)."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Fixed-width ASCII rendering."""
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[j]), *(len(r[j]) for r in cells)) if cells else len(self.columns[j])
            for j in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(c) for c in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    @staticmethod
    def stack(tables: Sequence["Table"]) -> str:
        return "\n\n".join(t.render() for t in tables)
