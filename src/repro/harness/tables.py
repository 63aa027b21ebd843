"""Paper-style table formatting for benchmark output.

Each figure's tables hold the rows/series the corresponding paper figure
plots; ``pytest benchmarks/`` and the CLI print the same ones, so either
regenerates the evaluation section as text tables.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "print_table"]


def format_table(title: str, columns: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table with a title rule."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(str(c)) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "  "
    header = sep.join(str(c).ljust(widths[i]) for i, c in enumerate(columns))
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for row in rows:
        lines.append(sep.join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append(rule)
    return "\n".join(lines)


def print_table(title: str, columns: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Format with :func:`format_table` and print with a leading blank."""
    print("\n" + format_table(title, columns, rows))


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return "%.2f" % cell
    return str(cell)
