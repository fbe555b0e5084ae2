"""ASCII table rendering for benchmark output.

The benchmark harness prints, for every paper table/figure, the same
rows/series the paper reports.  :func:`format_table` renders those rows in a
compact aligned layout so `pytest benchmarks/ -s` output is readable and
diff-able (EXPERIMENTS.md embeds these tables verbatim).
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table", "format_cell"]


def format_cell(value: object, precision: int = 2) -> str:
    """Render one cell: floats rounded, everything else via ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 2,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table.

    >>> print(format_table(["n", "cost"], [[10, 1.234], [100, 5.0]]))
    n   | cost
    ----+-----
    10  | 1.23
    100 | 5.00
    """
    rendered = [[format_cell(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
