"""Plain-text table rendering and paper-style number formatting.

The experiment drivers print every table in the same layout as the
paper; this module holds the shared formatting code.  ``format_count``
reproduces the paper's habit of reporting counts as ``505k`` or ``3.2M``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_count(value: int | float) -> str:
    """Format a count the way the paper does (e.g. ``12k``, ``3.2M``)."""
    value = float(value)
    if value >= 1_000_000:
        scaled = value / 1_000_000
        return f"{scaled:.1f}M" if scaled < 10 else f"{scaled:.0f}M"
    if value >= 1_000:
        scaled = value / 1_000
        return f"{scaled:.1f}k" if scaled < 10 else f"{scaled:.0f}k"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None) -> str:
    """Render a table with aligned columns as plain text."""
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(header.ljust(width) for header, width in zip(headers, widths, strict=True)))
    lines.append(separator)
    for row in text_rows:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(row)]
        lines.append(" | ".join(padded))
    return "\n".join(lines)


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a table as markdown: a header row, a separator, one line per row."""
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines.extend("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows)
    return "\n".join(lines)
