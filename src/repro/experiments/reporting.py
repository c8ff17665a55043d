"""Plain-text rendering of experiment results.

The benchmarks, ``scripts/run_all_experiments.py`` and the CLI print
experiment tables in a fixed-width layout, so every report shows the same
rows in the same shape.
"""

from __future__ import annotations

from typing import Any, List

from repro.experiments.results import ExperimentResult, ResultTable

__all__ = ["format_cell", "format_table", "render_experiment"]


def format_cell(value: Any) -> str:
    """Render one cell: floats get 4 significant digits, booleans yes/no."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10_000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    if value is None:
        return "-"
    return str(value)


def format_table(table: ResultTable) -> str:
    """Fixed-width rendering of a :class:`ResultTable`."""
    header = list(table.columns)
    body: List[List[str]] = [
        [format_cell(row.get(column)) for column in header] for row in table.rows
    ]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [table.title, "-" * len(table.title)]
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
    for note in table.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def render_experiment(result: ExperimentResult) -> str:
    """Full plain-text report of one experiment (claim, tables, findings)."""
    lines = [
        f"== {result.experiment_id.upper()}: {result.title} ==",
        f"claim: {result.claim}",
        "",
    ]
    for table in result.tables:
        lines.append(format_table(table))
        lines.append("")
    if result.findings:
        lines.append("findings:")
        for key in sorted(result.findings):
            lines.append(f"  {key}: {format_cell(result.findings[key])}")
    if result.parameters:
        lines.append("parameters:")
        for key in sorted(result.parameters):
            lines.append(f"  {key}: {format_cell(result.parameters[key])}")
    return "\n".join(lines)
