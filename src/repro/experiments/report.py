"""Plain-text rendering of experiment results.

The library has no plotting dependency; instead, sweeps are rendered as
aligned text tables (the same rows/series the paper's figures plot) and as
small ASCII charts for a quick look at the shape of a series.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.simulation.sweep import SweepResult


def format_table(
    rows: Sequence[Dict[str, float]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 4,
) -> str:
    """Format dict rows as an aligned, pipe-separated text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(column) for column in columns]
    body: List[List[str]] = []
    for row in rows:
        rendered = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                rendered.append(f"{value:.{precision}g}")
            else:
                rendered.append(str(value))
        body.append(rendered)
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) for i in range(len(header))
    ]
    lines = [
        " | ".join(header[i].ljust(widths[i]) for i in range(len(header))),
        "-+-".join("-" * widths[i] for i in range(len(header))),
    ]
    for line in body:
        lines.append(" | ".join(line[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def render_sweep(
    sweep: SweepResult,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Render a :class:`SweepResult` as a titled text table."""
    if columns is None:
        columns = [sweep.parameter_name] + sweep.series_names()
    table = format_table(sweep.rows, columns=columns, precision=precision)
    if title:
        return f"{title}\n{'=' * len(title)}\n{table}"
    return table


def ascii_chart(
    values: Sequence[float],
    labels: Optional[Sequence[str]] = None,
    width: int = 50,
    fill: str = "#",
) -> str:
    """Render a sequence of non-negative values as horizontal ASCII bars.

    Values are scaled so the largest one occupies ``width`` characters.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    data = [float(value) for value in values]
    if not data:
        return "(no data)"
    if labels is None:
        labels = [str(index) for index in range(len(data))]
    if len(labels) != len(data):
        raise ValueError("labels and values must have the same length")
    peak = max(data)
    label_width = max(len(str(label)) for label in labels)
    lines = []
    for label, value in zip(labels, data):
        length = 0 if peak <= 0 else int(round(width * max(value, 0.0) / peak))
        lines.append(f"{str(label).rjust(label_width)} | {fill * length} {value:.4g}")
    return "\n".join(lines)


def compare_to_paper(
    measured: Dict[str, float],
    expected: Dict[str, float],
    tolerance: float = 0.5,
) -> str:
    """Tabulate measured values against the paper's reported values.

    Args:
        measured: quantities measured by this reproduction.
        expected: the paper's values for the same keys.
        tolerance: relative deviation above which a row is flagged.

    Returns:
        A table with a ``match`` column (``ok`` / ``off``); see
        :func:`repro.experiments.paper_values.compare_with_paper`.
    """
    rows = []
    for key in expected:
        paper_value = expected[key]
        ours = measured.get(key, float("nan"))
        if paper_value != 0:
            deviation = abs(ours - paper_value) / abs(paper_value)
        else:
            deviation = abs(ours)
        rows.append(
            {
                "quantity": key,
                "paper": paper_value,
                "measured": ours,
                "rel_dev": deviation,
                "match": "ok" if deviation <= tolerance else "off",
            }
        )
    return format_table(rows, columns=["quantity", "paper", "measured", "rel_dev", "match"])
