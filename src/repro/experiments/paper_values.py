"""The paper's reported values, for side-by-side comparison.

The DSN'02 paper reports its mobile results as figures rather than tables;
the constants below are read off those figures (and off the explicit
percentages quoted in the text of Section 4.2), so they are approximate to
within the precision a reader can extract from the plots.  They exist so
that experiment output can be compared programmatically against the paper
(:func:`compare_with_paper`).

All ratio values are relative to ``rstationary`` unless stated otherwise.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.experiments.report import compare_to_paper

#: Figure 2 (random waypoint): ratios r_x / rstationary at the four system
#: sizes l = 256, 1K, 4K, 16K.  Read off the figure.
FIGURE2_RATIOS: Dict[str, Dict[float, float]] = {
    "r100/rstationary": {256.0: 1.05, 1024.0: 1.10, 4096.0: 1.15, 16384.0: 1.21},
    "r90/rstationary": {256.0: 0.70, 1024.0: 0.72, 4096.0: 0.74, 16384.0: 0.78},
    "r10/rstationary": {256.0: 0.45, 1024.0: 0.46, 4096.0: 0.48, 16384.0: 0.52},
    "r0/rstationary": {256.0: 0.28, 1024.0: 0.32, 4096.0: 0.36, 16384.0: 0.40},
}

#: Figure 3 (drunkard): same quantities, slightly higher r100.
FIGURE3_RATIOS: Dict[str, Dict[float, float]] = {
    "r100/rstationary": {256.0: 1.08, 1024.0: 1.14, 4096.0: 1.20, 16384.0: 1.25},
    "r90/rstationary": {256.0: 0.72, 1024.0: 0.74, 4096.0: 0.76, 16384.0: 0.80},
    "r10/rstationary": {256.0: 0.46, 1024.0: 0.47, 4096.0: 0.49, 16384.0: 0.53},
    "r0/rstationary": {256.0: 0.30, 1024.0: 0.33, 4096.0: 0.37, 16384.0: 0.41},
}

#: Figures 4 and 5: average largest-component fraction at the named ranges
#: for the largest system size (l = 16384), where the paper quotes numbers.
FIGURE4_COMPONENT_FRACTIONS: Dict[str, float] = {
    "lcc_fraction@r90": 0.98,
    "lcc_fraction@r10": 0.90,
    "lcc_fraction@r0": 0.50,
}

#: Figure 6: limits of the rl_x / rstationary curves for large l.
FIGURE6_LIMITS: Dict[str, float] = {
    "rl90/rstationary": 0.52,
    "rl75/rstationary": 0.46,
    "rl50/rstationary": 0.40,
}

#: Section 4.2 text: relative reductions of r90 and r10 with respect to r100.
TEXT_RANGE_REDUCTIONS: Dict[str, float] = {
    "r90/r100": 0.625,   # "about 35-40% smaller"
    "r10/r100": 0.425,   # "about 55-60%" decrease
}

#: Figure 7: the threshold interval of pstationary beyond which the network
#: behaves as stationary.
FIGURE7_THRESHOLD_INTERVAL = (0.4, 0.6)


def paper_row_for_figure(figure: str, side: float) -> Dict[str, float]:
    """The paper's (approximate) values for one system size of a figure.

    Args:
        figure: ``"fig2"`` or ``"fig3"``.
        side: the system size ``l``.

    Raises:
        KeyError: if the figure or side is not tabulated above.
    """
    tables = {"fig2": FIGURE2_RATIOS, "fig3": FIGURE3_RATIOS}
    table = tables[figure]
    return {series: values[side] for series, values in table.items()}


def compare_with_paper(
    figure: str, side: float, measured: Mapping[str, float], tolerance: float = 0.5
) -> str:
    """Render a measured-vs-paper table for one figure and system size.

    The default tolerance is deliberately loose (50 % relative) because the
    absolute levels depend on the run length and on the ``rstationary``
    definition (see :func:`repro.simulation.runner.stationary_critical_range`);
    the comparison is about orderings and orders of magnitude.
    """
    expected = paper_row_for_figure(figure, side)
    measured_subset = {key: measured[key] for key in expected if key in measured}
    return compare_to_paper(measured_subset, expected, tolerance=tolerance)
