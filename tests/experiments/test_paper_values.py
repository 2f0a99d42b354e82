"""Tests for repro.experiments.paper_values."""

import pytest

from repro.experiments.paper_values import (
    FIGURE2_RATIOS,
    FIGURE4_COMPONENT_FRACTIONS,
    FIGURE6_LIMITS,
    FIGURE7_THRESHOLD_INTERVAL,
    TEXT_RANGE_REDUCTIONS,
    compare_with_paper,
    paper_row_for_figure,
)


class TestPaperConstants:
    def test_figure2_ratios_ordered_at_every_size(self):
        for side in (256.0, 1024.0, 4096.0, 16384.0):
            row = paper_row_for_figure("fig2", side)
            assert (
                row["r0/rstationary"]
                < row["r10/rstationary"]
                < row["r90/rstationary"]
                < row["r100/rstationary"]
            )

    def test_figure2_ratios_increase_with_size(self):
        for series, values in FIGURE2_RATIOS.items():
            ordered = [values[side] for side in sorted(values)]
            assert ordered == sorted(ordered), series

    def test_figure3_close_to_figure2(self):
        for side in (256.0, 16384.0):
            waypoint = paper_row_for_figure("fig2", side)
            drunkard = paper_row_for_figure("fig3", side)
            for series in waypoint:
                assert drunkard[series] == pytest.approx(waypoint[series], rel=0.15)

    def test_component_fractions_ordered(self):
        assert (
            FIGURE4_COMPONENT_FRACTIONS["lcc_fraction@r0"]
            < FIGURE4_COMPONENT_FRACTIONS["lcc_fraction@r10"]
            < FIGURE4_COMPONENT_FRACTIONS["lcc_fraction@r90"]
        )

    def test_figure6_limits_ordered(self):
        assert (
            FIGURE6_LIMITS["rl50/rstationary"]
            < FIGURE6_LIMITS["rl75/rstationary"]
            < FIGURE6_LIMITS["rl90/rstationary"]
        )

    def test_text_reductions_consistent_with_figure2(self):
        # r90/r100 and r10/r100 quoted in the text roughly equal the ratio of
        # the Figure 2 curves at large l.
        row = paper_row_for_figure("fig2", 16384.0)
        assert TEXT_RANGE_REDUCTIONS["r90/r100"] == pytest.approx(
            row["r90/rstationary"] / row["r100/rstationary"], abs=0.1
        )
        assert TEXT_RANGE_REDUCTIONS["r10/r100"] == pytest.approx(
            row["r10/rstationary"] / row["r100/rstationary"], abs=0.1
        )

    def test_threshold_interval(self):
        low, high = FIGURE7_THRESHOLD_INTERVAL
        assert 0.0 < low < high < 1.0

    def test_unknown_figure_or_side(self):
        with pytest.raises(KeyError):
            paper_row_for_figure("fig12", 256.0)
        with pytest.raises(KeyError):
            paper_row_for_figure("fig2", 512.0)


class TestCompareWithPaper:
    def test_renders_table_with_match_column(self):
        measured = {
            "r100/rstationary": 0.95,
            "r90/rstationary": 0.80,
            "r10/rstationary": 0.60,
            "r0/rstationary": 0.50,
        }
        report = compare_with_paper("fig2", 16384.0, measured)
        assert "paper" in report and "measured" in report and "match" in report

    def test_loose_tolerance_accepts_reproduction_levels(self):
        # Default-scale reproduction levels for l = 16K pass at the
        # documented 50% tolerance.
        measured = {
            "r100/rstationary": 0.96,
            "r90/rstationary": 0.83,
            "r10/rstationary": 0.65,
            "r0/rstationary": 0.52,
        }
        report = compare_with_paper("fig2", 16384.0, measured)
        assert "off" not in report

    def test_strict_tolerance_flags_deviations(self):
        measured = {"r100/rstationary": 3.0}
        report = compare_with_paper("fig2", 16384.0, measured, tolerance=0.1)
        assert "off" in report
