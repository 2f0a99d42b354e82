"""Tests for repro.occupancy.cells (Lemma 1 machinery)."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.occupancy.cells import (
    CellOccupancy,
    cell_counts,
    cell_occupancy_from_positions,
    has_gap_pattern,
    simulate_empty_cells,
)


class TestCellCounts:
    def test_basic_binning(self):
        counts = cell_counts([0.5, 1.5, 1.6, 9.9], line_length=10.0, cell_length=1.0)
        assert counts[0] == 1
        assert counts[1] == 2
        assert counts[9] == 1
        assert sum(counts) == 4

    def test_position_at_boundary_goes_to_last_cell(self):
        counts = cell_counts([10.0], line_length=10.0, cell_length=1.0)
        assert counts[9] == 1

    def test_out_of_range_position(self):
        with pytest.raises(AnalysisError):
            cell_counts([11.0], line_length=10.0, cell_length=1.0)
        with pytest.raises(AnalysisError):
            cell_counts([-0.1], line_length=10.0, cell_length=1.0)

    def test_invalid_geometry(self):
        with pytest.raises(AnalysisError):
            cell_counts([1.0], line_length=10.0, cell_length=0.0)
        with pytest.raises(AnalysisError):
            cell_counts([1.0], line_length=0.0, cell_length=1.0)
        with pytest.raises(AnalysisError):
            cell_counts([1.0], line_length=1.0, cell_length=2.0)

    def test_non_divisible_length_merges_remainder(self):
        counts = cell_counts([9.8], line_length=10.0, cell_length=3.0)
        # Cells are [0,3), [3,6), [6,10]; the 9.8 falls in the merged last cell.
        assert len(counts) == 3
        assert counts[2] == 1


class TestBitstringAndGaps:
    def test_bitstring(self):
        occupancy = CellOccupancy(counts=(2, 0, 1, 0), cell_length=1.0, line_length=4.0)
        assert occupancy.bitstring == "1010"

    def test_empty_cell_count(self):
        occupancy = CellOccupancy(counts=(2, 0, 1, 0), cell_length=1.0, line_length=4.0)
        assert occupancy.empty_cells == 2

    def test_gap_pattern_detection(self):
        assert has_gap_pattern("101")
        assert has_gap_pattern("110011")
        assert has_gap_pattern("1001")
        assert not has_gap_pattern("111")
        assert not has_gap_pattern("0110")
        assert not has_gap_pattern("0000")
        assert not has_gap_pattern("")

    def test_leading_trailing_zeros_not_gaps(self):
        assert not has_gap_pattern("00111100")

    def test_invalid_characters(self):
        with pytest.raises(AnalysisError):
            has_gap_pattern("10x1")


class TestCellOccupancy:
    def test_from_positions(self):
        positions = np.array([[0.5], [5.5]])
        occupancy = cell_occupancy_from_positions(positions, 10.0, 1.0)
        assert occupancy.cell_count == 10
        assert occupancy.empty_cells == 8
        assert occupancy.bitstring == "1000010000"
        assert occupancy.has_gap

    def test_flat_sequence_accepted(self):
        occupancy = cell_occupancy_from_positions([0.5, 1.5], 10.0, 1.0)
        assert occupancy.counts[0] == 1 and occupancy.counts[1] == 1

    def test_rejects_2d_positions(self):
        with pytest.raises(AnalysisError):
            cell_occupancy_from_positions(np.zeros((3, 2)), 10.0, 1.0)

    def test_lemma1_gap_implies_disconnected(self, rng):
        """Lemma 1: a {10*1} pattern implies a disconnected graph."""
        from repro.connectivity.metrics import is_placement_connected

        line_length = 100.0
        cell_length = 10.0
        for _ in range(50):
            positions = rng.uniform(0.0, line_length, size=(8, 1))
            occupancy = cell_occupancy_from_positions(positions, line_length, cell_length)
            if occupancy.has_gap:
                assert not is_placement_connected(positions, cell_length)


class TestSimulateEmptyCells:
    def test_sample_bounds(self, rng):
        samples = simulate_empty_cells(10, 6, 100, rng)
        assert len(samples) == 100
        assert all(0 <= s <= 6 for s in samples)

    def test_zero_balls(self, rng):
        samples = simulate_empty_cells(0, 5, 10, rng)
        assert all(s == 5 for s in samples)

    def test_invalid_arguments(self, rng):
        with pytest.raises(AnalysisError):
            simulate_empty_cells(5, 5, 0, rng)
        with pytest.raises(AnalysisError):
            simulate_empty_cells(5, 0, 10, rng)
