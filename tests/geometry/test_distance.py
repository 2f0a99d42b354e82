"""Tests for repro.geometry.distance."""

import numpy as np
import pytest

from repro.geometry.distance import squared_distance, squared_distance_matrix


class TestSquaredDistanceMatrix:
    def test_matches_manual_computation(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        matrix = squared_distance_matrix(points)
        assert matrix[0, 1] == pytest.approx(25.0)
        assert matrix[0, 2] == pytest.approx(2.0)
        assert matrix[1, 2] == pytest.approx(13.0)

    def test_diagonal_zero(self, small_placement):
        matrix = squared_distance_matrix(small_placement)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_symmetric(self, small_placement):
        matrix = squared_distance_matrix(small_placement)
        assert np.allclose(matrix, matrix.T)

    def test_non_negative(self, small_placement):
        assert np.all(squared_distance_matrix(small_placement) >= 0.0)

    def test_1d_input(self):
        matrix = squared_distance_matrix(np.array([0.0, 3.0]))
        assert matrix[0, 1] == pytest.approx(9.0)

    def test_square_roots_obey_the_triangle_inequality(self, small_placement):
        distances = np.sqrt(squared_distance_matrix(small_placement))
        n = distances.shape[0]
        for i in range(0, n, 7):
            for j in range(0, n, 5):
                for k in range(0, n, 3):
                    assert distances[i, j] <= distances[i, k] + distances[k, j] + 1e-9


class TestSquaredDistance:
    def test_known_value(self):
        assert squared_distance([0, 0], [3, 4]) == 25.0
        assert squared_distance([1.0], [-2.0]) == 9.0

    def test_zero_dimensional_pair(self):
        assert squared_distance([], []) == 0.0
