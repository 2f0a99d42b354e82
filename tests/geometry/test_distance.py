"""Tests for repro.geometry.distance."""

import math

import numpy as np
import pytest

from repro.geometry.distance import (
    euclidean_distance,
    nearest_neighbor_distances,
    pairwise_distances,
    squared_distance,
    squared_distance_matrix,
    toroidal_distance,
    toroidal_distance_matrix,
)


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


class TestPairwiseDistances:
    def test_is_sqrt_of_squared(self, small_placement):
        assert np.allclose(
            pairwise_distances(small_placement) ** 2,
            squared_distance_matrix(small_placement),
        )

    def test_triangle_inequality(self, small_placement):
        distances = pairwise_distances(small_placement)
        n = distances.shape[0]
        for i in range(0, n, 7):
            for j in range(0, n, 5):
                for k in range(0, n, 3):
                    assert distances[i, j] <= distances[i, k] + distances[k, j] + 1e-9


class TestEuclideanDistance:
    def test_known_value(self):
        assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            euclidean_distance([0, 0], [1, 2, 3])

    def test_zero_dimensional_pair(self):
        assert squared_distance([], []) == 0.0


class TestToroidal:
    def test_wraps_around(self):
        assert toroidal_distance([0.5], [9.5], side=10.0) == pytest.approx(1.0)

    def test_no_wrap_when_closer_directly(self):
        assert toroidal_distance([2.0], [5.0], side=10.0) == pytest.approx(3.0)

    def test_2d(self):
        distance = toroidal_distance([0.0, 0.0], [9.0, 9.0], side=10.0)
        assert distance == pytest.approx(math.sqrt(2.0))

    def test_never_exceeds_euclidean(self, small_placement):
        euclidean = pairwise_distances(small_placement)
        toroidal = toroidal_distance_matrix(small_placement, side=100.0)
        assert np.all(toroidal <= euclidean + 1e-9)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            toroidal_distance([0.0, 0.0], [1.0], side=10.0)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            toroidal_distance([0.0], [1.0], side=0.0)
        with pytest.raises(ValueError):
            toroidal_distance_matrix(np.array([[0.0]]), side=-1.0)

    def test_matrix_symmetric(self, small_placement):
        matrix = toroidal_distance_matrix(small_placement, side=100.0)
        assert np.allclose(matrix, matrix.T)


class TestNearestNeighborDistances:
    def test_simple_line(self):
        points = np.array([[0.0], [1.0], [10.0]])
        distances = nearest_neighbor_distances(points)
        assert distances[0] == pytest.approx(1.0)
        assert distances[1] == pytest.approx(1.0)
        assert distances[2] == pytest.approx(9.0)

    def test_single_point(self):
        assert nearest_neighbor_distances(np.array([[1.0, 2.0]]))[0] == math.inf

    def test_empty(self):
        assert nearest_neighbor_distances(np.empty((0, 2))).size == 0
