"""Tests for repro.stats.rng."""

import numpy as np
import pytest

from repro.stats.rng import RandomSource, make_rng


class TestMakeRng:
    def test_none_returns_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).random(5)
        b = make_rng(2).random(5)
        assert not np.allclose(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(3)
        assert make_rng(generator) is generator


class TestRandomSource:
    def test_child_is_deterministic(self):
        source = RandomSource(99)
        a = source.child(3).random(5)
        b = source.child(3).random(5)
        assert np.allclose(a, b)

    def test_children_differ_by_index(self):
        source = RandomSource(99)
        a = source.child(0).random(5)
        b = source.child(1).random(5)
        assert not np.allclose(a, b)

    def test_independent_of_request_order(self):
        source = RandomSource(42)
        late = source.child(5).random(4)
        fresh_source = RandomSource(42)
        for index in range(5):
            fresh_source.child(index)
        assert np.allclose(late, fresh_source.child(5).random(4))

    def test_children_helper(self):
        source = RandomSource(1)
        assert len(source.children(4)) == 4

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            RandomSource(1).child(-1)

    def test_seed_property(self):
        assert RandomSource(17).seed == 17
        assert RandomSource().seed is None
