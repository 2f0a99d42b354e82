"""Tests for repro.graph.union_find."""

import pytest

from repro.graph.union_find import UnionFind


class TestBasics:
    def test_initial_state(self):
        uf = UnionFind(5)
        assert len(uf) == 5
        assert uf.component_count == 5
        for i in range(5):
            assert uf.find(i) == i

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_empty(self):
        uf = UnionFind(0)
        assert uf.component_count == 0
        assert uf.groups() == []


class TestUnion:
    def test_union_merges(self):
        uf = UnionFind(4)
        assert uf.union(0, 1) is True
        assert uf.connected(0, 1)
        assert uf.component_count == 3

    def test_union_idempotent(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert uf.union(1, 0) is False
        assert uf.component_count == 3

    def test_transitive(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)
        assert not uf.connected(0, 3)

    def test_set_size(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.set_size(0) == 3
        assert uf.set_size(2) == 3
        assert uf.set_size(5) == 1

    def test_largest_set_size(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(3, 4)
        largest = max(uf.groups(), key=len)
        assert largest == [2, 3, 4]
        assert uf.set_size(largest[0]) == 3

    def test_all_merged(self):
        uf = UnionFind(10)
        for i in range(9):
            uf.union(i, i + 1)
        assert uf.component_count == 1
        assert uf.set_size(0) == 10


class TestGroups:
    def test_groups_partition_all_items(self):
        uf = UnionFind(7)
        uf.union(0, 3)
        uf.union(1, 4)
        groups = uf.groups()
        flattened = sorted(item for group in groups for item in group)
        assert flattened == list(range(7))

    def test_groups_members_are_connected(self):
        uf = UnionFind(8)
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(3, 4)
        for group in uf.groups():
            for member in group[1:]:
                assert uf.connected(group[0], member)
