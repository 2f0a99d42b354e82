"""Disjoint-set (union-find) data structure.

Connected components of the communication graph are needed at every
mobility step of every simulation iteration, so this is one of the hottest
code paths in the library.  The implementation uses union by size and path
halving, giving effectively constant amortised cost per operation.
"""

from __future__ import annotations

from typing import Dict, List


class UnionFind:
    """Disjoint sets over the integers ``0 .. n-1``."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self._parent = list(range(size))
        self._size = [1] * size
        self._components = size

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def component_count(self) -> int:
        """Number of disjoint sets currently represented."""
        return self._components

    def find(self, item: int) -> int:
        """Representative of the set containing ``item`` (with path halving)."""
        parent = self._parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: int, b: int) -> bool:
        """Merge the sets containing ``a`` and ``b``.

        Returns:
            ``True`` if a merge happened, ``False`` if they were already in
            the same set.
        """
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """``True`` if ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def set_size(self, item: int) -> int:
        """Size of the set containing ``item``."""
        return self._size[self.find(item)]

    def groups(self) -> List[List[int]]:
        """All sets as lists of member indices (each sorted ascending)."""
        buckets: Dict[int, List[int]] = {}
        for item in range(len(self._parent)):
            buckets.setdefault(self.find(item), []).append(item)
        return [sorted(members) for members in buckets.values()]
