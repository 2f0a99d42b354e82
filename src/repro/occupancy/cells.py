"""Cell occupancy of 1-D placements and the ``{10*1}`` gap event (Lemma 1).

Section 3 divides the line ``[0, l]`` into ``C = l / r`` cells of length
``r`` and encodes a placement as a bit string ``B = b_0 ... b_{C-1}`` where
``b_i = 1`` iff cell ``i`` contains at least one node.  Lemma 1: if ``B``
contains a substring of the form ``1 0+ 1`` (an empty gap separating two
occupied cells) then the communication graph is disconnected, because no
node in the cell left of the gap can reach any node right of it.

This module provides the encoding and the gap detector, which together give
a cheap *sufficient* test for disconnection used by the theory benchmarks
and by property-based tests (gap present ⇒ graph disconnected).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.exceptions import AnalysisError
from repro.types import Positions, as_positions


@dataclass(frozen=True)
class CellOccupancy:
    """Occupancy of the ``C`` cells induced by a 1-D placement.

    Attributes:
        counts: number of nodes in each cell, indexed left to right.
        cell_length: length ``r`` of each cell.
        line_length: total length ``l`` of the line.
    """

    counts: tuple
    cell_length: float
    line_length: float

    @property
    def cell_count(self) -> int:
        """Number of cells ``C``."""
        return len(self.counts)

    @property
    def empty_cells(self) -> int:
        """The realised value of ``mu(n, C)``."""
        return sum(1 for count in self.counts if count == 0)

    @property
    def bitstring(self) -> str:
        """The string ``B`` of Lemma 1 (``'1'`` = occupied, ``'0'`` = empty)."""
        return "".join("1" if count > 0 else "0" for count in self.counts)

    @property
    def has_gap(self) -> bool:
        """``True`` if ``B`` contains a ``{10*1}`` substring."""
        return has_gap_pattern(self.bitstring)


def cell_counts(positions_1d: Sequence[float], line_length: float, cell_length: float) -> List[int]:
    """Number of nodes falling in each cell of length ``cell_length``.

    The line is divided into ``C = floor(line_length / cell_length)`` cells;
    if the division is not exact the final, shorter remainder is merged into
    the last cell, matching the convention that a node at position ``l``
    belongs to the last cell.
    """
    if cell_length <= 0:
        raise AnalysisError(f"cell_length must be positive, got {cell_length}")
    if line_length <= 0:
        raise AnalysisError(f"line_length must be positive, got {line_length}")
    if cell_length > line_length:
        raise AnalysisError(
            "cell_length exceeds line_length; the subdivision needs at least one cell"
        )
    cells = int(line_length // cell_length)
    counts = [0] * cells
    for position in positions_1d:
        if position < 0 or position > line_length:
            raise AnalysisError(
                f"position {position} outside the line [0, {line_length}]"
            )
        index = int(position // cell_length)
        if index >= cells:
            index = cells - 1
        counts[index] += 1
    return counts


def cell_occupancy_from_positions(
    positions: Positions, line_length: float, cell_length: float
) -> CellOccupancy:
    """Build a :class:`CellOccupancy` from a 1-D placement.

    Accepts either a flat sequence of coordinates or an ``(n, 1)`` array.
    """
    points = as_positions(positions)
    if points.shape[1] != 1:
        raise AnalysisError(
            f"cell occupancy is defined for 1-D placements, got dimension {points.shape[1]}"
        )
    counts = cell_counts(points[:, 0], line_length, cell_length)
    return CellOccupancy(
        counts=tuple(counts), cell_length=cell_length, line_length=line_length
    )


def has_gap_pattern(bitstring: str) -> bool:
    """``True`` if ``bitstring`` contains a substring of the form ``1 0+ 1``.

    This is the sufficient condition of Lemma 1 for the communication graph
    to be disconnected.  Leading and trailing zeros do **not** count: a
    placement whose occupied cells are consecutive yields no gap even if the
    ends of the line are empty.
    """
    if not all(ch in "01" for ch in bitstring):
        raise AnalysisError("bitstring must contain only '0' and '1' characters")
    first_one = bitstring.find("1")
    if first_one == -1:
        return False
    last_one = bitstring.rfind("1")
    interior = bitstring[first_one:last_one + 1]
    return "0" in interior


def simulate_empty_cells(
    n: int,
    cells: int,
    iterations: int,
    rng: np.random.Generator,
) -> List[int]:
    """Monte-Carlo samples of ``mu(n, C)`` from the uniform allocation model.

    Used by tests and the occupancy benchmark to validate the exact and
    asymptotic formulas.
    """
    if iterations <= 0:
        raise AnalysisError(f"iterations must be positive, got {iterations}")
    if cells <= 0:
        raise AnalysisError(f"number of cells must be positive, got {cells}")
    samples: List[int] = []
    for _ in range(iterations):
        assignment = rng.integers(0, cells, size=n)
        occupied = np.unique(assignment).size if n > 0 else 0
        samples.append(cells - occupied)
    return samples
