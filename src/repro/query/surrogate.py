"""Monotone connectivity-probability surrogate over campaign rows.

Each stored sweep row pins four points of the connectivity-vs-range
curve at one system size: ``r0`` (the range below which the network was
never connected), ``r10``, ``r90`` and ``r100`` (the range above which
it always was), i.e. the curve passes through ``(r0, 0.0)``,
``(r10, 0.1)``, ``(r90, 0.9)``, ``(r100, 1.0)``.  Connectivity is
monotone non-decreasing in range by construction — a larger range only
adds edges — so the surrogate is a monotone piecewise-linear polyline
through those points, isotonically repaired against Monte Carlo jitter
(a crossed pair of thresholds is clamped, never reordered).

Two query directions solve on the same polyline:

* forward (``range → probability``): straight piecewise-linear
  evaluation, clamped to ``[0, 1]`` outside the knots;
* inverse (``probability → range``): solved on the inverted polyline;
  the four *stored* probabilities short-circuit to the stored range
  floats untouched, so exact grid queries are bit-identical to the
  campaign's own values.

Between grid sides, :func:`blend_rows` interpolates the thresholds
linearly in the side before fitting — thresholds, not probabilities,
because each threshold family is the physically meaningful monotone
quantity in the system size (Santi & Blough's Figures 2–3 plot exactly
these curves growing with ``l``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

__all__ = ["CURVE_POINTS", "ConnectivityCurve", "blend_rows", "fit_row"]

#: The (row column, connectivity probability) knots every stored row pins.
CURVE_POINTS: Tuple[Tuple[str, float], ...] = (
    ("r0", 0.0),
    ("r10", 0.1),
    ("r90", 0.9),
    ("r100", 1.0),
)


@dataclass(frozen=True)
class ConnectivityCurve:
    """Monotone piecewise-linear connectivity curve at one system size.

    ``ranges`` and ``probabilities`` are knot-aligned and both
    non-decreasing; ``raw_ranges`` keeps the stored floats before the
    isotonic repair so exact-probability queries return them untouched.
    """

    ranges: Tuple[float, ...]
    probabilities: Tuple[float, ...]
    raw_ranges: Tuple[float, ...]

    @classmethod
    def from_knots(
        cls, knots: Sequence[Tuple[float, float]]
    ) -> "ConnectivityCurve":
        """Fit from ``(range, probability)`` knots sorted by probability."""
        raw = tuple(float(r) for r, _ in knots)
        repaired: list = []
        for value in raw:
            repaired.append(
                value if not repaired else max(value, repaired[-1])
            )
        return cls(
            ranges=tuple(repaired),
            probabilities=tuple(float(p) for _, p in knots),
            raw_ranges=raw,
        )

    # ------------------------------------------------------------------ #
    def probability_at(self, range_: float) -> float:
        """Connectivity probability bought by ``range_`` (forward query).

        Any range is in the domain: below the first knot reads 0 and
        above the last reads 1.  Strictly between them, ``bisect_left``
        picks the segment with ``ranges[i - 1] < r <= ranges[i]``, whose
        ends therefore differ.
        """
        r = float(range_)
        if r <= self.ranges[0]:
            return self.probabilities[0] if r == self.ranges[0] else 0.0
        if r >= self.ranges[-1]:
            return self.probabilities[-1] if r == self.ranges[-1] else 1.0
        index = bisect_left(self.ranges, r)
        low_r, high_r = self.ranges[index - 1], self.ranges[index]
        low_p, high_p = self.probabilities[index - 1], self.probabilities[index]
        fraction = (r - low_r) / (high_r - low_r)
        return low_p + fraction * (high_p - low_p)

    def range_for(self, probability: float) -> float:
        """Smallest range achieving ``probability`` (inverse query).

        The domain is ``[0, 1]`` (what :class:`~repro.query.normalize.
        Query` admits), spanned by the knots 0, 0.1, 0.9 and 1.0 of
        :data:`CURVE_POINTS`, which are strictly increasing.  A
        probability equal to a stored knot returns the stored float
        bit-identically (the raw value, not the isotonic repair).
        Probabilities strictly between knots interpolate linearly, so a
        segment whose two knots share one range (a flat *range* segment)
        answers that range, the *smallest* sufficient one.
        """
        p = float(probability)
        for index, knot in enumerate(self.probabilities):
            if p == knot:
                return self.raw_ranges[index]
        index = bisect_left(self.probabilities, p)
        low_p, high_p = self.probabilities[index - 1], self.probabilities[index]
        low_r, high_r = self.ranges[index - 1], self.ranges[index]
        fraction = (p - low_p) / (high_p - low_p)
        return low_r + fraction * (high_r - low_r)


def fit_row(row: Mapping[str, float]) -> ConnectivityCurve:
    """Fit the connectivity curve of one stored sweep row."""
    try:
        knots = [(float(row[column]), p) for column, p in CURVE_POINTS]
    except KeyError as error:
        raise ValueError(
            f"row lacks threshold column {error} — not a system-size row"
        ) from None
    return ConnectivityCurve.from_knots(knots)


def blend_rows(
    low_side: float,
    low_row: Mapping[str, float],
    high_side: float,
    high_row: Mapping[str, float],
    side: float,
) -> Dict[str, float]:
    """Threshold row at ``side``, linearly blended between two grid rows.

    ``side`` may fall outside ``[low_side, high_side]`` — the same line
    extrapolates, which is exactly the best-effort out-of-grid answer
    (always flagged ``refine=true`` upstream).  Extrapolated thresholds
    are floored at 0 (a range cannot be negative).
    """
    if high_side == low_side:
        return {column: float(low_row[column]) for column, _ in CURVE_POINTS}
    fraction = (float(side) - float(low_side)) / (
        float(high_side) - float(low_side)
    )
    blended: Dict[str, float] = {}
    for column, _ in CURVE_POINTS:
        low = float(low_row[column])
        high = float(high_row[column])
        blended[column] = max(0.0, low + fraction * (high - low))
    return blended
