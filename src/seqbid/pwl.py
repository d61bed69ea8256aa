"""Piecewise-linear functions on a closed interval, plus adaptive knot refinement.

The refiners drive an external point evaluator ``d -> value``.  ``vg1_refine``
repeatedly bisects the interval whose endpoint values differ the most, which
targets regions where a monotone function rises fastest.  ``vg2_refine``
scores each interior point by how badly the interpolant predicted its value
when the point was introduced, and expands the worst-predicted point by
inserting the midpoints of its two flanking intervals.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

# Intervals narrower than this are never split further; protects the refiners
# from floating-point stalls on pathological evaluators.
MIN_SPLIT_WIDTH = 1e-9

# Most knots a grid strategy places per component (UniformFixed's g, a budget's
# max_knots): ten times the G1001 reference grid, refused above it before any
# knot is computed.
MAX_KNOTS = 10_001

_DOMAIN_SLACK = 1e-9


@dataclass(frozen=True)
class PwlFunction:
    """Piecewise-linear function given by knots at strictly increasing abscissae.

    Evaluation between knots is linear interpolation.  Evaluation outside the
    knot span is an error, never extrapolation.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) < 2:
            raise ValueError("knots: a piecewise-linear function needs at least two")
        if len(self.xs) != len(self.ys):
            raise ValueError("knots: abscissa and value lists differ in length")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("knots: abscissae must be strictly increasing")

    @classmethod
    def from_knots(cls, knots: Iterable[tuple[float, float]]) -> "PwlFunction":
        knots = tuple(knots)
        return cls(tuple(float(x) for x, _ in knots), tuple(float(y) for _, y in knots))

    @classmethod
    def linear(cls, slope: float, lo: float, hi: float) -> "PwlFunction":
        """The function slope * d on [lo, hi]."""
        return cls((float(lo), float(hi)), (slope * lo, slope * hi))

    @cached_property
    def _ax(self) -> np.ndarray:
        return np.asarray(self.xs, dtype=float)

    @cached_property
    def _ay(self) -> np.ndarray:
        return np.asarray(self.ys, dtype=float)

    @property
    def knots(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs, self.ys))

    @property
    def domain(self) -> tuple[float, float]:
        return self.xs[0], self.xs[-1]

    def __call__(self, d: float) -> float:
        return float(self._interp(np.asarray(d, dtype=float)))

    def values(self, ds: np.ndarray) -> np.ndarray:
        """Vectorized evaluation with the same domain rules as __call__."""
        return self._interp(np.asarray(ds, dtype=float))

    def _interp(self, ds: np.ndarray) -> np.ndarray:
        """np.interp at ds, a point or an array of them, refusing any outside the domain."""
        lo, hi = self.xs[0], self.xs[-1]
        if ds.size and not (lo - _DOMAIN_SLACK <= ds.min() and ds.max() <= hi + _DOMAIN_SLACK):
            where = f"point {ds.item()!r}" if ds.ndim == 0 else "points"
            raise ValueError(f"{where} outside domain [{lo}, {hi}]")
        ax, ay = self._ax, self._ay
        out = np.interp(ds, ax, ay)
        if np.isfinite(out).all():
            return out
        # np.interp's slope, rise / gap, overflows where two knots are closer than
        # rise / float max: divide the offset by the gap first to stay finite.
        k = np.clip(np.searchsorted(ax, ds, side="right") - 1, 0, len(ax) - 2)
        return np.where(np.isfinite(out), out,
                        ay[k] + (ds - ax[k]) / (ax[k + 1] - ax[k]) * (ay[k + 1] - ay[k]))

    def shift(self, dy: float) -> "PwlFunction":
        """Add a constant to every knot value."""
        return PwlFunction(self.xs, tuple(y + dy for y in self.ys))

    def max_consecutive_delta(self) -> tuple[float, int]:
        """Largest difference between adjacent knot values and its interval index.

        Requires nondecreasing knot values; ties resolve to the leftmost
        interval.
        """
        diffs = np.diff(self._ay)
        if diffs.min() < -_DOMAIN_SLACK:
            raise ValueError("knot values are not nondecreasing")
        i = int(np.argmax(diffs))
        return float(diffs[i]), i


@dataclass(frozen=True)
class RefinementBudget:
    """Stopping rule for adaptive refinement: knot cap and score threshold."""

    max_knots: int
    threshold: float

    def __post_init__(self) -> None:
        if not 2 <= self.max_knots <= MAX_KNOTS:
            raise ValueError(f"max_knots: {self.max_knots} must be between 2 and {MAX_KNOTS:,}")
        if not self.threshold >= 0:
            raise ValueError(f"threshold: {self.threshold!r} must be nonnegative")


def vg1_refine(
    evaluate: Callable[[float], float],
    domain: tuple[float, float],
    budget: RefinementBudget,
) -> PwlFunction:
    """Grow a knot set by bisecting the interval with the largest value rise.

    Starts from the domain endpoints.  A max-priority queue holds candidate
    intervals keyed on the difference of their endpoint values; equal keys
    resolve to the leftmost interval.  Stops when the knot budget is reached
    or every queued difference falls below the threshold.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= lo:
        raise ValueError("empty refinement domain")
    knots: dict[float, float] = {lo: float(evaluate(lo)), hi: float(evaluate(hi))}
    heap: list[tuple[float, float, float]] = []

    def push(a: float, b: float) -> None:
        if b - a >= MIN_SPLIT_WIDTH:
            heapq.heappush(heap, (-(knots[b] - knots[a]), a, b))

    push(lo, hi)
    while heap and len(knots) < budget.max_knots:
        if -heap[0][0] < budget.threshold:
            break
        _, a, b = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b or mid in knots:
            continue
        knots[mid] = float(evaluate(mid))
        push(a, mid)
        push(mid, b)
    items = sorted(knots.items())
    return PwlFunction(tuple(x for x, _ in items), tuple(y for _, y in items))


def vg2_refine(
    evaluate: Callable[[float], float],
    domain: tuple[float, float],
    budget: RefinementBudget,
) -> PwlFunction:
    """Grow a knot set by expanding the point with the worst chord prediction.

    Seeds the endpoints plus the domain midpoint.  Every interior point gets a
    score when it is introduced: the absolute gap between its computed value
    and what the pre-insertion interpolant predicted there.  Expanding the
    highest-scoring point inserts the midpoints of both flanking intervals
    (two knots per expansion), each scored the same way; endpoints are never
    expanded.  A point is only expanded while two more knots fit the budget,
    so linear stretches, perfectly predicted, stop refinement immediately
    under any positive threshold.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= lo:
        raise ValueError("empty refinement domain")
    knots: dict[float, float] = {lo: float(evaluate(lo)), hi: float(evaluate(hi))}
    order: list[float] = [lo, hi]
    if budget.max_knots < 3:
        return PwlFunction(tuple(order), tuple(knots[x] for x in order))

    heap: list[tuple[float, float]] = []

    def introduce(a: float, b: float) -> None:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b or mid in knots:
            return
        predicted = knots[a] + (knots[b] - knots[a]) * (mid - a) / (b - a)
        value = float(evaluate(mid))
        knots[mid] = value
        insort(order, mid)
        heapq.heappush(heap, (-abs(value - predicted), mid))

    introduce(lo, hi)
    while heap and len(knots) + 2 <= budget.max_knots:
        if -heap[0][0] < budget.threshold:
            break
        _, x = heapq.heappop(heap)
        i = bisect_left(order, x)
        left, right = order[i - 1], order[i + 1]
        if x - left >= 2 * MIN_SPLIT_WIDTH:
            introduce(left, x)
        if right - x >= 2 * MIN_SPLIT_WIDTH:
            introduce(x, right)
    return PwlFunction(tuple(order), tuple(knots[x] for x in order))
