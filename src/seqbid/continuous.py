"""Grid-based solver for continuous-mode auction sequences.

Endowment is continuous here, so each (stage, holdings) pair carries a
piecewise-linear value curve over [0, m] instead of a table.  Knot values are
computed exactly against the next stage's curves via a one-dimensional bid
maximization; everything between knots is linear interpolation.  The largest
gap between adjacent knot values of a stage bounds the interpolation error
that stage can introduce, and the per-stage gaps accumulated across later
stages bound the total deviation from the exact value function.

The bid objective Q(z) mixes the win branch, evaluated at d - z on the next
stage's curve for the enlarged holdings, with the lose branch at unchanged d.
Q is piecewise smooth with kinks only where d - z crosses a knot of the win
curve, so the maximizer works on the pieces cut at those points.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .core import (
    BidDistribution,
    BundleValueTable,
    MODE_CONTINUOUS,
    ProblemSpec,
    ensure_valid,
    holdings_mask,
)
from .discrete import Layer, Settled, _settled_test, sweep
from .pwl import PwlFunction, RefinementBudget, vg1_refine, vg2_refine


@dataclass(frozen=True)
class MaximizerConfig:
    """Sampling density and polish tolerance for the bid maximizer."""

    samples_per_segment: int = 32
    refine_tolerance: float = 1e-4

    def __post_init__(self) -> None:
        if self.samples_per_segment < 2:
            raise ValueError("samples_per_segment must be at least 2")
        if not self.refine_tolerance > 0:
            raise ValueError("refine_tolerance must be positive")


@dataclass(frozen=True)
class UniformFixed:
    """Evaluate every component at g evenly spaced knots."""

    g: int

    def __post_init__(self) -> None:
        if self.g < 2:
            raise ValueError("a fixed grid needs at least 2 knots")


@dataclass(frozen=True)
class Vg1:
    """Adaptive grid driven by largest knot-value gap (interval bisection)."""

    budget: RefinementBudget


@dataclass(frozen=True)
class Vg2:
    """Adaptive grid driven by worst chord prediction (paired insertion)."""

    budget: RefinementBudget


GridStrategy = Union[UniformFixed, Vg1, Vg2]


@dataclass
class HybridValueFunction:
    """Per stage, per holdings mask: a value curve over endowment [0, m].

    A solve stores each stage's reached components (see GridSolution); a
    lookup of any other mask returns its settled closed form.
    """

    components: list[dict[int, PwlFunction]]
    m: float

    @property
    def n(self) -> int:
        return len(self.components) - 1

    def component(self, t: int, held: Union[int, Iterable[int]]) -> PwlFunction:
        return self.components[t][holdings_mask(held)]

    def value(self, t: int, held: Union[int, Iterable[int]], d: float) -> float:
        return self.component(t, held)(d)


@dataclass
class DeltaLedger:
    """Per stage, the largest adjacent knot-value gap over that stage's curves.

    Settled components are exact closed forms and contribute nothing.  The
    terminal stage's entry is the residual-utility knot gap, which is what the
    accumulated bound charges for backing up through the final stage.
    """

    deltas: list[float]

    @property
    def n(self) -> int:
        return len(self.deltas) - 1


def error_bound(ledger: DeltaLedger, t: int) -> float:
    """Accumulated value-error bound at stage t: sum of later stages' deltas."""
    if not 0 <= t <= ledger.n:
        raise ValueError(f"stage {t} outside 0..{ledger.n}")
    return float(sum(ledger.deltas[t + 1 :]))


@dataclass
class GridSolution:
    """solve_grid output: curves, error ledger, and evaluation bookkeeping.

    The curves store only the components the sweep reached: every unsettled
    one plus the settled and terminal successors they read.  Every other mask
    below 2^t (2^n at stage n) is settled, and a lookup answers it with the
    residual curve shifted by the holdings' bundle value.  knot_bids[(t, mask)]
    holds the maximizing bid at each knot of an unsettled component, aligned
    with its knot abscissae; settled components bid 0 and have no entry.
    settled holds the settled (t, mask) pairs with t < n; state_count totals
    the knots evaluated across unsettled components.
    """

    values: HybridValueFunction
    ledger: DeltaLedger
    state_count: int
    knot_bids: dict[tuple[int, int], np.ndarray]
    settled: Set


# The candidate lattice covers [0, d] with a density equivalent to
# samples_per_segment per win-curve piece, capped at this many pieces so fine
# grids do not blow up the candidate count; the piece boundaries themselves
# are always candidates.
_LATTICE_SEGMENT_CAP = 8
_MAX_CHUNK_CELLS = 2_000_000
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _maximize_batch(
    win: PwlFunction,
    lose: PwlFunction,
    dist: BidDistribution,
    ds: np.ndarray,
    cfg: MaximizerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Best bid and objective value for each endowment in ds.

    For endowment d the candidate set is the piece boundaries {d - x : x a
    win-curve knot} clipped to [0, d], a uniform lattice over [0, d], and the
    interval ends 0 and d.  The best candidate is then polished by a
    golden-section pass inside its bracketing candidates.  Exact objective
    ties resolve to the smallest bid.
    """
    ds = np.atleast_1d(np.asarray(ds, dtype=float))
    win_x, win_y = win._ax, win._ay
    lose_x, lose_y = lose._ax, lose._ay
    segments = min(max(len(win_x) - 1, 1), _LATTICE_SEGMENT_CAP)
    base = np.linspace(0.0, 1.0, cfg.samples_per_segment * segments)

    def q_of(z: np.ndarray, d: np.ndarray) -> np.ndarray:
        p = dist.win_probability_vec(z)
        return p * np.interp(d - z, win_x, win_y) + (1.0 - p) * np.interp(
            d, lose_x, lose_y
        )

    out_z = np.empty(ds.shape)
    out_q = np.empty(ds.shape)
    width = len(win_x) + len(base) + 2
    chunk = max(1, _MAX_CHUNK_CELLS // width)
    for start in range(0, len(ds), chunk):
        d = ds[start : start + chunk]
        dcol = d[:, None]
        z = np.concatenate(
            [
                np.zeros((len(d), 1)),
                dcol,
                np.clip(dcol - win_x[None, :], 0.0, None),
                dcol * base[None, :],
            ],
            axis=1,
        )
        p = dist.win_probability_vec(z)
        q = p * np.interp(dcol - z, win_x, win_y)
        q += (1.0 - p) * np.interp(d, lose_x, lose_y)[:, None]
        qbest = q.max(axis=1)
        zbest = np.where(q == qbest[:, None], z, np.inf).min(axis=1)

        lo = np.where(z < zbest[:, None], z, -np.inf).max(axis=1)
        hi = np.where(z > zbest[:, None], z, np.inf).min(axis=1)
        lo = np.where(np.isfinite(lo), lo, zbest)
        hi = np.where(np.isfinite(hi), hi, zbest)
        span = float(np.max(hi - lo)) if len(d) else 0.0
        if span > cfg.refine_tolerance:
            iters = int(np.ceil(np.log(span / cfg.refine_tolerance)
                                / np.log(1.0 / _INVPHI)))
            a, b = lo, hi
            for _ in range(iters):
                x1 = b - _INVPHI * (b - a)
                x2 = a + _INVPHI * (b - a)
                keep_left = q_of(x1, d) >= q_of(x2, d)
                a = np.where(keep_left, a, x1)
                b = np.where(keep_left, x2, b)
            zc = 0.5 * (a + b)
            qc = q_of(zc, d)
            improved = qc > qbest
            zbest = np.where(improved, zc, zbest)
            qbest = np.where(improved, qc, qbest)
        out_z[start : start + chunk] = zbest
        out_q[start : start + chunk] = qbest
    return out_z, out_q


def _branches(
    held: Union[int, Iterable[int]],
    t: int,
    next_stage: Mapping[int, PwlFunction],
) -> tuple[PwlFunction, PwlFunction]:
    mask = holdings_mask(held)
    try:
        return next_stage[mask | (1 << t)], next_stage[mask]
    except KeyError as err:
        raise ValueError(
            f"stage {t + 1} component missing for holdings mask {err.args[0]}"
        ) from None


def q_value(
    held: Union[int, Iterable[int]],
    d: float,
    z: float,
    t: int,
    next_stage: Mapping[int, PwlFunction],
    dist: BidDistribution,
) -> float:
    """Expected value of bidding z at endowment d against stage-(t+1) curves."""
    if z < 0 or z > d + 1e-12:
        raise ValueError(f"bid {z!r} outside [0, {d}]")
    win, lose = _branches(held, t, next_stage)
    p = dist.win_probability(z)
    return p * win(max(d - z, 0.0)) + (1.0 - p) * lose(d)


def maximize_bid(
    held: Union[int, Iterable[int]],
    d: float,
    t: int,
    next_stage: Mapping[int, PwlFunction],
    dist: BidDistribution,
    cfg: MaximizerConfig = MaximizerConfig(),
) -> tuple[float, float]:
    """Best bid in [0, d] and its objective value against stage-(t+1) curves."""
    win, lose = _branches(held, t, next_stage)
    if d < 0 or d > lose.domain[1] + 1e-9:
        raise ValueError(f"endowment {d!r} outside [0, {lose.domain[1]}]")
    zs, qs = _maximize_batch(win, lose, dist, np.array([d]), cfg)
    return float(zs[0]), float(qs[0])


def maximize_bid_many(
    held: Union[int, Iterable[int]],
    ds: np.ndarray,
    t: int,
    next_stage: Mapping[int, PwlFunction],
    dist: BidDistribution,
    cfg: MaximizerConfig = MaximizerConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized maximize_bid over many endowments of one (stage, holdings)."""
    win, lose = _branches(held, t, next_stage)
    return _maximize_batch(win, lose, dist, np.asarray(ds, dtype=float), cfg)


def greedy_bid(
    v: HybridValueFunction,
    held: Union[int, Iterable[int]],
    d: float,
    t: int,
    dist: BidDistribution,
    cfg: MaximizerConfig = MaximizerConfig(),
) -> float:
    """Bid that maximizes the one-step objective against the stored curves."""
    return maximize_bid(held, d, t, v.components[t + 1], dist, cfg)[0]


# Largest value dip the maximizer may produce between adjacent knots before we
# call it a bug rather than sampling noise; dips below this are flattened so
# every stored curve is monotone like the function it approximates.
_MONOTONE_GUARD = 1e-3


def _monotone(ys: np.ndarray) -> np.ndarray:
    dips = np.diff(ys)
    if len(dips) and dips.min() < -_MONOTONE_GUARD:
        raise RuntimeError(
            f"bid maximizer produced a non-monotone value curve (dip {dips.min()})"
        )
    return np.maximum.accumulate(ys)


def solve_grid(
    spec: ProblemSpec,
    strategy: GridStrategy,
    cfg: MaximizerConfig = MaximizerConfig(),
) -> GridSolution:
    """Backward grid solve of a continuous-mode spec under a grid strategy.

    The terminal stage is taken exactly from the terminal payoff.  At earlier
    stages every settled component is the residual curve shifted by the
    holdings' bundle value, contributing neither evaluations nor ledger delta;
    every unsettled component is built from exact knot backups, with the knot
    set chosen by the strategy.
    """
    ensure_valid(spec)
    if spec.mode != MODE_CONTINUOUS:
        raise ValueError("solve_grid needs a continuous-mode spec")
    n = spec.n
    m = float(spec.endowment)
    table = BundleValueTable(spec.bundles)
    settled = _settled_test(spec)
    knot_bids: dict[tuple[int, int], np.ndarray] = {}
    deltas = [0.0] * n + [spec.residual.max_consecutive_delta()[0]]

    def closed_form(mask):
        return spec.residual.shift(table.value(mask))

    def backup(t, mask, win, lose):
        dist = spec.distributions[t]
        if isinstance(strategy, UniformFixed):
            xs = np.linspace(0.0, m, strategy.g)
            zs, qs = _maximize_batch(win, lose, dist, xs, cfg)
        else:
            recorded: dict[float, float] = {}

            def evaluate(d: float) -> float:
                z, q = _maximize_batch(win, lose, dist, np.array([d]), cfg)
                recorded[float(d)] = float(z[0])
                return float(q[0])

            refine = vg1_refine if isinstance(strategy, Vg1) else vg2_refine
            curve = refine(evaluate, (0.0, m), strategy.budget)
            xs = np.asarray(curve.xs)
            qs = np.asarray(curve.ys)
            zs = np.array([recorded[x] for x in curve.xs])
        knot_bids[(t, mask)] = zs
        comp = PwlFunction(tuple(float(x) for x in xs),
                           tuple(float(y) for y in _monotone(qs)))
        deltas[t] = max(deltas[t], comp.max_consecutive_delta()[0])
        return comp

    layers = sweep(n, lambda t, mask: None if settled(t, mask) else True, backup, closed_form)
    components = [Layer(layer, 1 << t, closed_form) for t, layer in enumerate(layers)]

    return GridSolution(
        HybridValueFunction(components, m),
        DeltaLedger(deltas),
        sum(len(zs) for zs in knot_bids.values()),
        knot_bids,
        Settled(n, knot_bids),
    )
