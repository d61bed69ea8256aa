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
# Cells of per-pair scan temporaries in one stacked block: bigger blocks save
# no time and raise peak memory.
_MAX_STACK_CELLS = 16_384
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


class CurveStack:
    """Piecewise-linear curves on shared knot abscissae xs; row c of _ay is curve c."""

    def __init__(self, curves: list[PwlFunction]):
        self.xs, self._ax = curves[0].xs, curves[0]._ax
        self._ay = np.array([c.ys for c in curves])


def _groups(keys) -> list[list[int]]:
    """Indices of equal keys, grouped in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _layout_groups(pairs: list[tuple[PwlFunction, PwlFunction]]):
    """Indices, win stack and lose stack of each knot-layout group of (win, lose) pairs."""
    for idx in _groups((win.xs, lose.xs) for win, lose in pairs):
        yield (idx, CurveStack([pairs[i][0] for i in idx]),
               CurveStack([pairs[i][1] for i in idx]))


def _interp_table(curves: Union[PwlFunction, CurveStack]) -> tuple:
    """Knots xp, edges, values and slopes that replay np.interp(., xp, ys[c]) bit
    for bit (finite slopes): with k = searchsorted(xp, x, "right"), np.interp(x) is
    slopes[c, k] * (x - edges[k]) + values[c, k] if x > edges[k], else values[c, k]."""
    xp, fp = curves._ax, np.atleast_2d(curves._ay)
    zero = np.zeros((len(fp), 1))
    return (xp, np.concatenate((xp[:1], xp[:-1], [np.inf])),
            np.concatenate((fp[:, :1], fp), axis=1),
            np.concatenate((zero, (fp[:, 1:] - fp[:, :-1]) / (xp[1:] - xp[:-1]), zero), axis=1))


def _knot_positions(x: np.ndarray, xp: np.ndarray, edges: np.ndarray) -> tuple:
    """Value column, slope column and offset of each point x for _interp_rows; at a
    knot value, zero slope (column 0) times offset -0.0 adds -0.0, changing nothing."""
    k = np.searchsorted(xp, x, side="right")
    off = x - edges[k]
    snap = off <= 0
    return k, np.where(snap, 0, k), np.where(snap, -0.0, off)


def _interp_rows(at: tuple, values: np.ndarray, slopes: np.ndarray, rows=slice(None)):
    """Each curve at every point of `at`; with rows = arange(C)[:, None], curve c at row c."""
    k, js, off = at
    return slopes[rows, js] * off + values[rows, k]


def _maximize_batch(
    win: Union[PwlFunction, CurveStack],
    lose: Union[PwlFunction, CurveStack],
    dist: BidDistribution,
    ds: np.ndarray,
    cfg: MaximizerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Best bid and objective value for each (curve pair, endowment).

    win and lose are single curves with ds a vector of endowments, or stacks
    of C curves with ds of shape (C, rows), pair c taking win and lose curve c
    and endowments ds[c].  For endowment d the candidates are the piece
    boundaries {d - x : x a win-curve knot} clipped to [0, d], a uniform
    lattice over [0, d], and 0 and d; candidates, win probabilities and knot
    positions are shared by the pairs of an endowment row, and stacks read
    curves through an exact replica of np.interp.  The best candidate is then
    polished by golden section inside its bracketing candidates, for as many
    steps as the pair's widest bracket needs, so no pair depends on the pairs
    stacked with it.  Exact objective ties resolve to the smallest bid.
    """
    win_x, win_e, win_y, win_s = _interp_table(win)
    lose_x, lose_e, lose_y, lose_s = _interp_table(lose)
    ds = np.atleast_1d(np.asarray(ds, dtype=float))
    rows = ds.reshape(len(win_y), -1)
    segments = min(max(len(win_x) - 1, 1), _LATTICE_SEGMENT_CAP)
    base = np.linspace(0.0, 1.0, cfg.samples_per_segment * segments)
    out_z, out_q = np.empty((2,) + rows.shape)
    tol = cfg.refine_tolerance
    chunk = max(1, _MAX_CHUNK_CELLS // (len(win_x) + len(base) + 2))
    for pairs, start in ((np.array(p), s) for p in _groups(row.tobytes() for row in rows)
                         for s in range(0, rows.shape[1], chunk)):
        d = rows[pairs[0], start : start + chunk]
        dcol = d[:, None]
        z = np.sort(np.concatenate([np.zeros((len(d), 1)), dcol, np.clip(dcol - win_x, 0.0, None),
                                    dcol * base], axis=1), axis=1)
        r_ix, p = np.arange(len(d)), dist.win_probability_vec(z)
        if len(rows) > 1:
            scan_at = _knot_positions(dcol - z, win_x, win_e)
            lose_at = _knot_positions(d, lose_x, lose_e)
        qbest, zbest, lo, hi, lv = np.empty((5, len(pairs), len(d)))
        step = max(1, _MAX_STACK_CELLS // z.size)
        for i in range(0, len(pairs), step):
            cs, part = pairs[i : i + step], slice(i, i + step)
            if len(rows) > 1:
                q = _interp_rows(scan_at, win_y[cs], win_s[cs]) * p
                lv[part] = _interp_rows(lose_at, lose_y[cs], lose_s[cs])
            else:
                q = np.interp(dcol - z, win_x, win_y[0, 1:])[None] * p
                lv[part] = np.interp(d, lose_x, lose_y[0, 1:])
            q += (1.0 - p) * lv[part, :, None]
            # A sorted row's first maximum is the smallest best bid; it is bracketed
            # by the column before and by the first candidate above it, if any.
            best = q.argmax(axis=2)
            qbest[part], zbest[part] = q.max(axis=2), z[r_ix, best]
            above = np.count_nonzero(z <= zbest[part, :, None], axis=2)
            lo[part] = z[r_ix, np.maximum(best - 1, 0)]
            hi[part] = z[r_ix, np.minimum(above, z.shape[1] - 1)]
        span = (hi - lo).max(axis=1)
        sel = np.flatnonzero(span > tol)
        if len(sel):
            iters = np.ceil(np.log(span[sel] / tol) / np.log(1.0 / _INVPHI)).astype(int)
            sel, iters = sel[np.argsort(iters, kind="stable")], np.sort(iters)
            a, b, fp, slopes, lv = lo[sel], hi[sel], win_y[pairs[sel]], win_s[pairs[sel]], lv[sel]

            def q_of(zz, d, s):
                pz = dist.win_probability_vec(zz)
                wv = (_interp_rows(_knot_positions(d - zz, win_x, win_e), fp[s:], slopes[s:],
                                   np.arange(len(zz))[:, None]) if len(rows) > 1
                      else np.interp(d - zz, win_x, win_y[0, 1:]))
                return pz * wv + (1.0 - pz) * lv[s:, : len(d)]

            # A step evaluates both probes side by side in a row (lv holds the lose values
            # twice).  Pairs run in ascending step count: those still polishing are a suffix.
            r, d2, lv = len(d), np.concatenate((d, d)), np.concatenate((lv, lv), axis=1)
            for s in np.searchsorted(iters, np.arange(iters[-1]), side="right"):
                av, bv = a[s:], b[s:]
                h = _INVPHI * (bv - av)
                x = np.concatenate((bv - h, av + h), axis=1)
                q = q_of(x, d2, s)
                keep_left = q[:, :r] >= q[:, r:]
                np.copyto(av, x[:, :r], where=~keep_left)
                np.copyto(bv, x[:, r:], where=keep_left)
            zc = 0.5 * (a + b)
            qc = q_of(zc, d, 0)
            better = qc > qbest[sel]
            zbest[sel] = np.where(better, zc, zbest[sel])
            qbest[sel] = np.where(better, qc, qbest[sel])
        out_z[pairs, start : start + chunk], out_q[pairs, start : start + chunk] = zbest, qbest
    return out_z.reshape(ds.shape), out_q.reshape(ds.shape)


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
    set chosen by the strategy.  UniformFixed backs a stage up in one maximizer
    call per (win, lose) knot layout; Vg1 and Vg2 evaluate one knot per call.
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

    def component(t, mask, xs, zs, qs):
        knot_bids[(t, mask)] = zs
        comp = PwlFunction(tuple(float(x) for x in xs),
                           tuple(float(y) for y in _monotone(qs)))
        deltas[t] = max(deltas[t], comp.max_consecutive_delta()[0])
        return comp

    def backup(t, jobs):
        dist = spec.distributions[t]
        if isinstance(strategy, UniformFixed):
            xs, solved = np.linspace(0.0, m, strategy.g), {}
            for idx, win, lose in _layout_groups([job[1:] for job in jobs]):
                ds = np.broadcast_to(xs, (len(idx), len(xs)))
                solved.update(zip(idx, zip(*_maximize_batch(win, lose, dist, ds, cfg))))
            return [component(t, mask, xs, *solved[i]) for i, (mask, _, _) in enumerate(jobs)]
        out = []
        for mask, win, lose in jobs:
            recorded: dict[float, float] = {}

            def evaluate(d: float) -> float:
                z, q = _maximize_batch(win, lose, dist, np.array([d]), cfg)
                recorded[float(d)] = float(z[0])
                return float(q[0])

            refine = vg1_refine if isinstance(strategy, Vg1) else vg2_refine
            curve = refine(evaluate, (0.0, m), strategy.budget)
            zs = np.array([recorded[x] for x in curve.xs])
            out.append(component(t, mask, curve.xs, zs, np.asarray(curve.ys)))
        return out

    layers = sweep(n, lambda t, mask: None if settled(t, mask) else True, backup, closed_form)
    components = [Layer(layer, 1 << t, closed_form) for t, layer in enumerate(layers)]

    return GridSolution(
        HybridValueFunction(components, m),
        DeltaLedger(deltas),
        sum(len(zs) for zs in knot_bids.values()),
        knot_bids,
        Settled(n, knot_bids),
    )
