"""Grid-based solver for continuous-mode auction sequences.

Endowment is continuous here, so each (stage, holdings) pair carries a
piecewise-linear value curve over [0, m] instead of a table.  Knot values are
computed exactly against the next stage's curves via a one-dimensional bid
maximization; everything between knots is linear interpolation.  The largest
gap between adjacent knot values of a stage bounds the interpolation error
that stage can introduce, and the gaps of a stage and of every later
non-terminal stage, summed, bound its total deviation from the exact value
function.

The bid objective Q(z) mixes the win branch, evaluated at d - z on the next
stage's curve for the enlarged holdings, with the lose branch at unchanged d.
Q is piecewise smooth with kinks only where d - z crosses a knot of the win
curve, so the maximizer works on the pieces cut at those points.
"""

from __future__ import annotations

from collections.abc import Set
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

from .core import BidDistribution, MODE_CONTINUOUS, ProblemSpec, TruncatedGaussian, _tagged
from .discrete import _MAX_STACK_CELLS, Layer, Settled, _stage_mask, sweep
from .pwl import MAX_KNOTS, PwlFunction, RefinementBudget, vg1_refine, vg2_refine


# The candidate lattice covers [0, d] with a density equivalent to
# samples_per_segment per win-curve piece, capped at this many pieces so fine
# grids do not blow up the candidate count; the piece boundaries themselves
# are always candidates.
_LATTICE_SEGMENT_CAP = 8
_MAX_CHUNK_CELLS = 2_000_000


@dataclass(frozen=True)
class MaximizerConfig:
    """Sampling density and polish tolerance of the bid maximizer: fixed values."""

    samples_per_segment: int = 32
    refine_tolerance: float = 1e-4


# Every solve's settings, passed to _maximize_batch: perfbench/spans.py reads them there.
_MAXIMIZER = MaximizerConfig()


@lru_cache(maxsize=64)
def _even_knots(g: int, m: float) -> tuple[float, ...]:
    """g evenly spaced knots over [0, m]; each component of a solve asks twice."""
    return tuple(np.linspace(0.0, m, g).tolist())


@dataclass(frozen=True)
class UniformFixed:
    """Evaluate every component at g evenly spaced knots."""

    g: int

    def __post_init__(self) -> None:
        if not 2 <= self.g <= MAX_KNOTS:
            raise ValueError(f"g: {self.g} must be between 2 and {MAX_KNOTS:,}")

    def refine(self, evaluate, m: float) -> PwlFunction:
        """The curve through all g knots, asked for as one tuple."""
        xs = _even_knots(self.g, m)
        return PwlFunction(xs, evaluate(xs))


@dataclass(frozen=True)
class Vg1:
    """Adaptive grid driven by largest knot-value gap (interval bisection)."""

    budget: RefinementBudget

    def refine(self, evaluate, m: float) -> PwlFunction:
        return vg1_refine(evaluate, (0.0, m), self.budget)


@dataclass(frozen=True)
class Vg2:
    """Adaptive grid driven by worst chord prediction (paired insertion)."""

    budget: RefinementBudget

    def refine(self, evaluate, m: float) -> PwlFunction:
        return vg2_refine(evaluate, (0.0, m), self.budget)


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
        if not 0 <= t <= self.n:
            raise ValueError(f"t: stage {t} is outside 0..{self.n}")
        return self.components[t][_stage_mask(t, held)]

    def value(self, t: int, held: Union[int, Iterable[int]], d: float) -> float:
        return _tagged("d: ", self.component(t, held), d)


@dataclass
class DeltaLedger:
    """Per stage, the largest adjacent knot-value gap over that stage's curves.

    Settled components are exact closed forms and contribute nothing.  The
    terminal stage's entry is the residual-utility knot gap; it is recorded
    but never charged, as terminal values are exact.
    """

    deltas: list[float]

    @property
    def n(self) -> int:
        return len(self.deltas) - 1


def error_bound(ledger: DeltaLedger, t: int) -> float:
    """Accumulated value-error bound at stage t: the deltas of stages t to n - 1.

    Between two knots a curve interpolates values of a nondecreasing backup, so
    it misses that backup by at most its stage's delta; a backup passes on the
    next stage's error unenlarged, and terminal values are exact.
    """
    if not 0 <= t <= ledger.n:
        raise ValueError(f"stage {t} outside 0..{ledger.n}")
    return float(sum(ledger.deltas[t : ledger.n]))


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


# Candidates per block of _scan_cells, which keeps several arrays of this size.
_MAX_CELL_BLOCK = 4_096
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


class CurveStack:
    """Piecewise-linear curves; row c of _ay is curve c.

    xs is the first curve's abscissae.  _ax is the abscissae every curve shares,
    or, when they differ, a row per curve; layout[c] numbers curve c's abscissae
    among the distinct ones; counts[c] is curve c's knot count.  Rows of their own
    are padded past the last knot at its value, to one knot more than the most any
    curve has: reads of endowments in [0, m] never reach the padding.
    """

    def __init__(self, curves: list[PwlFunction]):
        ids: dict = {}
        self.xs, self.layout = curves[0].xs, np.array([ids.setdefault(c.xs, len(ids))
                                                       for c in curves])
        self.counts = np.array([len(xs) for xs in ids])[self.layout]
        if len(ids) == 1:
            self._ax, self._ay = curves[0]._ax, np.array([c.ys for c in curves])
            return
        width = max(map(len, ids)) + 1
        rows = [xs + tuple(xs[-1] + i for i in range(1, width + 1 - len(xs))) for xs in ids]
        self._ax = np.array(rows)[self.layout]
        self._ay = np.array([c.ys + c.ys[-1:] * (width - len(c.ys)) for c in curves])


def _groups(keys) -> list[list[int]]:
    """Indices of equal keys, grouped in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _distinct(pairs: list) -> tuple[np.ndarray, list[int]]:
    """First index of each distinct (win, lose) curve pair, equal bit for bit, and
    per pair the number of its distinct one: equal successors give equal backups."""
    keys = [tuple(a.tobytes() for c in pair for a in (c._ax, c._ay)) for pair in pairs]
    number: dict = {}
    which = [number.setdefault(key, len(number)) for key in keys]
    return np.unique(which, return_index=True)[1], which


def _interp_table(curves: Union[PwlFunction, CurveStack]) -> tuple:
    """Knots xp, edges, values and slopes that replay np.interp(., xp, ys[c]) bit
    for bit (finite slopes): with k = searchsorted(xp, x, "right"), np.interp(x) is
    slopes[c, k] * (x - edges[k]) + values[c, k] if x > edges[k], else values[c, k].
    xp and edges are one row shared by every curve, or a row per curve."""
    xp, fp = curves._ax, np.atleast_2d(curves._ay)
    zero = np.zeros((len(fp), 1))
    return (xp, np.concatenate((xp[..., :1], xp[..., :-1], xp[..., :1] + np.inf), axis=-1),
            np.concatenate((fp[:, :1], fp), axis=1),
            np.concatenate((zero, (fp[:, 1:] - fp[:, :-1]) / (xp[..., 1:] - xp[..., :-1]), zero),
                           axis=1))


def _knot_positions(x: np.ndarray, xp: np.ndarray, edges: np.ndarray) -> tuple:
    """Value column, slope column and offset of each point x for _interp_rows; at a
    knot value, zero slope (column 0) times offset -0.0 adds -0.0, changing nothing.
    xp and edges are shared, or 2-D with one row per row of x."""
    if xp.ndim == 1:
        k = np.searchsorted(xp, x, side="right")
        off = x - edges[k]
    else:
        # searchsorted(xp[i], x[i], "right"): the count of row i's knots at or below x[i]
        k = (xp.reshape(len(xp), *(1,) * (x.ndim - 1), -1) <= x[..., None]).sum(axis=-1)
        off = x - np.take_along_axis(edges, k.reshape(len(k), -1), axis=1).reshape(k.shape)
    snap = off <= 0
    return k, np.where(snap, 0, k), np.where(snap, -0.0, off)


def _interp_rows(at: tuple, values: np.ndarray, slopes: np.ndarray, rows=slice(None)):
    """Each curve at every point of `at`; with rows = arange(C)[:, None], curve c at row c."""
    k, js, off = at
    return slopes[rows, js] * off + values[rows, k]


def _values_at(table: tuple, x: np.ndarray, first: int = 0) -> np.ndarray:
    """Curve first + c of an _interp_table (first 0 if it has rows of knots) at the
    points x[c], or every curve from first on at x when x is 1-D: np.interp's bits;
    of a _window, its rows from first on."""
    if len(table) == 3:
        knots, start, flat = table
        edge, v, slope = flat[:, start[first:] + (knots[first:] <= x[..., None]).sum(axis=-1)]
        return np.where(x <= edge, v, slope * (x - edge) + v)  # _interp_rows' bits
    xp, edges, values, slopes = table
    if len(values) == 1 and xp.ndim == 1:
        return np.interp(x, xp, values[0, 1:])
    rows = np.arange(first, len(values))[:, None] if x.ndim > 1 else slice(first, None)
    return _interp_rows(_knot_positions(x, xp, edges), values, slopes, rows)


def _window(table: tuple, sel: np.ndarray, x_lo: np.ndarray, x_hi: np.ndarray) -> tuple:
    """The table _values_at reads for curve sel[i] of a table with rows of knots at points
    of row i in [x_lo, x_hi]: per point the knots k(x_lo)..k(x_hi) - 1 it may pass (k
    counts knots at or below), the flat index of column k(x_lo), and the columns."""
    xp, edges, values, slopes = table
    lo, hi = (_knot_positions(x, xp[sel], edges[sel])[0] for x in (x_lo, x_hi))
    passed = np.minimum(lo[..., None] + np.arange((hi - lo).max()), xp.shape[1] - 1)
    return (xp[sel[:, None, None], passed], lo + sel[:, None] * values.shape[1],
            np.stack((edges, values, slopes)).reshape(3, -1))


class _Laws(TruncatedGaussian):
    """Distributions whose (mean, std, _f0, _scale) are cols, _laws' parameters shaped to
    bids: the inherited win_probability_vec gives each bid its own distribution's bits."""

    def __init__(self, cols: np.ndarray):
        self.__dict__.update(zip(("mean", "std", "_f0", "_scale"), cols))


def _laws(dist) -> tuple:
    """(dist, None) for one distribution or a list of equal ones, else the (4, D) cached
    parameters of a list's D distinct truncated Gaussians and each pair's number."""
    if not isinstance(dist, list) or len(set(dist)) == 1:
        return (dist[0] if isinstance(dist, list) else dist), None
    params, of = np.unique([[law.mean, law.std, law._f0, law._scale] for law in dist], axis=0,
                           return_inverse=True)
    return params.T, of.reshape(-1)


def _candidates(d: np.ndarray, xp: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Sorted candidate bids per endowment d[i] (a column) against win knots xp (shared
    or row i): 0, d, the piece boundaries d - xp clipped to [0, d] and the lattice d * base."""
    return np.sort(np.concatenate([np.zeros_like(d), d, np.clip(d - xp, 0.0, None), d * base],
                                  axis=1), axis=1)


def _bracket(q: np.ndarray, z: np.ndarray) -> tuple:
    """Best objective, best bid and bracketing candidates of each row of q over the
    sorted bids z, row i of z serving q's rows [..., i, :].  A sorted row's first
    maximum is the smallest best bid; it is bracketed by the column before and by
    the first candidate above it, if any."""
    r, best = np.arange(len(z)), q.argmax(axis=-1)
    zbest = z[r, best]
    above = np.count_nonzero(z <= zbest[..., None], axis=-1)
    return (q.max(axis=-1), zbest, z[r, np.maximum(best - 1, 0)],
            z[r, np.minimum(above, z.shape[1] - 1)])


def _scan_shared(win: tuple, dist, of, d: np.ndarray, base: np.ndarray,
                 lv: np.ndarray) -> np.ndarray:
    """_bracket of every pair at the endowments d that all pairs share, the pairs'
    win curves sharing their knots: candidates, knot positions and, per distribution of
    these pairs, win probabilities are computed once and broadcast over blocks of pairs."""
    win_x, win_e, win_y, win_s = win
    if of is not None:  # the laws of these pairs only, renumbered
        own, of = np.unique(of, return_inverse=True)
    dcol = d[:, None]
    z = _candidates(dcol, win_x, base)
    p = (dist.win_probability_vec(z) if of is None else _Laws(dist[:, own, None, None])
         .win_probability_vec(np.broadcast_to(z, (len(own),) + z.shape)))  # p[k]: law own[k]'s
    if len(win_y) > 1:
        scan_at = _knot_positions(dcol - z, win_x, win_e)
    found = np.empty((4,) + lv.shape)
    step = max(1, _MAX_STACK_CELLS // z.size)
    for i in range(0, len(win_y), step):
        part = slice(i, i + step)
        pp = p if of is None else p[of[part]]
        q = (_interp_rows(scan_at, win_y[part], win_s[part]) if len(win_y) > 1
             else np.interp(dcol - z, win_x, win_y[0, 1:])[None]) * pp
        q += (1.0 - pp) * lv[part, :, None]
        found[:, part] = _bracket(q, z)
    return found


def _scan_cells(win: tuple, layout: np.ndarray, dist, of, d: np.ndarray,
                base: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """_bracket of pair c at each endowment d[c, j], pairs differing in endowments or
    in win knots: candidates, win probabilities and knot positions are computed once
    per distinct (win knots, endowment, distribution) and read per pair by index."""
    win_x, win_e, win_y, win_s = win
    pair, dc, lvc = np.repeat(np.arange(len(d)), d.shape[1]), d.ravel(), lv.ravel()
    keys = (dc.view(np.int64), layout[pair]) + (() if of is None else (of[pair],))
    order = np.lexsort(keys)
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = np.any([k[order[1:]] != k[order[:-1]] for k in keys], axis=0)
    key, first = np.cumsum(fresh) - 1, order[fresh]
    found = np.empty((4, len(dc)))
    step = max(1, _MAX_CELL_BLOCK // (win_x.shape[-1] + len(base) + 2))
    for i in range(0, len(order), step):
        cells, ks = order[i : i + step], key[i : i + step]
        reps = first[ks[0] : ks[-1] + 1]
        dk = dc[reps, None]
        xk, ek = (win_x, win_e) if win_x.ndim == 1 else (win_x[pair[reps]], win_e[pair[reps]])
        z = _candidates(dk, xk, base)
        p = (dist if of is None else _Laws(dist[:, of[pair[reps]], None])).win_probability_vec(z)
        at = _knot_positions(dk - z, xk, ek)
        if len(reps) < len(cells):  # some cells share a key: read theirs by index
            r = ks - ks[0]
            z, p, at = z[r], p[r], tuple(a[r] for a in at)
        q = _interp_rows(at, win_y, win_s, pair[cells, None]) * p
        q += (1.0 - p) * lvc[cells, None]
        found[:, cells] = _bracket(q, z)
    return found.reshape((4,) + d.shape)


def _polish(win: tuple, dist, of, d: np.ndarray, lv: np.ndarray,
            found: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section polish of every pair's best candidate inside its bracket, under
    its distribution, for as many steps as the pair's widest bracket needs."""
    qbest, zbest, lo, hi = found
    span = (hi - lo).max(axis=1)
    sel = np.flatnonzero(span > tol)
    if not len(sel):
        return zbest, qbest
    iters = np.ceil(np.log(span[sel] / tol) / np.log(1.0 / _INVPHI)).astype(int)
    sel, iters = sel[np.argsort(iters, kind="stable")], np.sort(iters)
    a, b = lo[sel], hi[sel]
    # Both probes of a step lie in the bracket, side by side in a row (d and lv hold each
    # pair's endowments and lose values twice), so _window holds every knot they reach.
    # Pairs run in ascending step count: those still polishing are a suffix.
    r, d, lv = a.shape[1], np.concatenate((d[sel],) * 2, 1), np.concatenate((lv[sel],) * 2, 1)
    table = (_window(win, sel, d - np.concatenate((b, b), 1), d - np.concatenate((a, a), 1))
             if win[0].ndim > 1 else win[:2] + (win[2][sel], win[3][sel]))
    laws = dist if of is None else dist[:, of[sel], None]

    def q_of(zz, s):
        pz = (laws if of is None else _Laws(laws[:, s:])).win_probability_vec(zz)
        return pz * _values_at(table, d[s:] - zz, s) + (1.0 - pz) * lv[s:]

    for s in np.searchsorted(iters, np.arange(iters[-1]), side="right"):
        av, bv = a[s:], b[s:]
        h = _INVPHI * (bv - av)
        x = np.concatenate((bv - h, av + h), axis=1)
        q = q_of(x, s)
        keep_left = q[:, :r] >= q[:, r:]
        np.copyto(av, x[:, :r], where=~keep_left)
        np.copyto(bv, x[:, r:], where=keep_left)
    zc = 0.5 * (a + b)
    qc = q_of(np.concatenate((zc, zc), 1), 0)[:, :r]
    better = qc > qbest[sel]
    zbest[sel] = np.where(better, zc, zbest[sel])
    qbest[sel] = np.where(better, qc, qbest[sel])
    return zbest, qbest


def _cut(table: tuple, layout: np.ndarray, idx: list[int], knots: int) -> tuple:
    """Rows idx of a table with rows of its own, cut to their `knots` knots (one row of
    knots if shared): reads up to the last knot give the uncut table's bits."""
    xp, edges, values, slopes = table
    at = idx[0] if (layout[idx] == layout[idx[0]]).all() else idx
    return (xp[at, :knots], edges[at, : knots + 1], values[idx, : knots + 1],
            slopes[idx, : knots + 1])


def _maximize_batch(
    win: Union[PwlFunction, CurveStack],
    lose: Union[PwlFunction, CurveStack],
    dist: Union[BidDistribution, list[TruncatedGaussian]],
    ds: np.ndarray,
    cfg: MaximizerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Best bid and objective value for each (curve pair, endowment).

    win and lose are single curves with ds a vector of endowments, or stacks of C
    curves with ds of shape (C, rows), pair c taking win and lose curve c, endowments
    ds[c] and dist, or dist[c] when dist lists truncated Gaussians (compare_solutions
    stacks every stage); a stack's curves may differ in knots and in knot count.
    For endowment d the candidates are the piece boundaries {d - x : x a win knot}
    clipped to [0, d], a uniform lattice over [0, d], denser for more win knots, and
    0 and d.  Candidates, win probabilities and knot positions are computed once per
    distinct (win knots, endowment, distribution): broadcast over pairs sharing one
    endowment row and one set of win knots, else read per pair by index.  Stacks read
    curves through an exact replica of np.interp.  All best candidates are then
    polished in one loop, by golden section inside their bracketing candidates, for
    as many steps as the pair's widest bracket needs, so no pair depends on the pairs
    stacked with it.  Exact objective ties resolve to the smallest bid.
    """
    win = win if isinstance(win, CurveStack) else CurveStack([win])
    win_t, lose_t = _interp_table(win), _interp_table(lose)
    dist, of = _laws(dist)
    ds = np.atleast_1d(np.asarray(ds, dtype=float))
    rows = ds.reshape(len(win_t[2]), -1)
    scans = [(slice(None), win_t)] if win_t[0].ndim == 1 else [(idx, _cut(
        win_t, win.layout, idx, win.counts[idx[0]])) for idx in _groups(win.counts.tolist())]
    scans = [(idx, t, np.linspace(0.0, 1.0, cfg.samples_per_segment * min(
        max(t[0].shape[-1] - 1, 1), _LATTICE_SEGMENT_CAP))) for idx, t in scans]
    out_z, out_q = np.empty((2,) + rows.shape)
    chunk = max(1, _MAX_CHUNK_CELLS // max(t[0].shape[-1] + len(b) + 2 for _, t, b in scans))
    for start in range(0, rows.shape[1], chunk):
        d = rows[:, start : start + chunk]
        bits = d.view(np.int64)
        shared = len(d) == 1 or (bits == bits[0]).all()
        lv = np.atleast_2d(_values_at(lose_t, d[0] if shared and lose_t[0].ndim == 1 else d))
        found = np.empty((4,) + d.shape)
        for idx, table, base in scans:
            law = None if of is None else of[idx]
            found[:, idx] = (_scan_shared(table, dist, law, d[0], base, lv[idx])
                             if shared and table[0].ndim == 1 else
                             _scan_cells(table, win.layout[idx], dist, law, d[idx], base,
                                         lv[idx]))
        out_z[:, start : start + chunk], out_q[:, start : start + chunk] = _polish(
            win_t, dist, of, d, lv, found, cfg.refine_tolerance)
    return out_z.reshape(ds.shape), out_q.reshape(ds.shape)


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


def _require_continuous(spec: ProblemSpec, caller: str) -> None:
    if spec.mode != MODE_CONTINUOUS:
        raise ValueError(f"{caller} needs a continuous-mode spec")


def _closed_form(spec: ProblemSpec, caller: str):
    """Settled component by mask: the residual curve shifted by the bundle value."""
    _require_continuous(spec, caller)
    return lambda mask: spec.residual.shift(spec.bundle_value(mask))


def _grid_solution(spec: ProblemSpec, closed_form, layers: list[dict],
                   knot_bids: dict[tuple[int, int], np.ndarray]) -> GridSolution:
    """The GridSolution that stores `layers`; knot_bids keys its unsettled components."""
    deltas = [0.0] * spec.n + [spec.residual.max_consecutive_delta()[0]]
    for (t, _), curve in {(t, id(layers[t][m])): layers[t][m] for t, m in knot_bids}.items():
        deltas[t] = max(deltas[t], curve.max_consecutive_delta()[0])
    return GridSolution(
        HybridValueFunction([Layer(layer, 1 << t, closed_form)
                             for t, layer in enumerate(layers)], float(spec.endowment)),
        DeltaLedger(deltas),
        sum(len(zs) for zs in knot_bids.values()),
        knot_bids,
        Settled(spec.n, knot_bids),
    )


def _maximize_pairs(pairs: list[tuple[PwlFunction, PwlFunction]], rows, dist
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Best bids and values of each (win, lose) pair at its own endowment row under one
    truncated Gaussian or a list of one per pair, in one _maximize_batch call whatever the
    knot counts and row lengths (174 calls per suite pass).  A shorter row is padded with
    its last endowment: a repeated bracket leaves the pair's polish steps and bits as they are."""
    if not pairs:
        return []
    width = max(map(len, rows))
    zs, qs = _maximize_batch(CurveStack([win for win, _ in pairs]),
                             CurveStack([lose for _, lose in pairs]),
                             dist if isinstance(dist, list) else [dist] * len(pairs),
                             np.array([row if len(row) == width else
                                       (*row, *(row[-1],) * (width - len(row))) for row in rows],
                                      dtype=float), _MAXIMIZER)
    return [(z[: len(row)], q[: len(row)]) for z, q, row in zip(zs, qs, rows)]


class _Unsolved(Exception):
    """A refine asked for knots that no maximizer call has solved and that it may
    not guess."""


def _answer_from(memo: dict[float, tuple[float, float]], asked: list[tuple[float, ...]]):
    """A refine's evaluate: values read from memo (knot -> bid, value), every miss
    appended to `asked` as one endowment row.

    A tuple of knots is one row: its values once all are solved, else _Unsolved.
    A single knot not solved yet is guessed, as its own row: the chord between
    its nearest solved neighbours, the nearest solved value beyond them, or 0
    with nothing solved.  The max(2, solved knots)-th guess raises _Unsolved.
    """
    solved = sorted(memo)
    values, limit = [memo[x][1] for x in solved] or [0.0], max(2, len(memo))

    def evaluate(d):
        if isinstance(d, tuple):
            if all(map(memo.__contains__, d)):
                return tuple(memo[x][1] for x in d)
            asked.append(d)
            raise _Unsolved
        d = float(d)
        if d in memo:
            return memo[d][1]
        asked.append((d,))
        if len(asked) == limit:
            raise _Unsolved
        return float(np.interp(d, solved or [d], values))

    return evaluate


def _stored(curve: PwlFunction) -> PwlFunction:
    """The curve made monotone, itself when it already is."""
    ys = _monotone(curve._ay)
    same = ys.tobytes() == curve._ay.tobytes()
    return curve if same else PwlFunction(curve.xs, tuple(ys.tolist()))


def solve_grid(spec: ProblemSpec, strategy: GridStrategy) -> GridSolution:
    """Backward grid solve of a continuous-mode spec: solve_grids(spec, [strategy])[0]."""
    return solve_grids(spec, [strategy])[0]


def solve_grids(spec: ProblemSpec, strategies: list[GridStrategy]) -> list[GridSolution]:
    """Backward grid solves of a continuous-mode spec, one per grid strategy, in one sweep.

    The terminal stage is taken exactly from the terminal payoff.  At earlier
    stages every settled component is the residual curve shifted by the
    holdings' bundle value, one closed form for every strategy, contributing
    neither evaluations nor ledger delta; every unsettled component is built,
    per strategy, from exact knot backups at the knots the strategy's refine
    chooses.  A stage's components whose win and lose curves of one strategy
    are equal bit for bit back up alike, so one refine serves them all and each
    gets its curve and its own knot bids (G15 on generator instance 1000: 161
    unsettled components, 42 distinct pairs, 630 maximizer rows, not 2,415).
    The distinct (strategy, win, lose) units of a stage refine in lockstep
    rounds: each round re-runs every unfinished refine against its memo of
    solved knots, then solves the knots it asked for and lacked in one
    maximizer call, whatever the strategies and knot counts, one endowment row
    per ask (372 calls for the 8 solves of the benchmark's `adaptive` pass).
    UniformFixed asks for all g knots as one tuple and finishes in the second
    round.  Vg1 and Vg2 ask for one knot at a time and run ahead on guessed
    values for up to max(2, solved knots) unsolved knots per round; a refine is
    final only once it runs against solved values alone, so its curve is the
    one that solving each knot as it is asked would give.  No unit depends on
    another, so each solution is bit for bit its strategy's lone solve.
    """
    closed_form = _closed_form(spec, "solve_grid")
    m = float(spec.endowment)
    knot_bids: list[dict[tuple[int, int], np.ndarray]] = [{} for _ in strategies]

    def backup(t, jobs):
        units, which = [], []  # (strategy, pair) per unit; per strategy, each job's unit
        for s, strategy in enumerate(strategies):
            pairs = [(win[s], lose[s]) for _, win, lose in jobs]
            firsts, numbers = _distinct(pairs)
            which.append([len(units) + g for g in numbers])
            units += [(strategy, pairs[i]) for i in firsts]
        memos: list[dict[float, tuple[float, float]]] = [{} for _ in units]
        curves: list = [None] * len(units)
        while None in curves:
            wanted = []
            for u, (strategy, _) in enumerate(units):
                if curves[u] is None:
                    asked: list = []
                    with suppress(_Unsolved):
                        curve = strategy.refine(_answer_from(memos[u], asked), m)
                    if asked:
                        wanted += [(u, ds) for ds in asked]
                    else:
                        curves[u] = curve
            solved = _maximize_pairs([units[u][1] for u, _ in wanted],
                                     [ds for _, ds in wanted], spec.distributions[t])
            for (u, ds), (zs, qs) in zip(wanted, solved):
                memos[u].update(zip(ds, zip(zs.tolist(), qs.tolist())))
        unit_bids = [np.array([memo[x][0] for x in c.xs]) for memo, c in zip(memos, curves)]
        for bids, numbers in zip(knot_bids, which):
            bids.update({(t, mask): unit_bids[u].copy() for (mask, _, _), u in zip(jobs, numbers)})
        stored = [_stored(c) for c in curves]
        return [tuple(stored[numbers[j]] for numbers in which) for j in range(len(jobs))]

    layers = sweep(spec, backup, lambda mask: (closed_form(mask),) * len(strategies))
    return [_grid_solution(spec, closed_form, [{mask: each[s] for mask, each in layer.items()}
                                               for layer in layers], bids)
            for s, bids in enumerate(knot_bids)]
