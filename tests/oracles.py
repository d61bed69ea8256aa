"""Independent oracles and random instance builders for the test suite.

Everything here recomputes results from raw problem data (bundle member
lists, residual knot arrays, scipy's normal CDF) without going through the
solver code under test, so agreement between the two is evidence rather
than tautology.  The exceptions are per_knot_grid and per_component_compare,
reference loops that reuse the solver's parts to pin how solve_grid and
compare_solutions schedule their maximizer calls, and per_component_evaluate,
which pins how evaluate_policy_exact checks a stage's bids.  The solution-file
oracles (csv_bytes with discrete_solution_rows or grid_solution_rows) write
every row through csv.writer, one row at a time, with no cache of repeated
blocks.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import repeat, zip_longest

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from seqbid import continuous, discrete
from seqbid.continuous import GridSolution, UniformFixed, Vg1
from seqbid.core import (
    MODE_DISCRETE,
    Bundle,
    DiscreteMultinomial,
    ProblemSpec,
    TruncatedGaussian,
)
from seqbid.discrete import sweep
from seqbid.pwl import PwlFunction, vg1_refine, vg2_refine
from seqbid.simulate import ErrorReport, StageErrors, _pooled, relative_sq_error


def _raw(spec: ProblemSpec):
    """Stage count, endowment, terminal utility and P(high bid < z) tables."""
    n = int(spec.n)
    e = int(round(spec.endowment))
    fx = np.asarray(spec.residual.xs)
    fy = np.asarray(spec.residual.ys)
    bundle_masks = [
        (sum(1 << (r - 1) for r in b.members), b.value) for b in spec.bundles
    ]

    def terminal(mask: int, d: int) -> float:
        contained = [v for bm, v in bundle_masks if bm & mask == bm]
        return max(contained, default=0.0) + float(np.interp(d, fx, fy))

    below = []
    for dist in spec.distributions:
        acc = [0.0]
        for p in getattr(dist, "probs", ()):  # a Gaussian stage has no table
            acc.append(acc[-1] + p)
        below.append(acc)
    return n, e, terminal, below


def expectimax(spec: ProblemSpec, stand_pat: bool = False) -> tuple[dict, dict]:
    """Brute-force optimal values and smallest optimal bids, state by state.

    Plain recursion over (stage, holdings mask, integer endowment) with an
    exhaustive scan of every integer bid; win probabilities and terminal
    utilities are rebuilt from the raw problem data.  Stage t only carries
    masks over the resources already auctioned, i.e. mask < 2**t.

    As solve_discrete's lattice does, the residual is read at 0..e as its
    running maximum.  With stand_pat, a state whose holdings no bundle still
    completable beats takes its terminal value and bids 0, the model
    solve_discrete solves.  Without it such a state still scans every bid:
    unless a law's probabilities sum above 1, spending money on nothing then
    gains nothing.
    """
    n, e, _, below = _raw(spec)
    bundle_masks = [(sum(1 << (r - 1) for r in b.members), b.value) for b in spec.bundles]
    f = np.maximum.accumulate(np.interp(np.arange(e + 1), spec.residual.xs, spec.residual.ys))

    def held(mask: int) -> float:
        return max((v for bm, v in bundle_masks if bm & mask == bm), default=0.0)

    def terminal(mask: int, d: int) -> float:
        return held(mask) + float(f[d])

    def stands_pat(t: int, mask: int) -> bool:
        still_open = mask | ((1 << n) - (1 << t))
        return all(v <= held(mask) or bm & still_open != bm for bm, v in bundle_masks)

    values: dict[tuple[int, int, int], float] = {}
    bids: dict[tuple[int, int, int], int] = {}
    for mask in range(1 << n):
        for d in range(e + 1):
            values[n, mask, d] = terminal(mask, d)
            bids[n, mask, d] = 0
    for t in range(n - 1, -1, -1):
        acc = below[t]
        top = len(acc) - 1
        for mask in range(1 << t):
            win_mask = mask | (1 << t)
            for d in range(e + 1):
                if stand_pat and stands_pat(t, mask):
                    values[t, mask, d], bids[t, mask, d] = terminal(mask, d), 0
                    continue
                best_q = -math.inf
                best_z = 0
                for z in range(d + 1):
                    pw = acc[min(z, top)]
                    q = pw * values[t + 1, win_mask, d - z] + (1.0 - pw) * values[
                        t + 1, mask, d
                    ]
                    if q > best_q:
                        best_q, best_z = q, z
                values[t, mask, d] = best_q
                bids[t, mask, d] = best_z
    return values, bids


def policy_values(spec: ProblemSpec, policy) -> dict:
    """Brute-force expected value of a bid policy at every state.

    The same recursion as expectimax, over every mask < 2**t at every stage,
    but each state bids policy(t, mask, d) instead of the best bid.
    """
    n, e, terminal, below = _raw(spec)
    values = {(n, mask, d): terminal(mask, d) for mask in range(1 << n) for d in range(e + 1)}
    for t in range(n - 1, -1, -1):
        acc = below[t]
        for mask in range(1 << t):
            for d in range(e + 1):
                z = policy(t, mask, d)
                pw = acc[min(z, len(acc) - 1)]
                values[t, mask, d] = (pw * values[t + 1, mask | (1 << t), d - z]
                                      + (1.0 - pw) * values[t + 1, mask, d])
    return values


class Replay(np.random.Generator):
    """A generator whose random() returns the given doubles in turn;
    Generator.choice draws its uniform through that same method."""

    def __init__(self, us):
        super().__init__(np.random.PCG64(0))
        self.us = list(us)

    def random(self, size=None, dtype=np.float64, out=None):
        return self.us.pop(0)


def truncated_mean(mean: float, std: float) -> float:
    """Mean of a Gaussian truncated below at zero: mean + std phi(a) / (1 - Phi(a)),
    a = -mean / std."""
    a = -mean / std
    return mean + std * math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi) / float(ndtr(-a))


def round_dtype(n: int) -> np.dtype:
    """A simulated round's record: each stage's high bid, bid, win and endowment after it,
    then the utility."""
    return np.dtype([("high_bids", float, (n,)), ("bids", float, (n,)), ("won", bool, (n,)),
                     ("endowments", float, (n,)), ("utility", float)])


def scalar_round(spec: ProblemSpec, bid, rng: np.random.Generator) -> np.record:
    """One pass through the auctions, one stage at a time, as seqbid once ran it.

    Each stage draws its high bid from rng: rng.choice(len(probs), p=probs)
    for a multinomial, the truncated normal's inverse CDF at rng.random(),
    rebuilt from scipy's ndtr and ndtri, for a Gaussian.  Then it bids
    bid(t, holdings, d), a scalar; a bid wins by strictly exceeding the high
    bid.  The utility is rebuilt from the raw bundle and residual data.
    """
    n, _, terminal, _ = _raw(spec)
    held, d = 0, float(spec.endowment)
    high_bids, bids, won, endowments = [], [], [], []
    for t, dist in enumerate(spec.distributions):
        if isinstance(dist, DiscreteMultinomial):
            w = float(rng.choice(len(dist.probs), p=dist.probs))
        else:
            f0 = float(ndtr(-dist.mean / dist.std))
            w = float(dist.mean + dist.std * ndtri(f0 + rng.random() * (1.0 - f0)))
        z = float(bid(t, held, d))
        win = z > w
        if win:
            held |= 1 << t
            d -= min(z, d)
        high_bids.append(w)
        bids.append(z)
        won.append(win)
        endowments.append(d)
    return np.rec.array([(high_bids, bids, won, endowments, terminal(held, d))],
                        dtype=round_dtype(n))[0]


def reference_rounds(spec: ProblemSpec, bid, rounds: int, seed: int) -> np.recarray:
    """Monte Carlo traces of the scalar bidder bid(t, holdings, d), one round
    at a time: round r runs scalar_round on row r of
    default_rng(seed).random((rounds, n)), replayed double by double."""
    us = np.random.default_rng(seed).random((rounds, spec.n))
    return np.array([scalar_round(spec, bid, Replay(row.tolist())) for row in us],
                    dtype=round_dtype(spec.n)).view(np.recarray)


def seventy_resources() -> ProblemSpec:
    """Seventy auctions, one bundle per pair of them: holdings masks pass 2**64."""
    return ProblemSpec(
        n=70, bundles=tuple(Bundle(frozenset({i, i + 1}), 1.0) for i in range(1, 70, 2)),
        endowment=100.0, residual=PwlFunction.linear(0.1, 0.0, 100.0),
        distributions=(DiscreteMultinomial((0.5, 0.2, 0.3)),) * 70, mode=MODE_DISCRETE)


def same_rounds(a, b) -> bool:
    """Two records, or record arrays, of rounds alike in every field, bit for bit."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rounds_csv_bytes(rounds) -> bytes:
    """seqbid simulate's rounds.csv of these rounds, one csv.writer row per round: the
    holdings mask sets bit t for each auction t won."""
    return csv_bytes(
        ["round", "utility", "final_endowment", "holdings_mask", "auctions_won"],
        ([r, float(tr.utility), float(tr.endowments[-1]),
          sum(1 << t for t, won in enumerate(tr.won.tolist()) if won), int(tr.won.sum())]
         for r, tr in enumerate(rounds)))


def table_bid(solution):
    """A discrete solution's bid-table lookup at the rounded endowment."""
    return lambda t, held, d: solution.bid(t, held, int(round(d)))


def dense_q_max(
    win_curve: PwlFunction,
    lose_curve: PwlFunction,
    dist: TruncatedGaussian,
    d: float,
    step: float = 1e-4,
) -> tuple[float, float]:
    """Maximize the one-stage backup at endowment d over a dense bid lattice.

    The truncated-normal win probability is recomputed from ndtr directly and
    curve lookups use np.interp on the raw knot arrays.
    """
    count = int(math.floor(d / step)) + 1
    zs = step * np.arange(count)
    if zs[-1] < d:
        zs = np.append(zs, d)
    f0 = ndtr((0.0 - dist.mean) / dist.std)
    cdf = (ndtr((zs - dist.mean) / dist.std) - f0) / (1.0 - f0)
    win_vals = np.interp(d - zs, win_curve.xs, win_curve.ys)
    lose_val = np.interp(d, lose_curve.xs, lose_curve.ys)
    q = cdf * win_vals + (1.0 - cdf) * lose_val
    k = int(np.argmax(q))
    return float(zs[k]), float(q[k])


def quad_win_probability(mean: float, std: float, z: float) -> float:
    """P(high bid < z) for a nonnegative-truncated normal, by quadrature."""

    def pdf(x: float) -> float:
        u = (x - mean) / std
        return math.exp(-0.5 * u * u) / (std * math.sqrt(2.0 * math.pi))

    mass, _ = quad(pdf, 0.0, z)
    total = 1.0 - ndtr((0.0 - mean) / std)
    return mass / total


def _covering_bundles(rng: np.random.Generator, n: int, n_groups: int) -> list[set]:
    """Random bundle member sets that jointly cover resources 1..n."""
    owner = rng.integers(0, n_groups, size=n)
    groups: dict[int, set[int]] = {}
    for r in range(1, n + 1):
        groups.setdefault(int(owner[r - 1]), set()).add(r)
    for members in groups.values():
        extras = np.nonzero(rng.random(n) < 0.3)[0] + 1
        members.update(int(r) for r in extras)
    return list(groups.values())


def random_micro_instance(rng: np.random.Generator) -> ProblemSpec:
    """Tiny discrete instance: n <= 3, integer endowment <= 5, support <= {0..3}."""
    n = int(rng.integers(1, 4))
    e = int(rng.integers(1, 6))
    bundles = tuple(
        Bundle(frozenset(m), float(np.round(rng.uniform(1.0, 12.0), 2)))
        for m in _covering_bundles(rng, n, int(rng.integers(1, 4)))
    )
    if rng.random() < 0.5:
        slope = float(np.round(rng.uniform(0.1, 1.0), 2))
        residual = PwlFunction.linear(slope, 0.0, float(e))
    else:
        steps = np.round(rng.uniform(0.0, 1.5, size=e), 2)
        ys = np.concatenate(([0.0], np.cumsum(steps)))
        residual = PwlFunction(
            tuple(float(x) for x in range(e + 1)), tuple(float(y) for y in ys)
        )
    dists = tuple(
        DiscreteMultinomial(tuple(rng.dirichlet(np.ones(int(rng.integers(1, 5))))))
        for _ in range(n)
    )
    return ProblemSpec(n, bundles, float(e), residual, dists, "discrete")


def random_small_instance(rng: np.random.Generator) -> ProblemSpec:
    """Small continuous instance for dense-oracle backup checks."""
    n = int(rng.integers(1, 3))
    e = float(rng.integers(4, 13)) / 2.0
    bundles = tuple(
        Bundle(frozenset(m), float(np.round(rng.uniform(2.0, 12.0), 2)))
        for m in _covering_bundles(rng, n, int(rng.integers(1, 3)))
    )
    dists = tuple(
        TruncatedGaussian(
            float(np.round(rng.uniform(0.8, 0.6 * e), 3)),
            float(np.round(rng.uniform(0.4, 1.2), 3)),
        )
        for _ in range(n)
    )
    slope = float(np.round(rng.uniform(0.2, 1.0), 2))
    residual = PwlFunction.linear(slope, 0.0, e)
    return ProblemSpec(n, bundles, e, residual, dists, "continuous")


def per_knot_grid(spec: ProblemSpec, strategy) -> GridSolution:
    """solve_grid driven one component at a time (UniformFixed) or one knot at a
    time (Vg1, Vg2).

    Not independent of the solver: this is the reference the lockstep rounds
    must match bit for bit.  Under UniformFixed each component solves its g
    evenly spaced knots in one _maximize_batch call of its own.  Under Vg1 and
    Vg2 each component runs its refiner once, against an evaluate that solves
    the asked knot on the spot in a one-row _maximize_batch call.
    """
    closed_form = continuous._closed_form(spec, "per_knot_grid")
    m, cfg = float(spec.endowment), continuous._MAXIMIZER
    knot_bids: dict[tuple[int, int], np.ndarray] = {}

    def backup(t, jobs):
        out = []
        for mask, win, lose in jobs:
            dist = spec.distributions[t]
            if isinstance(strategy, UniformFixed):
                xs = np.linspace(0.0, m, strategy.g)
                zs, qs = continuous._maximize_batch(win, lose, dist, xs, cfg)
                curve = PwlFunction(tuple(float(x) for x in xs), tuple(float(q) for q in qs))
                knot_bids[(t, mask)] = zs
            else:
                bids: dict[float, float] = {}

                def evaluate(d: float) -> float:
                    z, q = continuous._maximize_batch(win, lose, dist, np.array([d]), cfg)
                    bids[float(d)] = float(z[0])
                    return float(q[0])

                refine = vg1_refine if isinstance(strategy, Vg1) else vg2_refine
                curve = refine(evaluate, (0.0, m), strategy.budget)
                knot_bids[(t, mask)] = np.array([bids[x] for x in curve.xs])
            ys = continuous._monotone(np.asarray(curve.ys))
            out.append(PwlFunction(curve.xs, tuple(float(y) for y in ys)))
        return out

    layers = sweep(spec, backup, closed_form)
    return continuous._grid_solution(spec, closed_form, layers, knot_bids)


def per_component_evaluate(spec: ProblemSpec, bidder) -> list[dict[int, np.ndarray]]:
    """evaluate_policy_exact with each component's bids checked as the bidder returns them.

    Not independent of the evaluator: this is its per-component grow from before it grew a
    stage per call, wrapped for the stage sweep, with the same lattice and backup.  The two
    must agree bit for bit, and name the same bid when one is infeasible.
    """
    e, closed_form, ws = discrete._lattice(spec, "evaluate_policy_exact")
    ds = np.arange(e + 1)
    bids: dict[tuple[int, int], np.ndarray] = {}

    def grow(t, mask):
        z = np.broadcast_to(bidder(t, mask, ds), ds.shape)
        ok = (z >= 0) & (z <= ds) & (z == np.floor(z))
        if not ok.all():
            d = int(ok.argmin())  # the first infeasible endowment
            raise ValueError(
                f"policy bid {z[d].item()!r} infeasible at stage {t}, mask {mask}, d {d}")
        bids[t, mask] = z = z.astype(np.int64)
        return bool(z.any()) or not spec.settled(t, mask)

    def backup(t, jobs):
        masks, win, lose = zip(*jobs)
        z = np.array([bids[t, mask] for mask in masks])[..., None]
        return discrete._backup(ws[t], np.array(win), np.array(lose), z)[..., 0]

    return sweep(spec, backup, closed_form, lambda t, masks: [grow(t, mask) for mask in masks])


def per_component_compare(exact, approx, spec: ProblemSpec) -> ErrorReport:
    """compare_solutions with one _maximize_batch call per unsettled component.

    Not independent of the solver: this is the reference that compare_solutions,
    which solves each distinct (win, lose) curve pair of a stage once and stacks
    the pairs, must match exactly.
    """
    lattice = np.arange(exact.endowment + 1, dtype=float)
    value_errs, policy_errs = [], []
    for t in range(exact.n):
        nxt, dist = approx.components[t + 1], spec.distributions[t]
        masks = [m for m in sorted(exact.stage_values[t]) if (t, m) not in exact.settled]
        value_errs.append([relative_sq_error(approx.components[t][m].values(lattice),
                                             exact.stage_values[t][m]) for m in masks])
        policy_errs.append([
            relative_sq_error(continuous._maximize_batch(nxt[m | 1 << t], nxt[m], dist, lattice,
                                                         continuous._MAXIMIZER)[0],
                              exact.stage_bids[t][m].astype(float))
            for m in masks])
    per_stage = [StageErrors(t, *_pooled(v, p))
                 for t, (v, p) in enumerate(zip(value_errs, policy_errs))]
    return ErrorReport(per_stage, *_pooled(sum(value_errs, []), sum(policy_errs, [])))


SOLUTION_HEADERS = {"discrete": ["stage", "holdings_mask", "endowment", "value", "bid", "settled"],
                    "grid": ["stage", "holdings_mask", "endowment", "value", "bid"]}


def csv_bytes(header: list[str], rows) -> bytes:
    """The bytes of a CSV file that csv.writer writes: header, then rows."""
    buf = io.StringIO(newline="")
    out = csv.writer(buf)
    out.writerow(header)
    out.writerows(rows)
    return buf.getvalue().encode()


def discrete_solution_rows(sol):
    """write_discrete_solution's rows: per stored (stage, mask) in ascending order, one
    per endowment; settled and terminal components (no bids) bid 0 and are flagged."""
    layers = zip_longest(sol.stage_values, sol.stage_bids, fillvalue={})
    for t, (layer, stage_bids) in enumerate(layers):
        for mask in sorted(layer):
            bids = stage_bids.get(mask)
            yield from zip(repeat(t), repeat(mask), range(sol.endowment + 1),
                           layer[mask].tolist(), repeat(0) if bids is None else bids.tolist(),
                           repeat(int(bids is None)))


def grid_solution_rows(sol: GridSolution):
    """write_grid_solution's rows: per stored (stage, mask) in ascending order, one per
    knot; settled and terminal components (no knot bids) bid 0.0."""
    for t, layer in enumerate(sol.values.components):
        for mask in sorted(layer):
            comp, bids = layer[mask], sol.knot_bids.get((t, mask))
            yield from zip(repeat(t), repeat(mask), comp.xs, comp.ys,
                           repeat(0.0) if bids is None else bids.tolist())
