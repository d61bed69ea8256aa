"""Independent oracles and random instance builders for the test suite.

Everything here recomputes results from raw problem data (bundle member
lists, residual knot arrays, scipy's normal CDF) without going through the
solver code under test, so agreement between the two is evidence rather
than tautology.  The one exception is per_knot_grid, a reference loop that
reuses the solver's parts to pin how solve_grid schedules its refiners.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from seqbid import continuous
from seqbid.continuous import GridSolution, UniformFixed, Vg1
from seqbid.core import (
    Bundle,
    DiscreteMultinomial,
    ProblemSpec,
    TruncatedGaussian,
)
from seqbid.discrete import sweep
from seqbid.pwl import PwlFunction, vg1_refine, vg2_refine
from seqbid.simulate import RoundTrace


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
        for p in dist.probs:
            acc.append(acc[-1] + p)
        below.append(acc)
    return n, e, terminal, below


def expectimax(spec: ProblemSpec) -> tuple[dict, dict]:
    """Brute-force optimal values and smallest optimal bids, state by state.

    Plain recursion over (stage, holdings mask, integer endowment) with an
    exhaustive scan of every integer bid; win probabilities and terminal
    utilities are rebuilt from the raw problem data.  Stage t only carries
    masks over the resources already auctioned, i.e. mask < 2**t.
    """
    n, e, terminal, below = _raw(spec)
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


def reference_rounds(spec: ProblemSpec, solution, rounds: int, seed: int) -> list[RoundTrace]:
    """Monte Carlo traces of a discrete solution's bid tables, drawn as seqbid
    has always drawn them.

    Round r runs on default_rng(SeedSequence((seed, r))).  Each stage draws
    its high bid with rng.choice(len(probs), p=probs), then bids
    solution.bid(t, holdings, round(d)); a bid wins by strictly exceeding the
    high bid.  The utility is rebuilt from the raw bundle and residual data.
    """
    n, _, terminal, _ = _raw(spec)
    traces = []
    for r in range(rounds):
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        held, d = 0, float(spec.endowment)
        high_bids, bids, won, endowments = [], [], [], []
        for t, dist in enumerate(spec.distributions):
            w = float(rng.choice(len(dist.probs), p=dist.probs))
            z = float(solution.bid(t, held, int(round(d))))
            win = z > w
            if win:
                held |= 1 << t
                d -= min(z, d)
            high_bids.append(w)
            bids.append(z)
            won.append(win)
            endowments.append(d)
        traces.append(RoundTrace(
            tuple(high_bids), tuple(bids), tuple(won), tuple(endowments),
            frozenset(i + 1 for i in range(n) if held >> i & 1), terminal(held, d)))
    return traces


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

    layers = sweep(spec.n, lambda t, mask: None if spec.settled(t, mask) else True, backup,
                   closed_form)
    return continuous._grid_solution(spec, closed_form, layers, knot_bids)
