"""Monte Carlo auction simulation and solution-quality reports.

Errors between an approximate and an exact solution are squared relative
errors, except that targets below 1 switch to squared absolute error so
near-zero targets do not blow the ratio up.  Policy errors apply the same rule
to bids, normalizing by the exact bid.  Settled states are excluded: both
solvers short-circuit them to the same closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuous import (_MAXIMIZER, CurveStack, HybridValueFunction, _distinct,
                         _maximize_batch, _maximize_pairs, _require_continuous)
from .core import ProblemSpec, mask_holdings, terminal_value
from .discrete import Bidder, DiscreteSolution

_MAX_ROUNDS = 1_000_000  # per collect_rounds call: about 2.1 GB of traces at n = 9


def relative_sq_error(estimate: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise squared relative error, unnormalized where the target is below 1."""
    diff = estimate - target
    return np.where(target >= 1.0, (diff / np.where(target >= 1.0, target, 1.0)) ** 2,
                    diff * diff)


@dataclass
class RoundTrace:
    """Everything observed in one simulated pass through the auction sequence."""

    high_bids: tuple[float, ...]
    bids: tuple[float, ...]
    won: tuple[bool, ...]
    endowments: tuple[float, ...]
    final_holdings: frozenset
    utility: float


def simulate_round(spec: ProblemSpec, bidder: Bidder, seed) -> RoundTrace:
    """Run the n auctions once: round 0 of collect_rounds(spec, bidder, 1, seed)."""
    return collect_rounds(spec, bidder, 1, seed)[0]


def _rows_by_group(group: np.ndarray) -> list[np.ndarray]:
    """The ascending indices of the rounds in each group 0, 1, ..., group.max()."""
    return np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])


def collect_rounds(spec: ProblemSpec, bidder: Bidder, rounds: int, seed) -> list[RoundTrace]:
    """Traces of `rounds` independent passes through the n auctions, at most _MAX_ROUNDS.

    Round r's stage-t high bid is u[r, t] through distributions[t].sample, u =
    default_rng(seed).random((rounds, n)): a trace does not depend on the
    rounds after it, and a lone round draws the doubles of default_rng(seed).
    The rounds advance stage by stage; those holding the same resources share
    one call bidder(t, holdings_mask, endowments), which must bid in
    [0, endowment] for each.  A bid wins only by strictly exceeding the high bid.
    """
    if not 1 <= rounds <= _MAX_ROUNDS:
        raise ValueError("need at least one round" if rounds < 1 else
                         f"rounds: {rounds:,} is above the limit of {_MAX_ROUNDS:,}")
    u = np.random.default_rng(seed).random((rounds, spec.n))
    d, stages = np.full(rounds, float(spec.endowment)), []
    masks, group = [0], np.zeros(rounds, dtype=np.intp)  # holdings of each group; round's group
    for t, dist in enumerate(spec.distributions):
        w, z = dist.sample(u[:, t]).astype(float), np.empty(rounds)
        for mask, rows in zip(masks, _rows_by_group(group)):
            z[rows] = bidder(t, mask, d[rows])
        bad = np.flatnonzero(~((z >= 0.0) & (z <= d + 1e-9)))
        if len(bad):
            raise ValueError(f"bidder returned infeasible bid {float(z[bad[0]])!r} at stage {t}")
        win = z > w
        d = np.where(win, d - np.minimum(z, d), d)
        keys, group = np.unique(2 * group + win, return_inverse=True)
        masks = [masks[k >> 1] | (k & 1) << t for k in keys.tolist()]
        stages.append((w, z, win, d))
    utility = np.empty(rounds)
    for mask, rows in zip(masks, _rows_by_group(group)):
        utility[rows] = terminal_value(mask, d[rows], spec)
    holdings = [mask_holdings(mask) for mask in masks]
    # Zipping a column's per-stage lists gives each round its tuple.
    columns = [zip(*(a.tolist() for a in column)) for column in zip(*stages)]
    return list(map(RoundTrace, *columns, map(holdings.__getitem__, group.tolist()),
                    utility.tolist()))


def summarize_utilities(utilities: list[float]) -> tuple[float, float]:
    """Sample mean and standard error, order-independent."""
    rounds = len(utilities)
    mean = math.fsum(utilities) / rounds
    if rounds == 1:
        return mean, 0.0
    var = math.fsum((u - mean) ** 2 for u in utilities) / (rounds - 1)
    return mean, math.sqrt(var / rounds)


def estimate_policy_value(
    spec: ProblemSpec, bidder: Bidder, rounds: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of a policy's realized utility."""
    return summarize_utilities([tr.utility for tr in collect_rounds(spec, bidder, rounds, seed)])


def constant_bid_policy(z: float) -> Bidder:
    """The bidder that bids min(z, d) at every endowment d."""
    return lambda t, mask, d: np.minimum(z, d)


# table_policy(solution): the bidder that reads a discrete solution's bid tables.
table_policy = DiscreteSolution.policy


def greedy_policy(v: HybridValueFunction, spec: ProblemSpec) -> Bidder:
    """Bidder that maximizes the one-step objective against stored curves; a copy of
    the curve pair per endowment, stacked, makes each bid the one a lone call gives."""
    _require_continuous(spec, "greedy_policy")

    def bidder(t, mask, d):
        d = np.atleast_1d(np.asarray(d, dtype=float))
        bad = np.flatnonzero(~((d >= 0.0) & (d <= v.m + 1e-9)))
        if len(bad):
            raise ValueError(f"endowment {float(d[bad[0]])!r} outside [0, {v.m}]")
        nxt = v.components[t + 1]
        win, lose = (CurveStack([curve] * len(d)) for curve in (nxt[mask | 1 << t], nxt[mask]))
        return _maximize_batch(win, lose, spec.distributions[t], d[:, None], _MAXIMIZER)[0][:, 0]

    return bidder


@dataclass
class StageErrors:
    stage: int
    mean_value_err: float
    max_value_err: float
    mean_policy_err: float
    max_policy_err: float
    states: int


@dataclass
class ErrorReport:
    """Value and greedy-policy deviation of an approximation from exact tables.

    Per-stage rows cover stages 0..n-1; the aggregate pools every compared
    state.  states counts the unpruned (t, holdings, integer endowment)
    triples that entered the comparison.
    """

    per_stage: list[StageErrors]
    mean_value_err: float
    max_value_err: float
    mean_policy_err: float
    max_policy_err: float
    states: int


def compare_solutions(exact: DiscreteSolution, approx: HybridValueFunction,
                      spec: ProblemSpec) -> ErrorReport:
    """One approximation's lattice comparison: compare_all(exact, [approx], spec)[0]."""
    return compare_all(exact, [approx], spec)[0]


def compare_all(exact: DiscreteSolution, approxes: list[HybridValueFunction],
                spec: ProblemSpec) -> list[ErrorReport]:
    """Each approximation's exhaustive state-by-state comparison on the integer endowment
    lattice.  spec is the continuous-mode instance the approximations solved; exact comes
    from its discretized copy.  The states compared are those of the
    unsettled components the exact solve stores, in ascending mask order per
    stage.  For each, the value error pits the interpolated curve against the
    exact value, and the policy error pits the greedy bid recomputed from the
    curves against the exact bid.  Greedy bids solve each stage's distinct (win, lose)
    curve pairs, equal bit for bit across all approximations, once, under the stage's
    distribution, in one maximizer call for all approximations, stages and knot counts
    (G15 on generator instance 1000: 1,302 rows, not 4,991, in 1 call, not 13).
    """
    _require_continuous(spec, "compare_solutions")
    if any(exact.n != approx.n for approx in approxes):
        raise ValueError("stage counts differ between exact and approximate solutions")
    lattice = np.arange(exact.endowment + 1, dtype=float)
    value_errs: list[list[list[np.ndarray]]] = [[] for _ in approxes]  # [approx][t][mask]
    pairs, dists, stages = [], [], []
    for t in range(exact.n):
        masks = [m for m in sorted(exact.stage_values[t]) if (t, m) not in exact.settled]
        stage_pairs = [(nxt[m | 1 << t], nxt[m]) for nxt in
                       (approx.components[t + 1] for approx in approxes) for m in masks]
        firsts, which = _distinct(stage_pairs)
        stages.append((masks, [len(pairs) + g for g in which]))
        pairs += [stage_pairs[i] for i in firsts]
        dists += [spec.distributions[t]] * len(firsts)
        for approx, errs in zip(approxes, value_errs):
            errs.append([relative_sq_error(approx.components[t][m].values(lattice),
                                           exact.stage_values[t][m]) for m in masks])
    greedy = _maximize_pairs(pairs, [lattice] * len(pairs), dists)
    reports = []
    for k, errs in enumerate(value_errs):
        policy_errs = [[relative_sq_error(greedy[g][0], exact.stage_bids[t][m].astype(float))
                        for g, m in zip(which[k * len(masks):], masks)]
                       for t, (masks, which) in enumerate(stages)]
        reports.append(ErrorReport([StageErrors(t, *_pooled(*e)) for t, e in
                                    enumerate(zip(errs, policy_errs))],
                                   *_pooled(sum(errs, []), sum(policy_errs, []))))
    return reports


def _pooled(value_errs: list[np.ndarray], policy_errs: list[np.ndarray]) -> tuple:
    """Mean and max of the pooled value errors, the same for the policy errors, and
    their count; nothing pooled gives zeros, as every error is nonnegative."""
    count = sum(map(len, value_errs))
    stats = []
    for errs in (value_errs, policy_errs):
        pooled = np.concatenate([[], *errs])
        stats += [float(pooled.sum() / max(count, 1)), float(np.max(pooled, initial=0.0))]
    return (*stats, count)
