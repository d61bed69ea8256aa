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
from .core import ProblemSpec
from .discrete import Bidder, DiscreteSolution, _ask

# A collect_rounds batch of R rounds of n auctions counts R * (n + _ROUND_CELLS) cells, at
# most _MAX_CELLS of them.  Each auction of a round takes 33 B (25 B of record and an 8 B
# uniform); each round adds 70 to 260 B of stage vectors and group bookkeeping, the most
# when n is near 20 and every round's holdings differ.  tracemalloc peaks stay under 38 B
# a cell for n from 1 to 100, so a batch stays under 40 B a cell, about 2.0 GB.
_ROUND_CELLS = 4
_MAX_CELLS = 51_000_000


def relative_sq_error(estimate: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise squared relative error, unnormalized where the target is below 1."""
    diff = estimate - target
    return np.where(target >= 1.0, (diff / np.where(target >= 1.0, target, 1.0)) ** 2,
                    diff * diff)


def simulate_round(spec: ProblemSpec, bidder: Bidder, seed) -> np.record:
    """Run the n auctions once: round 0 of collect_rounds(spec, bidder, 1, seed)."""
    return collect_rounds(spec, bidder, 1, seed)[0]


def collect_rounds(spec: ProblemSpec, bidder: Bidder, rounds: int, seed) -> np.recarray:
    """A record per round of `rounds` passes through the n auctions, at most _MAX_CELLS cells.

    high_bids[t], bids[t], won[t] and endowments[t] are stage t's high bid, bid, win and
    the endowment after it; a round holds resource t + 1 exactly when won[t].  Round r's
    stage-t high bid is u[r, t] through distributions[t].sample, u = default_rng(seed)
    .random((rounds, n)): a trace does not depend on the rounds after it, and a lone round
    draws the doubles of default_rng(seed).  The rounds advance stage by stage; those
    holding the same resources share one call bidder(t, holdings_mask, endowments), which
    must bid in [0, endowment] for each.  A bid wins only by strictly exceeding the high bid.
    """
    n = spec.n
    cells = rounds * (n + _ROUND_CELLS)
    if rounds < 1 or cells > _MAX_CELLS:
        raise ValueError("need at least one round" if rounds < 1 else f"rounds: {rounds:,} "
                         f"rounds of {n:,} auctions count {cells:,} cells (n + {_ROUND_CELLS} "
                         f"a round), above the limit of {_MAX_CELLS:,}")
    u = np.random.default_rng(seed).random((rounds, n)).T.copy()  # stage t draws row u[t]
    rec = np.recarray(rounds, [("high_bids", float, (n,)), ("bids", float, (n,)),
                               ("won", bool, (n,)), ("endowments", float, (n,)),
                               ("utility", float)])
    fields = rec.view(np.ndarray)
    columns = [fields[name] for name in ("high_bids", "bids", "won", "endowments")]
    d, z = np.full(rounds, float(spec.endowment)), np.empty(rounds)
    # Group g holds masks[g] and round r is in group[r]; a stable sort of the narrowest ids
    # (radix for 16 bits) lists group g's rounds, ascending, at order[bounds[g]:bounds[g + 1]].
    masks, bounds, group = [0], [0, rounds], np.zeros(rounds, dtype=np.intp)
    for t, dist in enumerate(spec.distributions):
        w = dist.sample(u[t]).astype(float)
        order = group.astype(np.min_scalar_type(len(masks) - 1)).argsort(kind="stable")
        for mask, a, b in zip(masks, bounds, bounds[1:]):
            r = order[a:b]
            z[r] = _ask(bidder, t, mask, d[r])
        ok = (z >= 0.0) & (z <= d + 1e-9)
        if not ok.all():
            raise ValueError(f"bidder returned infeasible bid {float(z[~ok][0])!r} at stage {t}")
        win = z > w
        d = np.where(win, d - np.minimum(z, d), d)
        for column, value in zip(columns, (w, z, win, d)):
            column[:, t] = value
        # Split each group by this stage's win: the groups that follow are numbered by
        # ascending key = 2 group + win, each group's losers before its winners.
        key = 2 * group + win
        count = np.bincount(key, minlength=2 * len(masks))
        keys = count.nonzero()[0]
        group = ((count > 0).cumsum() - 1)[key]
        bounds = [0, *count[keys].cumsum().tolist()]
        masks = [masks[k >> 1] | (k & 1) << t for k in keys.tolist()]
    # Feasible bids keep d in [0, endowment], so this is terminal_value's sum, bit for bit.
    bundle_values = np.array([spec.bundle_value(mask) for mask in masks])
    fields["utility"] = bundle_values[group] + spec.residual.values(d)
    return rec


def _python_floats(values: np.ndarray):
    """The elements of a float array as Python floats, converted 65,536 at a time."""
    for i in range(0, len(values), 1 << 16):
        yield from values[i:i + (1 << 16)].tolist()


def summarize_utilities(utilities) -> tuple[float, float]:
    """Sample mean and standard error of a list or array of utilities, order-independent."""
    utilities = np.asarray(utilities, dtype=float)
    rounds = len(utilities)
    mean = math.fsum(_python_floats(utilities)) / rounds
    if rounds == 1:
        return mean, 0.0
    var = math.fsum((u - mean) ** 2 for u in _python_floats(utilities)) / (rounds - 1)
    return mean, math.sqrt(var / rounds)


def estimate_policy_value(
    spec: ProblemSpec, bidder: Bidder, rounds: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of a policy's realized utility."""
    return summarize_utilities(collect_rounds(spec, bidder, rounds, seed).utility)


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
    (G15 on generator instance 1000: 1,302 rows, not 4,991, in 1 call, not 13).  Stages are
    scored as (approximations, masks, e + 1) arrays, each distinct curve object read once.
    """
    _require_continuous(spec, "compare_solutions")
    if any(exact.n != approx.n for approx in approxes):
        raise ValueError("stage counts differ between exact and approximate solutions")
    lattice = np.arange(exact.endowment + 1, dtype=float)
    pairs, dists, stages = [], [], []
    for t in range(exact.n):
        masks = sorted(exact.stage_bids[t])
        shape = (len(approxes), len(masks), len(lattice))
        stage_pairs = [(nxt[m | 1 << t], nxt[m]) for nxt in
                       (approx.components[t + 1] for approx in approxes) for m in masks]
        firsts, which = _distinct(stage_pairs)
        curves = [approx.components[t][m] for approx in approxes for m in masks]
        read = {id(c): c.values(lattice) for c in {id(c): c for c in curves}.values()}
        values, bids = (np.array([table[t][m] for m in masks], dtype=float).reshape(shape[1:])
                        for table in (exact.stage_values, exact.stage_bids))
        stages.append((np.array(which, dtype=np.intp) + len(pairs), bids, relative_sq_error(
            np.array([read[id(c)] for c in curves]).reshape(shape), values)))
        pairs += [stage_pairs[i] for i in firsts]
        dists += [spec.distributions[t]] * len(firsts)
    greedy = np.array([z for z, _ in _maximize_pairs(pairs, [lattice] * len(pairs), dists)])
    errs = [(v, relative_sq_error(greedy.reshape(-1, len(lattice))[which].reshape(v.shape), bids))
            for which, bids, v in stages]
    return [ErrorReport([StageErrors(t, *_pooled([v[k].ravel()], [p[k].ravel()]))
                         for t, (v, p) in enumerate(errs)],
                        *_pooled([v[k].ravel() for v, _ in errs], [p[k].ravel() for _, p in errs]))
            for k in range(len(approxes))]


def _pooled(value_errs: list[np.ndarray], policy_errs: list[np.ndarray]) -> tuple:
    """Mean and max of the pooled value errors, the same for the policy errors, and
    their count; nothing pooled gives zeros, as every error is nonnegative."""
    count = sum(map(len, value_errs))
    stats = []
    for errs in (value_errs, policy_errs):
        pooled = np.concatenate([[], *errs])
        stats += [float(pooled.sum() / max(count, 1)), float(np.max(pooled, initial=0.0))]
    return (*stats, count)
