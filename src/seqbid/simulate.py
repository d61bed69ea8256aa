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
from typing import Callable

import numpy as np

from .continuous import _MAXIMIZER, HybridValueFunction, _maximize_batch, _maximize_pairs
from .core import ProblemSpec, mask_holdings, terminal_value
from .discrete import DiscreteSolution

Bidder = Callable[[int, int, float], float]


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
    """Run the n auctions once, sampling one high bid per auction.

    bidder(t, holdings_mask, endowment) must return a bid in [0, endowment].
    A bid wins only by strictly exceeding the sampled high bid.
    """
    rng = np.random.default_rng(seed)
    held, d, stages = 0, float(spec.endowment), []
    for t in range(spec.n):
        w = float(spec.distributions[t].sample(rng))
        z = float(bidder(t, held, d))
        if not 0 <= z <= d + 1e-9:
            raise ValueError(f"bidder returned infeasible bid {z!r} at stage {t}")
        win = z > w
        if win:
            held |= 1 << t
            d -= min(z, d)
        stages.append((w, z, win, d))
    # Transposed, the stages give the high bids, bids, wins and endowments.
    return RoundTrace(*zip(*stages), mask_holdings(held), terminal_value(held, d, spec))


def collect_rounds(
    spec: ProblemSpec, bidder: Bidder, rounds: int, seed: int
) -> list[RoundTrace]:
    """Traces of `rounds` independent simulations.

    Round r runs on its own generator, default_rng(SeedSequence((seed, r))),
    so results are reproducible and insensitive to batching.  It draws one
    double per stage, in stage order.  A multinomial stage inverts it through
    the table numpy's Generator.choice builds from the stage's probabilities,
    so every draw equals that of earlier versions, which called choice itself.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    return [
        simulate_round(spec, bidder, np.random.SeedSequence((seed, r)))
        for r in range(rounds)
    ]


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
    traces = collect_rounds(spec, bidder, rounds, seed)
    return summarize_utilities([tr.utility for tr in traces])


def constant_bid_policy(z: float) -> Bidder:
    def bidder(t, mask, d):
        return min(z, d)

    return bidder


def table_policy(solution: DiscreteSolution) -> Bidder:
    """Bidder backed by a discrete solution's bid tables (integer endowments)."""
    stage_bids = solution.stage_bids

    def bidder(t, mask, d):
        return stage_bids[t][mask][int(round(d))]

    return bidder


def greedy_policy(v: HybridValueFunction, spec: ProblemSpec) -> Bidder:
    """Bidder that maximizes the one-step objective against stored curves."""
    def bidder(t, mask, d):
        if not 0.0 <= d <= v.m + 1e-9:
            raise ValueError(f"endowment {d!r} outside [0, {v.m}]")
        nxt = v.components[t + 1]
        zs, _ = _maximize_batch(nxt[mask | 1 << t], nxt[mask], spec.distributions[t],
                                np.array([d]), _MAXIMIZER)
        return float(zs[0])

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


def compare_solutions(
    exact: DiscreteSolution, approx: HybridValueFunction, spec: ProblemSpec
) -> ErrorReport:
    """Exhaustive state-by-state comparison on the integer endowment lattice.

    spec is the continuous-mode instance the approximation solved; exact comes
    from its discretized copy.  The states compared are those of the
    unsettled components the exact solve stores, in ascending mask order per
    stage.  For each, the value error pits the interpolated curve against the
    exact value, and the policy error pits the greedy bid recomputed from the
    curves (one maximizer call per stage and knot layout) against the exact bid.
    """
    if exact.n != approx.n:
        raise ValueError("stage counts differ between exact and approximate solutions")
    lattice = np.arange(exact.endowment + 1, dtype=float)
    value_errs: list[list[np.ndarray]] = []
    policy_errs: list[list[np.ndarray]] = []
    for t in range(exact.n):
        nxt = approx.components[t + 1]
        masks = [m for m in sorted(exact.stage_values[t]) if (t, m) not in exact.settled]
        greedy = _maximize_pairs([(nxt[m | 1 << t], nxt[m]) for m in masks],
                                 [lattice] * len(masks), spec.distributions[t])
        value_errs.append([relative_sq_error(approx.components[t][m].values(lattice),
                                             exact.stage_values[t][m]) for m in masks])
        policy_errs.append([relative_sq_error(zs, exact.stage_bids[t][m].astype(float))
                            for (zs, _), m in zip(greedy, masks)])
    per_stage = [StageErrors(t, *_pooled(v, p))
                 for t, (v, p) in enumerate(zip(value_errs, policy_errs))]
    return ErrorReport(per_stage, *_pooled(sum(value_errs, []), sum(policy_errs, [])))


def _pooled(value_errs: list[np.ndarray], policy_errs: list[np.ndarray]) -> tuple:
    """Mean and max of the pooled value errors, the same for the policy errors, and
    their count; nothing pooled gives zeros, as every error is nonnegative."""
    count = sum(map(len, value_errs))
    stats = []
    for errs in (value_errs, policy_errs):
        pooled = np.concatenate([[], *errs])
        stats += [float(pooled.sum() / max(count, 1)), float(np.max(pooled, initial=0.0))]
    return (*stats, count)
