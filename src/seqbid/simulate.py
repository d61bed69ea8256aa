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

from .continuous import HybridValueFunction, MaximizerConfig, _maximize_batch, greedy_bid
from .core import (
    ProblemSpec,
    ensure_valid,
    mask_holdings,
    terminal_value,
)
from .discrete import DiscreteSolution

Bidder = Callable[[int, frozenset, float], float]


def relative_sq_error(estimate: float, target: float) -> float:
    """Squared relative error, unnormalized when the target is below 1."""
    if target >= 1.0:
        return ((estimate - target) / target) ** 2
    return (estimate - target) ** 2


def _relative_sq_error_vec(estimate: np.ndarray, target: np.ndarray) -> np.ndarray:
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

    bidder(t, holdings, endowment) must return a bid in [0, endowment].  A bid
    wins only by strictly exceeding the sampled high bid.
    """
    ensure_valid(spec)
    rng = np.random.default_rng(seed)
    held = 0
    d = float(spec.endowment)
    high_bids, bids, won, endowments = [], [], [], []
    for t in range(spec.n):
        w = float(spec.distributions[t].sample(rng))
        z = float(bidder(t, mask_holdings(held), d))
        if z < 0 or z > d + 1e-9:
            raise ValueError(f"bidder returned infeasible bid {z!r} at stage {t}")
        win = z > w
        if win:
            held |= 1 << t
            d -= min(z, d)
        high_bids.append(w)
        bids.append(z)
        won.append(win)
        endowments.append(d)
    return RoundTrace(
        tuple(high_bids),
        tuple(bids),
        tuple(won),
        tuple(endowments),
        mask_holdings(held),
        terminal_value(held, d, spec),
    )


def collect_rounds(
    spec: ProblemSpec, bidder: Bidder, rounds: int, seed: int
) -> list[RoundTrace]:
    """Traces of `rounds` independent simulations.

    Round r runs on its own substream derived from (seed, r), so results are
    reproducible and insensitive to batching.
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
    def bidder(t, held, d):
        return min(z, d)

    return bidder


def table_policy(solution: DiscreteSolution) -> Bidder:
    """Bidder backed by a discrete solution's bid tables (integer endowments)."""
    bid = solution.bid

    def bidder(t, held, d):
        return bid(t, held, int(round(d)))

    return bidder


def greedy_policy(
    v: HybridValueFunction, spec: ProblemSpec, cfg: MaximizerConfig = MaximizerConfig()
) -> Bidder:
    """Bidder that maximizes the one-step objective against stored curves."""
    def bidder(t, held, d):
        return greedy_bid(v, held, d, t, spec.distributions[t], cfg)

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
    exact: DiscreteSolution,
    approx: HybridValueFunction,
    spec: ProblemSpec,
    cfg: MaximizerConfig = MaximizerConfig(),
) -> ErrorReport:
    """Exhaustive state-by-state comparison on the integer endowment lattice.

    spec is the continuous-mode instance the approximation solved; exact comes
    from its discretized copy.  The states compared are those of the
    unsettled components the exact solve stores, in ascending mask order per
    stage.  For each, the value error pits the interpolated curve against the
    exact value, and the policy error pits the greedy bid recomputed from the
    curves against the exact bid.
    """
    if exact.n != approx.n:
        raise ValueError("stage counts differ between exact and approximate solutions")
    n = exact.n
    e = exact.endowment
    lattice = np.arange(e + 1, dtype=float)

    per_stage: list[StageErrors] = []
    all_value: list[np.ndarray] = []
    all_policy: list[np.ndarray] = []
    for t in range(n):
        stage_value: list[np.ndarray] = []
        stage_policy: list[np.ndarray] = []
        dist = spec.distributions[t]
        nxt = approx.components[t + 1]
        for mask in sorted(exact.stage_values[t]):
            if (t, mask) in exact.settled:
                continue
            exact_vals = exact.stage_values[t][mask]
            exact_bids = exact.stage_bids[t][mask].astype(float)
            approx_vals = approx.components[t][mask].values(lattice)
            greedy, _ = _maximize_batch(nxt[mask | (1 << t)], nxt[mask], dist, lattice, cfg)
            stage_value.append(_relative_sq_error_vec(approx_vals, exact_vals))
            stage_policy.append(_relative_sq_error_vec(greedy, exact_bids))
        if not stage_value:
            per_stage.append(StageErrors(t, 0.0, 0.0, 0.0, 0.0, 0))
            continue
        sv = np.concatenate(stage_value)
        sp = np.concatenate(stage_policy)
        per_stage.append(StageErrors(t, float(sv.mean()), float(sv.max()),
                                     float(sp.mean()), float(sp.max()), len(sv)))
        all_value.append(sv)
        all_policy.append(sp)

    if all_value:
        av = np.concatenate(all_value)
        ap = np.concatenate(all_policy)
        return ErrorReport(per_stage, float(av.mean()), float(av.max()),
                           float(ap.mean()), float(ap.max()), len(av))
    return ErrorReport(per_stage, 0.0, 0.0, 0.0, 0.0, 0)
