"""Exact solver for discrete-mode auction sequences.

States are (stage, holdings, integer endowment).  A state whose holdings can
no longer be improved by any affordable future bundle is settled: its value is
the terminal payoff of standing pat and its optimal bid is 0.  Later holdings
that extend settled ones are settled too, so every unsettled component is
reachable from (0, 0) through unsettled ones.  `sweep`, the package's one
backward pass, backs up only those and takes settled and terminal successors
in closed form: work grows with the unsettled components, not with 2^n.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Union

import numpy as np

from .core import (
    BidDistribution,
    BundleValueTable,
    MODE_DISCRETE,
    ProblemSpec,
    ensure_valid,
    holdings_mask,
)

Policy = Callable[[int, int, int], int]


class Layer(dict):
    """One stage's stored components, keyed by holdings mask.

    Looking up any other mask below `size` returns closed_form(mask) without
    storing it; iterating yields only the stored components.
    """

    def __init__(self, stored: Mapping, size: int, closed_form: Callable):
        super().__init__(stored)
        self.size, self.closed_form = size, closed_form

    def __missing__(self, mask):
        if not 0 <= mask < self.size:
            raise KeyError(mask)
        return self.closed_form(mask)


class Settled(Set):
    """The settled (stage, mask) pairs of stages 0..n-1: all but `unsettled`."""

    def __init__(self, n: int, unsettled: Iterable[tuple[int, int]]):
        self.n, self.unsettled = n, frozenset(unsettled)

    def __contains__(self, key) -> bool:
        t, mask = key
        return 0 <= t < self.n and 0 <= mask < 1 << t and key not in self.unsettled

    def __len__(self) -> int:
        return (1 << self.n) - 1 - len(self.unsettled)

    def __iter__(self):
        return ((t, mask) for t in range(self.n) for mask in range(1 << t)
                if (t, mask) not in self.unsettled)


@dataclass
class DiscreteSolution:
    """Value and bid tables per (stage, holdings mask, endowment).

    stage_values[t][mask] is a vector over endowments 0..e for every mask
    below 2^t, t in 0..n; stage_bids covers t in 0..n-1.  A solve stores the
    values of the components its sweep reached, every unsettled one plus the
    settled and terminal successors they read, and the bids of the unsettled
    ones.  A lookup of any other mask answers it in closed form (bundle value
    plus residual utility, bid 0).  settled holds the settled (t, mask) pairs
    with t < n; state_count counts the (t, mask, d) triples of unsettled
    components.
    """

    n: int
    endowment: int
    stage_values: list[dict[int, np.ndarray]]
    stage_bids: list[dict[int, np.ndarray]]
    settled: Set
    state_count: int

    def value(self, t: int, held: Union[int, Iterable[int]], d: int) -> float:
        return float(self.stage_values[t][holdings_mask(held)][d])

    def bid(self, t: int, held: Union[int, Iterable[int]], d: int) -> int:
        return int(self.stage_bids[t][holdings_mask(held)][d])

    def policy(self) -> Policy:
        def bidder(t: int, mask: int, d: int) -> int:
            return int(self.stage_bids[t][mask][d])

        return bidder


def _settled_test(spec: ProblemSpec) -> Callable[[int, int], bool]:
    """settled(t, mask): no still-completable bundle beats the current bundle value."""
    table = BundleValueTable(spec.bundles)
    pairs = [(b.mask, b.value) for b in spec.bundles]
    every = (1 << spec.n) - 1

    def settled(t: int, mask: int) -> bool:
        reachable = mask | (every & ~((1 << t) - 1))
        current = table.value(mask)
        return all(v <= current or bmask & reachable != bmask for bmask, v in pairs)

    return settled


def is_settled(held: Union[int, Iterable[int]], t: int, spec: ProblemSpec) -> bool:
    """True when no still-completable bundle beats the current bundle value."""
    return _settled_test(spec)(t, holdings_mask(held))


def sweep(n: int, grow, backup, leaf) -> list[dict]:
    """Results for the components reachable from (0, 0), last stage first.

    The forward pass asks grow(t, mask) about each component it reaches below
    stage n: None makes it a leaf, like every stage-n component; otherwise it
    reaches the lose successor (t + 1, mask), and the win successor
    (t + 1, mask | 1 << t) too if grow returned True.  A stage that grows
    nothing passes on its smallest mask, so no stage is empty.  The backward
    pass sets each reached component to leaf(mask), the closed form, or if it
    grew to its result from backup(t, jobs), which backs up a whole stage: jobs
    lists (mask, win, lose) for its grown components in ascending mask order,
    win None when not reached.  Returns one dict of results per stage 0..n.
    """
    plan: list[list[tuple[int, Optional[bool]]]] = []
    frontier = [0]
    for t in range(n):
        plan.append([(mask, grow(t, mask)) for mask in frontier])
        reached = {mask for mask, wins in plan[t] if wins is not None}
        reached.update(mask | 1 << t for mask, wins in plan[t] if wins)
        frontier = sorted(reached) or frontier[:1]
    results = [dict() for _ in range(n)] + [{mask: leaf(mask) for mask in frontier}]
    for t in range(n - 1, -1, -1):
        nxt = results[t + 1]
        jobs = [(mask, nxt[mask | 1 << t] if wins else None, nxt[mask])
                for mask, wins in plan[t] if wins is not None]
        done = iter(backup(t, jobs))
        results[t] = {mask: leaf(mask) if wins is None else next(done) for mask, wins in plan[t]}
    return results


def backup_state_discrete(
    held: Union[int, Iterable[int]],
    d: int,
    t: int,
    next_values: Mapping[int, np.ndarray],
    dist: BidDistribution,
) -> tuple[float, int]:
    """One-state optimal backup: value and the smallest maximizing bid.

    next_values maps stage-(t+1) holdings masks to value vectors over
    endowments.  Bids z run over 0..d; winning costs z and adds resource
    t + 1, losing keeps the state.
    """
    mask = holdings_mask(held)
    if d < 0:
        raise ValueError("endowment must be nonnegative")
    win_next = np.asarray(next_values[mask | (1 << t)], dtype=float)
    lose_next = np.asarray(next_values[mask], dtype=float)
    w = np.array([dist.win_probability(z) for z in range(d + 1)])
    q = w * win_next[d::-1] + (1.0 - w) * lose_next[d]
    z = int(np.argmax(q))
    return float(q[z]), z


def _lattice(spec: ProblemSpec, caller: str):
    """Endowment e, closed-form value by mask, and win probabilities per stage."""
    ensure_valid(spec)
    if spec.mode != MODE_DISCRETE:
        raise ValueError(f"{caller} needs a discrete-mode spec")
    e = int(round(spec.endowment))
    table = BundleValueTable(spec.bundles)
    f_vals = spec.residual.values(np.arange(e + 1, dtype=float))
    ws = [np.array([dist.win_probability(z) for z in range(e + 1)])
          for dist in spec.distributions]
    return e, lambda mask: table.value(mask) + f_vals, ws


def solve_discrete(spec: ProblemSpec) -> DiscreteSolution:
    """Optimal values and bids for every state of a discrete spec."""
    e, closed_form, ws = _lattice(spec, "solve_discrete")
    n = spec.n
    no_bids = np.zeros(e + 1, dtype=np.int64)
    no_bids.flags.writeable = False
    stage_bids: list[dict[int, np.ndarray]] = [dict() for _ in range(n)]

    # Lower-triangular index helpers shared by every state: IDX[d, z] = d - z
    # when z <= d, and TRI masks the infeasible bids out.
    zs = np.arange(e + 1)
    tri = zs[None, :] <= zs[:, None]
    idx = np.where(tri, zs[:, None] - zs[None, :], 0)

    def backup(t, mask, win_next, lose_next):
        w = ws[t]
        q = w[None, :] * win_next[idx] + (1.0 - w[None, :]) * lose_next[:, None]
        q[~tri] = -np.inf
        bids = q.argmax(axis=1)
        stage_bids[t][mask] = bids.astype(np.int64)
        return q[zs, bids]

    settled = _settled_test(spec)
    values = sweep(n, lambda t, mask: None if settled(t, mask) else True,
                   lambda t, jobs: [backup(t, *job) for job in jobs], closed_form)
    unsettled = [(t, mask) for t, layer in enumerate(stage_bids) for mask in layer]
    return DiscreteSolution(
        n, e, [Layer(layer, 1 << t, closed_form) for t, layer in enumerate(values)],
        [Layer(layer, 1 << t, lambda mask: no_bids) for t, layer in enumerate(stage_bids)],
        Settled(n, unsettled), len(unsettled) * (e + 1))


def evaluate_policy_exact(
    spec: ProblemSpec, policy: Policy
) -> list[dict[int, np.ndarray]]:
    """Exact expected value of an arbitrary bid policy at every state it visits.

    policy(t, holdings_mask, d) must return an integer bid in 0..d.  The sweep
    starts at (0, 0); each visited component leads to its lose successor, and
    to its win successor too when it is unsettled or the policy bids more than
    0 there at some endowment (a zero bid never wins).  Returns value tables
    shaped like DiscreteSolution.stage_values over the visited components,
    which include every component a solve_discrete result stores.
    """
    e, closed_form, ws = _lattice(spec, "evaluate_policy_exact")
    settled = _settled_test(spec)
    ds = np.arange(e + 1)
    bids: dict[tuple[int, int], np.ndarray] = {}

    def grow(t, mask):
        zs = []
        for d in range(e + 1):
            z = policy(t, mask, d)
            if not 0 <= z <= d or int(z) != z:
                raise ValueError(
                    f"policy bid {z!r} infeasible at stage {t}, mask {mask}, d {d}"
                )
            zs.append(int(z))
        bids[t, mask] = np.array(zs, dtype=np.int64)
        return any(zs) or not settled(t, mask)

    def backup(t, mask, win_next, lose_next):
        z = bids[t, mask]
        w = ws[t][z]
        win_next = lose_next if win_next is None else win_next
        return w * win_next[ds - z] + (1.0 - w) * lose_next

    return sweep(spec.n, grow, lambda t, jobs: [backup(t, *job) for job in jobs], closed_form)
