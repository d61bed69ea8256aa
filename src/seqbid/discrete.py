"""Exact solver for discrete-mode auction sequences.

States are (stage, holdings, integer endowment).  A state whose holdings can no longer be
improved by any affordable future bundle is settled: its value is the terminal payoff of
standing pat and its optimal bid is 0.  Later holdings that extend settled ones are settled
too, so every unsettled component is reachable from (0, 0) through unsettled ones.  `sweep`,
the package's one backward pass, backs up only those and takes settled and terminal
successors in closed form: work grows with the unsettled components, not with 2^n.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Union

import numpy as np

from .core import MODE_DISCRETE, ProblemSpec, _tagged, holdings_mask

# bidder(t, holdings_mask, endowments) -> a bid per endowment, or one bid for them all.
Bidder = Callable[[int, int, np.ndarray], np.ndarray]

# _lattice refuses an endowment above this before it allocates anything, so the exact
# solver, the exact evaluator and the discrete solution reader refuse it alike.
_MAX_ENDOWMENT = 4_000
# Scores per stacked block of backups in either solver; bigger blocks mostly add memory.
_MAX_STACK_CELLS = 16_384
# Most components a sweep's plan reaches, stage n's included: tests and benchmarks reach a
# few hundred, a 30-resource generator instance 749,631 (441,235 unsettled; 747 MB).
_MAX_COMPONENTS = 400_000


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

    stage_values[t][mask] is a vector over endowments 0..e for every mask below 2^t, t in
    0..n; stage_bids covers t in 0..n-1.  A solve stores the values of the components its
    sweep reached, every unsettled one plus the settled and terminal successors they read,
    and the bids of the unsettled ones.  A lookup of any other mask answers it in closed form
    (bundle value plus residual utility, bid 0).  settled holds the settled (t, mask) pairs
    with t < n; state_count counts the (t, mask, d) triples of unsettled components.
    """

    n: int
    endowment: int
    stage_values: list[dict[int, np.ndarray]]
    stage_bids: list[dict[int, np.ndarray]]
    settled: Set
    state_count: int

    def value(self, t: int, held: Union[int, Iterable[int]], d: int) -> float:
        return float(self._at(self.stage_values, t, held, d))

    def bid(self, t: int, held: Union[int, Iterable[int]], d: int) -> int:
        return int(self._at(self.stage_bids, t, held, d))

    def _at(self, tables: list, t: int, held, d: int):
        """tables[t][mask][d], refusing a stage, mask or endowment outside the tables, which
        a negative index would count back from the end, and an endowment not an integer."""
        if not 0 <= t < len(tables):
            raise ValueError(f"t: stage {t} is outside 0..{len(tables) - 1}")
        mask = _stage_mask(t, held)
        if not isinstance(d, (int, np.integer)):
            raise ValueError(f"d: endowment {d} is not an integer")
        if not 0 <= d <= self.endowment:
            raise ValueError(f"d: endowment {d} is outside 0..{self.endowment}")
        return tables[t][mask][d]

    def policy(self) -> Bidder:
        """The bidder that bids from these tables: integer endowments, which
        evaluate_policy_exact passes, index them as they come; others, which collect_rounds
        passes, are rounded to an integer first."""
        stage_bids = self.stage_bids
        return lambda t, mask, d: stage_bids[t][mask][
            d if np.asarray(d).dtype.kind in "iu" else np.rint(d).astype(np.intp)]


def _stage_mask(t: int, held: Union[int, Iterable[int]]) -> int:
    """holdings_mask(held), refused with a held: tag unless one of stage t's masks 0..2^t - 1."""
    mask = held if isinstance(held, (int, np.integer)) else _tagged("held: ", holdings_mask, held)
    if not 0 <= mask < 1 << t:
        raise ValueError(f"held: mask {mask} is outside 0..{(1 << t) - 1} at stage {t}")
    return int(mask)


def _settled_plan(spec: ProblemSpec):
    """sweep's default grow, the solvers' plan: a settled component is a leaf."""
    return lambda t, masks: [None if spec.settled(t, m) else True for m in masks]


def sweep(spec: ProblemSpec, backup, leaf, grow=None) -> list[dict]:
    """Results for the components of spec reachable from (0, 0), last stage first.

    The forward pass asks grow(t, masks), by default _settled_plan(spec), once per stage
    t < n with the masks it reaches there in ascending order, for one answer per mask: None
    makes that one a leaf, like every stage-n component; anything else reaches the lose
    successor (t + 1, mask), and True the win successor (t + 1, mask | 1 << t) too.  A stage
    that grows nothing passes on its smallest mask, so no stage is empty.  The backward pass
    sets each reached component to leaf(mask), or if it grew to its result from backup(t,
    jobs), which backs up a whole stage: jobs lists (mask, win, lose) for its grown
    components in ascending mask order, win being lose when not reached.  Returns one dict
    per stage 0..n; a plan is refused as soon as it reaches more than _MAX_COMPONENTS.
    """
    grow = grow or _settled_plan(spec)
    plan: list[list[tuple[int, Optional[bool]]]] = []
    frontier, total = [0], 1
    for t in range(spec.n):
        plan.append(list(zip(frontier, grow(t, frontier), strict=True)))
        frontier = sorted({mask | won << t for mask, wins in plan[t] if wins is not None
                           for won in (0, wins)}) or frontier[:1]
        total += len(frontier)
        if total > _MAX_COMPONENTS:
            raise ValueError(f"n: the solve reaches {total:,} components by stage {t + 1}, "
                             f"above the limit of {_MAX_COMPONENTS:,}")
    results = [dict() for _ in range(spec.n)] + [{mask: leaf(mask) for mask in frontier}]
    for t in range(spec.n - 1, -1, -1):
        jobs = [(mask, results[t + 1][mask | 1 << t if wins else mask], results[t + 1][mask])
                for mask, wins in plan[t] if wins is not None]
        done = iter(backup(t, jobs))
        results[t] = {mask: leaf(mask) if wins is None else next(done) for mask, wins in plan[t]}
    return results


def _ask(bidder: Bidder, t: int, mask: int, d: np.ndarray) -> np.ndarray:
    """bidder(t, mask, d) as one number per endowment of d, in the bidder's own dtype; an
    answer that is neither one number nor one per endowment is refused."""
    z = np.asarray(bidder(t, mask, d))
    if z.shape == d.shape and z.dtype.kind in "biuf":
        return z
    if z.dtype.kind not in "biuf" or z.shape not in ((), (1,)):
        got = repr(z.item()) if z.ndim == 0 else f"an array of shape {z.shape}, dtype {z.dtype}"
        raise ValueError(f"bidder: {got} at stage {t}, mask {mask} is neither one bid nor one "
                         f"per endowment asked ({len(d)})")
    return np.full(d.shape, z)


def _lattice(spec: ProblemSpec, caller: str):
    """Endowment e, closed-form value by mask, and win probabilities per stage; the residual
    is read at 0..e as its running maximum, so that no table dips in d."""
    if spec.mode != MODE_DISCRETE:
        raise ValueError(f"{caller} needs a discrete-mode spec")
    e = int(round(spec.endowment))
    if e > _MAX_ENDOWMENT:
        raise ValueError(f"endowment: {e:,} is above the lattice limit of {_MAX_ENDOWMENT:,}")
    f_vals = np.maximum.accumulate(spec.residual.values(np.arange(e + 1, dtype=float)))
    ws = [dist.win_probability_vec(np.arange(e + 1)) for dist in spec.distributions]
    return e, lambda mask: spec.bundle_value(mask) + f_vals, ws


def _backup(w: np.ndarray, win: np.ndarray, lose: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Bellman backup w[z]·win[d − z] + (1 − w[z])·lose[d] of each stacked row of win
    and lose at each endowment d = 0..e, for bids z[row, d, k] broadcast over rows and
    endowments: one bid per d (k = 1), or k candidates; a bid above d scores −inf."""
    d = np.arange(win.shape[-1])[:, None]
    p = w[z]
    q = p * win[np.arange(len(win))[:, None, None], d - z] + (1.0 - p) * lose[:, :, None]
    return np.where(z <= d, q, -np.inf)


def solve_discrete(spec: ProblemSpec) -> DiscreteSolution:
    """Optimal values and first best bids for every state of a discrete spec.  A bid from
    len(probs) up wins as surely and pays more, so a stage scans bids 0..min(d, len(probs))."""
    e, closed_form, ws = _lattice(spec, "solve_discrete")
    n, ds = spec.n, np.arange(e + 1)
    stage_bids: list[dict[int, np.ndarray]] = [dict() for _ in range(n)]

    def backup(t, jobs):
        masks, win, lose = zip(*jobs)
        win, lose = np.array(win), np.array(lose)
        band = min(len(spec.distributions[t].probs), e)
        step = max(1, _MAX_STACK_CELLS // ((band + 1) * (e + 1)))
        for i in range(0, len(jobs), step):
            q = _backup(ws[t], win[i:i + step], lose[i:i + step], ds[None, None, :band + 1])
            bids = q.argmax(axis=-1)
            stage_bids[t].update(zip(masks[i:i + step], bids.astype(np.int64)))
            yield from q[np.arange(len(q))[:, None], ds, bids]

    return _solution(n, e, closed_form, sweep(spec, backup, closed_form), stage_bids)


def _solution(n: int, e: int, closed_form: Callable, values: list[dict],
              bids: list[dict]) -> DiscreteSolution:
    """The DiscreteSolution that stores `values` and, for its unsettled components
    only, `bids`; every other mask answers in closed form and bids 0."""
    no_bids = np.zeros(e + 1, dtype=np.int64)
    no_bids.flags.writeable = False
    unsettled = [(t, mask) for t, layer in enumerate(bids) for mask in layer]
    return DiscreteSolution(
        n, e, [Layer(layer, 1 << t, closed_form) for t, layer in enumerate(values)],
        [Layer(layer, 1 << t, lambda mask: no_bids) for t, layer in enumerate(bids)],
        Settled(n, unsettled), len(unsettled) * (e + 1))


def evaluate_policy_exact(spec: ProblemSpec, bidder: Bidder) -> list[dict[int, np.ndarray]]:
    """Exact expected value of an arbitrary bidder at every state it visits.

    bidder(t, holdings_mask, np.arange(e + 1)) must bid an integer in 0..d at each endowment
    d, or one bid for them all; an answer of any other shape is refused as it comes.  It is
    asked once per visited component, for every one of a stage before any of their bids is
    checked; the first infeasible bid, by mask and then endowment, is named as the bidder
    gave it.  From (0, 0), each visited component leads to its lose successor, and to its
    win successor too when it is unsettled or bids above 0 at some endowment.  Returns value
    tables shaped like DiscreteSolution.stage_values over the visited components, which
    include every component a solve_discrete result stores.
    """
    e, closed_form, ws = _lattice(spec, "evaluate_policy_exact")
    ds = np.arange(e + 1)
    bids: dict[int, np.ndarray] = {}  # stage t's bids, a row per mask in ascending order

    def grow(t, masks):
        asked = [_ask(bidder, t, mask, ds) for mask in masks]
        z = np.array(asked)
        ok = (z >= 0) & (z <= ds) & (z == np.floor(z))
        if not ok.all():
            i, d = divmod(int(ok.argmin()), e + 1)  # the first infeasible (mask, endowment)
            raise ValueError(f"policy bid {asked[i][d].item()!r} infeasible at stage {t}, "
                             f"mask {masks[i]}, d {d}")
        bids[t] = z = z.astype(np.int64)
        return [bid or not spec.settled(t, m) for m, bid in zip(masks, z.any(axis=1).tolist())]

    def backup(t, jobs):
        _, win, lose = zip(*jobs)
        return _backup(ws[t], np.array(win), np.array(lose), bids[t][..., None])[..., 0]

    return sweep(spec, backup, closed_form, grow)
