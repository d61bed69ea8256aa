"""Domain model for a known sequence of first-price sealed-bid auctions.

Resources carry 1-based indices and are auctioned in index order, one per
stage.  Holdings are sets of resource indices, packed into bitmasks where it
matters for speed (resource i occupies bit i - 1).  A bundle confers its value
only when every member is held; the value of a holdings set is the best value
among the bundles it contains.  Whatever endowment remains at the end is worth
its residual utility, a nondecreasing piecewise-linear function with f(0) = 0.

High bids by the rest of the market are modeled per auction, either as a
multinomial over integer levels or as a Gaussian truncated below at zero.
Winning requires strictly outbidding the high bid; ties lose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Union

import numpy as np
from scipy.special import ndtr, ndtri

from .pwl import PwlFunction

Holdings = frozenset[int]


def holdings_mask(held: Union[int, Iterable[int]]) -> int:
    """Pack resource indices into a bitmask; passes bitmasks through."""
    if isinstance(held, (int, np.integer)):
        if held < 0:
            raise ValueError("holdings mask must be nonnegative")
        return int(held)
    mask = 0
    for i in held:
        if i < 1:
            raise ValueError(f"resource index {i} out of range (1-based)")
        mask |= 1 << (i - 1)
    return mask


def mask_holdings(mask: int) -> Holdings:
    """Unpack a holdings bitmask into the set of resource indices."""
    return frozenset(i + 1 for i in range(int(mask).bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Bundle:
    """A set of resource indices worth `value` when held in full."""

    members: frozenset[int]
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise ValueError("members: a bundle needs at least one member")
        if bad := [i for i in self.members if not isinstance(i, (int, np.integer)) or i < 1]:
            raise ValueError(f"members: {bad[0]!r} is not a resource index >= 1")
        if not self.value > 0:
            raise ValueError(f"value: {self.value!r} must be positive")

    @property
    def mask(self) -> int:
        return holdings_mask(self.members)


@dataclass(frozen=True)
class DiscreteMultinomial:
    """High-bid distribution over integer levels 0..len(probs) - 1; probs[k] = P(w = k)."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.probs) < 1:
            raise ValueError("probs: a multinomial needs at least one level")
        if not all(p >= 0 for p in self.probs):
            raise ValueError("probs: must be nonnegative")
        if not abs(sum(self.probs) - 1.0) <= 1e-12:  # so that NaN fails too
            raise ValueError(f"probs: must sum to 1, not {sum(self.probs)!r}")

    @cached_property
    def _cum(self) -> np.ndarray:
        # _cum[j] = P(w < j) for integer j; index len(probs) means "below any
        # level above the support", i.e. total mass.
        c = np.zeros(len(self.probs) + 1)
        np.cumsum(self.probs, out=c[1:])
        return c

    def win_probability(self, z: float) -> float:
        if not z >= 0:
            raise ValueError("bids must be nonnegative")
        return float(self.win_probability_vec(z))

    def win_probability_vec(self, z: np.ndarray) -> np.ndarray:
        # Capped before the cast, so that a bid beyond any int64 wins too.
        return self._cum[np.ceil(np.minimum(z, len(self.probs))).astype(np.int64)]

    def mean(self) -> float:
        return float(np.dot(np.arange(len(self.probs)), self.probs))

    @cached_property
    def _sample_cdf(self) -> np.ndarray:
        # Generator.choice(len(p), p=p)'s own table, normalized as numpy
        # normalizes it; kept apart from _cum, whose bits the win
        # probabilities read.
        return self._cum[1:] / self._cum[-1]

    def sample(self, u: np.ndarray) -> np.ndarray:
        """The high bids of uniform doubles u in [0, 1): each the draw that
        rng.choice(len(probs), p=probs) makes from that same double."""
        return np.searchsorted(self._sample_cdf, u, side="right")


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian high-bid distribution truncated below at zero and renormalized."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not 0 < self.std < math.inf:
            raise ValueError(f"std: {self.std!r} must be positive and finite")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean: {self.mean!r} must be finite")

    @cached_property
    def _f0(self) -> float:
        return float(ndtr(-self.mean / self.std))

    @cached_property
    def _scale(self) -> float:
        return 1.0 - self._f0

    def win_probability(self, z: float) -> float:
        if not z >= 0:
            raise ValueError("bids must be nonnegative")
        return float(self.win_probability_vec(z))

    def win_probability_vec(self, z: np.ndarray) -> np.ndarray:
        p = (ndtr((z - self.mean) / self.std) - self._f0) / self._scale
        return np.minimum(np.maximum(p, 0.0), 1.0)

    def mean_value(self) -> float:
        """Mean of the truncated distribution (not the underlying Gaussian)."""
        a = -self.mean / self.std
        phi_a = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
        return self.mean + self.std * phi_a / self._scale

    def sample(self, u: np.ndarray) -> np.ndarray:
        """The high bids of uniform doubles u in [0, 1), through the inverse CDF."""
        return self.mean + self.std * ndtri(self._f0 + u * self._scale)


BidDistribution = Union[DiscreteMultinomial, TruncatedGaussian]

MODE_DISCRETE = "discrete"
MODE_CONTINUOUS = "continuous"


@dataclass(frozen=True)
class ProblemSpec:
    """One auction sequence: n resources, valuation bundles, endowment, market model.

    distributions[t] is the high-bid model for the auction held at stage t,
    i.e. for resource t + 1.  In discrete mode the endowment and all bids are
    integers and every distribution is multinomial; in continuous mode bids
    are reals in [0, endowment] and every distribution is a truncated
    Gaussian.

    A spec checks itself when it is constructed (dataclasses.replace
    included) and raises ensure_valid's field-tagged ValueError, so every
    ProblemSpec in existence is valid.
    """

    n: int
    bundles: tuple[Bundle, ...]
    endowment: float
    residual: PwlFunction
    distributions: tuple[BidDistribution, ...]
    mode: str

    def __post_init__(self) -> None:
        ensure_valid(self)

    @cached_property
    def _bundle_masks(self) -> list[tuple[int, float]]:
        return [(b.mask, b.value) for b in self.bundles]

    def bundle_value(self, mask: int) -> float:
        """The best value among the bundles a holdings mask contains, or 0."""
        best = 0.0
        for bmask, bvalue in self._bundle_masks:
            if bmask & mask == bmask and bvalue > best:
                best = bvalue
        return best

    def settled(self, t: int, mask: int) -> bool:
        """True when no bundle still completable from stage t beats mask's value."""
        reachable = mask | (((1 << self.n) - 1) & ~((1 << t) - 1))
        current = self.bundle_value(mask)
        return all(v <= current or bmask & reachable != bmask
                   for bmask, v in self._bundle_masks)


def useful_resources(bundles: Iterable[Bundle]) -> frozenset[int]:
    """Union of all bundle members: the only resources worth bidding on."""
    bundles = tuple(bundles)
    if not bundles:
        raise ValueError("no bundles given")
    out: set[int] = set()
    for b in bundles:
        out |= b.members
    return frozenset(out)


def terminal_value(held: Union[int, Iterable[int]], d, spec: ProblemSpec):
    """Utility once all auctions have run: bundle value plus residual utility,
    elementwise for an array of endowments that share the holdings."""
    d = np.asarray(d, dtype=float)
    bad = np.flatnonzero(~((d >= -_ENDOWMENT_SLACK) & (d <= spec.endowment + _ENDOWMENT_SLACK)))
    if len(bad):
        raise ValueError(f"endowment {float(d.flat[bad[0]])!r} outside [0, {spec.endowment}]")
    return (spec.bundle_value(holdings_mask(held))
            + spec.residual.values(np.clip(d, 0.0, spec.endowment)))


_ENDOWMENT_SLACK = 1e-9
# discretize_distribution builds ceil(mean + 4 std) + 1 levels: refuse more than this
# (a tuple of about 3 MB) before allocating any.
_MAX_LEVELS = 100_001


def discretize_distribution(g: TruncatedGaussian) -> DiscreteMultinomial:
    """Collapse a truncated Gaussian onto the integer levels 0 to
    w_max = ceil(mean + 4 std).

    Level k receives the probability mass of (k - 0.5, k + 0.5]; level 0 also
    absorbs [0, 0.5] and the top level absorbs the upper tail, so the masses
    sum to one by construction (one level 0 when ceil(mean + 4 std) <= 0).
    """
    if not g.mean + 4.0 * g.std <= _MAX_LEVELS - 1:  # ceil(x) + 1 > L exactly when x > L - 1
        raise ValueError(f"mean: {g.mean!r} with std {g.std!r} needs ceil(mean + 4 std) + 1 "
                         f"levels, above the discretization limit of {_MAX_LEVELS:,}")
    w_max = max(math.ceil(g.mean + 4.0 * g.std), 0)
    cdf = g.win_probability_vec(np.arange(0, w_max) + 0.5)
    masses = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    masses /= masses.sum()
    return DiscreteMultinomial(tuple(masses))


def to_discrete(spec: ProblemSpec) -> ProblemSpec:
    """Discrete-mode copy of a spec, discretizing any Gaussian distributions."""
    if abs(spec.endowment - round(spec.endowment)) > _ENDOWMENT_SLACK:
        raise ValueError("discrete mode needs an integer endowment")
    dists = []
    for t, d in enumerate(spec.distributions):
        try:
            dists.append(discretize_distribution(d) if isinstance(d, TruncatedGaussian) else d)
        except ValueError as err:
            raise ValueError(f"distributions[{t}].{err}") from None
    return replace(spec, endowment=float(round(spec.endowment)),
                   distributions=tuple(dists), mode=MODE_DISCRETE)


def validate_problem(spec: ProblemSpec) -> list[str]:
    """All constraint violations in the problem spec, tagged with field paths.

    An empty list means the instance is well formed.
    """
    problems: list[str] = []
    if spec.n < 1:
        problems.append(f"n: must be at least 1, got {spec.n}")
    if not spec.bundles:
        problems.append("bundles: at least one bundle is required")
    for j, b in enumerate(spec.bundles):
        if not math.isfinite(b.value):
            problems.append(f"bundles[{j}].value: must be finite, got {b.value}")
        for i in sorted(b.members):
            if i > spec.n:
                problems.append(
                    f"bundles[{j}].members: member {i} out of range 1..{spec.n}"
                )
    if spec.bundles:
        used = useful_resources(spec.bundles)
        unused = spec.n - sum(1 <= i <= spec.n for i in used)
        if unused > 0:  # one message, whatever n: a spec file may claim a billion resources
            first = [str(i) for i in range(1, min(spec.n, len(used) + 3) + 1) if i not in used]
            which = (f"resource {first[0]} appears in no bundle" if unused == 1 else
                     f"{unused:,} resources appear in no bundle ({', '.join(first[:3])}"
                     f"{', ...' if unused > 3 else ''})")
            problems.append(f"n: {which}; drop irrelevant resources")
    if not 0 <= spec.endowment < math.inf:
        problems.append(f"endowment: must be finite and nonnegative, got {spec.endowment}")
    if not np.all(np.isfinite(spec.residual.xs + spec.residual.ys)):
        problems.append("residual: knots must be finite")
    lo, hi = spec.residual.domain
    if abs(lo) > _ENDOWMENT_SLACK or abs(hi - spec.endowment) > _ENDOWMENT_SLACK:
        problems.append(
            f"residual: domain [{lo}, {hi}] must span [0, {spec.endowment}]"
        )
    if abs(spec.residual.ys[0]) > _ENDOWMENT_SLACK:
        problems.append(f"residual: value at 0 must be 0, got {spec.residual.ys[0]}")
    if any(b < a - 1e-12 for a, b in zip(spec.residual.ys, spec.residual.ys[1:])):
        problems.append("residual: knot values must be nondecreasing")
    if len(spec.distributions) != spec.n:
        problems.append(
            f"distributions: expected {spec.n} entries, got {len(spec.distributions)}"
        )
    if spec.mode not in (MODE_DISCRETE, MODE_CONTINUOUS):
        problems.append(f"mode: unknown mode {spec.mode!r}")
        return problems
    discrete = spec.mode == MODE_DISCRETE
    if discrete and math.isfinite(spec.endowment) and (
        abs(spec.endowment - round(spec.endowment)) > _ENDOWMENT_SLACK
    ):
        problems.append(
            f"endowment: discrete mode needs an integer endowment, got {spec.endowment}"
        )
    kind, label = ((DiscreteMultinomial, "multinomial") if discrete
                   else (TruncatedGaussian, "truncated-Gaussian"))
    for t, dist in enumerate(spec.distributions):
        if not isinstance(dist, kind):
            problems.append(f"distributions[{t}]: mode/distribution mismatch; "
                            f"{spec.mode} mode needs {label} distributions")
        elif not discrete and not dist._scale >= 1e-6:  # mean below about -4.75 std
            problems.append(f"distributions[{t}]: P(w > 0) = {dist._scale:.3g} is below 1e-06, "
                            "so win probabilities would lose most of their digits")
    return problems


def ensure_valid(spec: ProblemSpec) -> ProblemSpec:
    problems = validate_problem(spec)
    if problems:
        raise ValueError("invalid problem spec:\n  " + "\n  ".join(problems))
    return spec

