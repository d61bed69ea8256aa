"""Problem model: bundles, terminal utility, bid distributions, validation."""

from __future__ import annotations

import math
import re
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from oracles import Replay, quad_win_probability
from seqbid.core import (
    Bundle,
    DiscreteMultinomial,
    MODE_CONTINUOUS,
    MODE_DISCRETE,
    ProblemSpec,
    TruncatedGaussian,
    discretize_distribution,
    ensure_valid,
    holdings_mask,
    mask_holdings,
    terminal_value,
    to_discrete,
    useful_resources,
    validate_problem,
)
from seqbid.experiment import GeneratorParams, generate_instance
from seqbid.io import spec_from_dict, spec_to_dict
from seqbid.pwl import PwlFunction


class TestHoldingsMask:
    def test_single_bits(self):
        assert holdings_mask({1}) == 1
        assert holdings_mask({2}) == 2
        assert holdings_mask({1, 3}) == 5

    def test_accepts_mask_passthrough(self):
        assert holdings_mask(5) == 5

    def test_round_trip(self):
        for mask in range(16):
            assert holdings_mask(mask_holdings(mask)) == mask

    def test_empty(self):
        assert holdings_mask(frozenset()) == 0
        assert mask_holdings(0) == frozenset()


class TestUsefulResources:
    def test_two_overlapping(self):
        bundles = (Bundle(frozenset({1, 2}), 1.0), Bundle(frozenset({2, 3}), 1.0))
        assert useful_resources(bundles) == frozenset({1, 2, 3})

    def test_single(self):
        assert useful_resources((Bundle(frozenset({1}), 1.0),)) == frozenset({1})

    def test_three(self):
        bundles = (
            Bundle(frozenset({1, 2, 3}), 1.0),
            Bundle(frozenset({2}), 1.0),
            Bundle(frozenset({3, 4}), 1.0),
        )
        assert useful_resources(bundles) == frozenset({1, 2, 3, 4})


def bundles_spec(bundles) -> ProblemSpec:
    """The smallest valid discrete spec over these bundles."""
    n = max(useful_resources(bundles))
    return ProblemSpec(n, tuple(bundles), 1.0, PwlFunction.linear(0.7, 0.0, 1.0),
                       (DiscreteMultinomial((1.0,)),) * n, MODE_DISCRETE)


class TestBundleValue:
    BUNDLES = (Bundle(frozenset({1, 2}), 15.0), Bundle(frozenset({3}), 8.0))

    def value(self, held) -> float:
        return bundles_spec(self.BUNDLES).bundle_value(holdings_mask(held))

    def test_max_of_contained(self):
        assert self.value({1, 2, 3}) == 15.0

    def test_empty_holdings(self):
        assert self.value(frozenset()) == 0.0

    def test_only_second_contained(self):
        assert self.value({3}) == 8.0

    def test_partial_bundle_is_worthless(self):
        assert self.value({1}) == 0.0

    def test_table_matches_direct(self):
        bundles = self.BUNDLES + (Bundle(frozenset({2, 3, 4}), 20.0), Bundle(frozenset({4}), 1.0))
        spec = bundles_spec(bundles)
        for mask in range(16):
            held = {i + 1 for i in range(4) if mask >> i & 1}
            brute = max([b.value for b in bundles if b.members <= held], default=0.0)
            assert spec.bundle_value(mask) == brute


class TestTerminalValue:
    def test_bundle_plus_residual(self):
        spec = ProblemSpec(
            n=2,
            bundles=(Bundle(frozenset({1, 2}), 15.0),),
            endowment=10.0,
            residual=PwlFunction.linear(0.7, 0.0, 10.0),
            distributions=(DiscreteMultinomial((1.0,)),) * 2,
            mode=MODE_DISCRETE,
        )
        assert terminal_value({1, 2}, 10.0, spec) == pytest.approx(22.0)

    def test_zero_at_origin(self, t1):
        assert terminal_value(frozenset(), 0.0, t1) == 0.0

    def test_pure_residual_at_full_endowment(self):
        spec = ProblemSpec(
            n=1,
            bundles=(Bundle(frozenset({1}), 1.0),),
            endowment=30.0,
            residual=PwlFunction.linear(0.7, 0.0, 30.0),
            distributions=(DiscreteMultinomial((1.0,)),),
            mode=MODE_DISCRETE,
        )
        assert terminal_value(frozenset(), 30.0, spec) == pytest.approx(21.0)


class TestDiscreteMultinomial:
    def test_strictly_below_one(self):
        assert DiscreteMultinomial((0.5, 0.5)).win_probability(1.0) == 0.5

    def test_zero_bid_never_wins(self):
        assert DiscreteMultinomial((0.5, 0.5)).win_probability(0.0) == 0.0

    def test_above_support_always_wins(self):
        d = DiscreteMultinomial((0.5, 0.5))
        assert d.win_probability(2.0) == 1.0
        assert d.win_probability(100.0) == 1.0

    def test_fractional_bids_round_up_a_level(self):
        d = DiscreteMultinomial((0.2, 0.3, 0.5))
        assert d.win_probability(0.5) == pytest.approx(0.2)
        assert d.win_probability(1.0) == pytest.approx(0.2)
        assert d.win_probability(1.5) == pytest.approx(0.5)

    def test_vector_matches_scalar(self):
        d = DiscreteMultinomial((0.2, 0.3, 0.5))
        zs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        expect = [d.win_probability(z) for z in zs]
        assert np.array_equal(d.win_probability_vec(zs), expect)
        # the integer lattice the exact solver reads
        ks = np.arange(5)
        assert np.array_equal(d.win_probability_vec(ks), [d.win_probability(k) for k in ks])

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMultinomial(())
        with pytest.raises(ValueError):
            DiscreteMultinomial((0.5, -0.1, 0.6))
        with pytest.raises(ValueError):
            DiscreteMultinomial((0.5, 0.4))

    def test_nan_probability_rejected(self):
        for probs in ((float("nan"), 1.0), (1.0, float("nan"))):
            with pytest.raises(ValueError):
                DiscreteMultinomial(probs)

    def test_mean(self):
        assert DiscreteMultinomial((0.25, 0.5, 0.25)).mean() == pytest.approx(1.0)

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMultinomial((1.0,)).win_probability(-0.5)


def _generator_distributions():
    for seed in range(1000, 1004):
        spec = to_discrete(generate_instance(GeneratorParams(seed=seed)))
        for t, dist in enumerate(spec.distributions):
            yield pytest.param(dist.probs, id=f"G{seed}-stage{t}")


# Sums 1 - 9e-13 and 1 + 9e-13: within validation's tolerance, but off 1 by
# enough that numpy's normalization of the table moves its last bits.
_SHORT = (0.25, 0.25, 0.5 - 9e-13)
_LONG = (0.1, 0.2, 0.7 + 9e-13)


_STREAM_CASES = [
    *_generator_distributions(),
    pytest.param((1.0,), id="one-level"),
    pytest.param((0.3, 0.0, 0.0, 0.7), id="zero-interior"),
    pytest.param((0.6, 0.4, 0.0, 0.0), id="zero-trailing"),
    pytest.param((0.0, 0.5, 0.0, 0.5, 0.0), id="zero-everywhere"),
    pytest.param(_SHORT, id="sum-below-one"),
    pytest.param(_LONG, id="sum-above-one"),
]


class TestSampleStream:
    """sample(u) draws what rng.choice(len(p), p=p) draws from the same doubles u."""

    @pytest.mark.parametrize("probs", _STREAM_CASES)
    def test_draw_for_draw_equal_to_choice(self, probs):
        d = DiscreteMultinomial(probs)
        rng_a, rng_b = np.random.default_rng(2024), np.random.default_rng(2024)
        ours = d.sample(rng_a.random(10_000))
        numpy_draws = [int(rng_b.choice(len(probs), p=probs)) for _ in range(10_000)]
        assert ours.tolist() == numpy_draws
        assert ours.dtype == np.int64
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("probs", _STREAM_CASES)
    def test_equal_to_choice_at_every_table_edge(self, probs):
        # Random doubles almost never land within 1e-12 of an edge, so feed
        # both sides every cumulative sum, raw and normalized, and its neighbours.
        cdf = np.cumsum(probs)
        edges = {float(u) for c in (cdf, cdf / cdf[-1]) for u in c}
        us = sorted(u for e in edges for u in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))
                    if 0.0 <= u < 1.0)
        d = DiscreteMultinomial(probs)
        ours = d.sample(np.array(us)).tolist()
        assert ours == [int(Replay([u]).choice(len(probs), p=probs)) for u in us]

    def test_off_by_rounding_sums_are_exercised(self):
        assert sum(_SHORT) < 1.0 < sum(_LONG)
        assert abs(sum(_SHORT) - 1.0) <= 1e-12 and abs(sum(_LONG) - 1.0) <= 1e-12


class TestTruncatedGaussian:
    def test_zero_bid_never_wins(self):
        assert TruncatedGaussian(1.0, 0.5).win_probability(0.0) == 0.0

    def test_at_mean_matches_closed_form(self):
        g = TruncatedGaussian(1.0, 0.5)
        expect = (ndtr(0.0) - ndtr(-2.0)) / (1.0 - ndtr(-2.0))
        assert g.win_probability(1.0) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("z", [0.25, 1.0, 2.5, 6.0])
    def test_matches_quadrature(self, z):
        g = TruncatedGaussian(1.0, 0.5)
        assert g.win_probability(z) == pytest.approx(
            quad_win_probability(1.0, 0.5, z), abs=1e-9
        )

    @given(st.floats(0.0, 12.0), st.floats(0.0, 12.0))
    @settings(max_examples=80)
    def test_nondecreasing(self, a, b):
        g = TruncatedGaussian(3.0, 0.8)
        lo, hi = min(a, b), max(a, b)
        assert g.win_probability(lo) <= g.win_probability(hi) + 1e-15

    def test_vector_matches_scalar(self):
        g = TruncatedGaussian(4.5, 0.7)
        zs = np.linspace(0.0, 10.0, 11)
        assert np.allclose(
            g.win_probability_vec(zs), [g.win_probability(z) for z in zs]
        )

    def test_sample_is_nonnegative_and_deterministic(self):
        g = TruncatedGaussian(1.0, 1.0)
        us = np.random.default_rng(7).random(50)
        r1 = g.sample(us).tolist()
        assert r1 == [float(g.sample(np.array([u]))[0]) for u in us]
        assert r1 == g.sample(np.random.default_rng(7).random(50)).tolist()
        assert min(r1) >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedGaussian(1.0, 0.0)
        with pytest.raises(ValueError):
            TruncatedGaussian(1.0, -1.0)


@st.composite
def laws(draw):
    """A multinomial of 1 to 12 levels, or a Gaussian validation accepts: P(w > 0) >= 3e-6."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
        assume(sum(weights) > 0)
        return DiscreteMultinomial(tuple(w / sum(weights) for w in weights))
    std = draw(st.floats(1e-3, 1e3))
    return TruncatedGaussian(draw(st.floats(-4.5, 20.0)) * std, std)


class TestOneBid:
    """The scalar win probability is the vector formula read at one bid."""

    @given(laws(), st.floats(0.0, 1e6))
    @settings(max_examples=400)
    def test_bit_for_bit_the_vector_formula(self, law, z):
        want = float(law.win_probability_vec(np.array([z]))[0])
        assert law.win_probability(z).hex() == want.hex()

    @pytest.mark.parametrize("law", [DiscreteMultinomial((0.5, 0.5)), TruncatedGaussian(1.0, 0.5)])
    def test_beyond_any_level_or_int64_wins(self, law):
        for z in (20.0, 1e300, math.inf):
            assert law.win_probability(z) == 1.0

    @pytest.mark.parametrize("law", [DiscreteMultinomial((0.5, 0.5)), TruncatedGaussian(1.0, 0.5)])
    @pytest.mark.parametrize("z", [-0.5, -1e-300, -math.inf, math.nan])
    def test_negative_or_nan_bid_refused(self, law, z):
        with pytest.raises(ValueError, match="^bids must be nonnegative$"):
            law.win_probability(z)


class TestDiscretization:
    def test_near_degenerate_concentrates_on_mean(self):
        d = discretize_distribution(TruncatedGaussian(3.0, 1e-9))
        assert d.probs[3] == pytest.approx(1.0)
        assert sum(d.probs) == pytest.approx(1.0)

    def test_mass_matches_cdf_cells(self):
        g = TruncatedGaussian(4.0, 1.0)
        d = discretize_distribution(g)
        # interior cell k collects the truncated mass of (k - 1/2, k + 1/2]
        for k in range(1, len(d.probs) - 1):
            expect = g.win_probability(k + 0.5) - g.win_probability(k - 0.5)
            assert d.probs[k] == pytest.approx(expect, abs=1e-12)

    def test_tail_cells_absorb_the_rest(self):
        g = TruncatedGaussian(4.0, 1.0)
        d = discretize_distribution(g)
        assert len(d.probs) == 9  # levels 0..ceil(mean + 4 std)
        assert d.probs[0] == pytest.approx(g.win_probability(0.5), abs=1e-12)
        assert sum(d.probs) == pytest.approx(1.0, abs=1e-12)

    def test_mean_close_to_continuous(self):
        g = TruncatedGaussian(5.0, 0.7)
        d = discretize_distribution(g)
        assert d.mean() == pytest.approx(g.mean_value(), abs=0.05)

    @pytest.mark.parametrize("mean, std", [(-3.0, 0.707), (-6.65, 1.4), (-50.0, 1.0)])
    def test_no_level_above_zero_is_one_level(self, c1, mean, std):
        # ceil(mean + 4 std) is 0, -1 and -46: every high bid is level 0.
        assert discretize_distribution(TruncatedGaussian(mean, std)).probs == (1.0,)
        if mean > -10:  # P(w > 0) = 1.1e-5 and 1.0e-6: valid specs
            twin = to_discrete(replace(c1, distributions=(TruncatedGaussian(mean, std),)))
            assert twin.distributions == (DiscreteMultinomial((1.0,)),)


class TestToDiscrete:
    def test_mode_and_distributions_flip(self, c1):
        twin = to_discrete(c1)
        assert twin.mode == MODE_DISCRETE
        assert all(isinstance(d, DiscreteMultinomial) for d in twin.distributions)
        assert twin.n == c1.n
        assert twin.endowment == c1.endowment
        assert validate_problem(twin) == []

    def test_discrete_spec_unchanged(self, t2):
        assert to_discrete(t2) == t2

    def test_level_limit(self, c2, monkeypatch):
        # Levels 0..ceil(mean + 4 std): mean + 4 std = 9 makes 10 levels, a hair more 11.
        # The limit is read from the module, so a small one tests it without allocating.
        from seqbid import core

        monkeypatch.setattr(core, "_MAX_LEVELS", 10)
        assert len(discretize_distribution(TruncatedGaussian(5.0, 1.0)).probs) == 10
        assert len(to_discrete(replace(c2, distributions=(TruncatedGaussian(5.0, 1.0),) * 2))
                   .distributions[1].probs) == 10
        over = replace(c2, distributions=(TruncatedGaussian(5.0, 1.0),
                                          TruncatedGaussian(5.0 + 1e-9, 1.0)))
        with pytest.raises(ValueError, match=r"^distributions\[1\]\.mean: 5\.000000001 with std "
                                             r"1\.0 needs ceil\(mean \+ 4 std\) \+ 1 levels, above "
                                             r"the discretization limit of 10$"):
            to_discrete(over)
        with pytest.raises(ValueError, match=r"^mean: 1e\+308 with std 1e\+308 needs"):
            discretize_distribution(TruncatedGaussian(1e308, 1e308))  # mean + 4 std is inf

    def test_stock_instances_are_far_below_the_level_limit(self):
        from seqbid import core

        for seed in (1000, 1001, 1002, 1003):
            twin = to_discrete(generate_instance(GeneratorParams(seed=seed)))
            assert max(len(d.probs) for d in twin.distributions) <= 11 < core._MAX_LEVELS


def refused(base: ProblemSpec, tagged: str, **changes) -> None:
    """base with `changes` is refused at construction and at replace, with an
    error line that starts with the field-tagged message `tagged` (a regex)."""
    data = {f.name: getattr(base, f.name) for f in fields(base)}
    with pytest.raises(ValueError, match="\n  " + tagged):
        ProblemSpec(**{**data, **changes})
    with pytest.raises(ValueError, match="\n  " + tagged):
        replace(base, **changes)


class TestValidation:
    def test_well_formed(self, t2):
        assert validate_problem(t2) == []

    def test_member_out_of_range(self, t2):
        refused(t2, r"bundles\[0\]\.members: member 5 out of range 1\.\.3", n=3,
                bundles=(Bundle(frozenset({5}), 1.0), Bundle(frozenset({1, 2, 3}), 2.0)),
                distributions=(DiscreteMultinomial((1.0,)),) * 3)

    def test_mode_distribution_mismatch(self, t1, c1):
        mismatch = r"distributions\[0\]: mode/distribution mismatch"
        refused(t1, mismatch, distributions=(TruncatedGaussian(1.0, 0.5),))
        refused(c1, mismatch, distributions=(DiscreteMultinomial((0.5, 0.5)),))

    def test_residual_must_start_at_zero(self, t1):
        refused(t1, r"residual: value at 0 must be 0, got 0\.5",
                residual=PwlFunction((0.0, 2.0), (0.5, 1.4)))

    def test_residual_must_be_nondecreasing(self, t1):
        refused(t1, "residual: knot values must be nondecreasing",
                residual=PwlFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.5)))

    def test_residual_domain_must_cover_endowment(self, t1):
        refused(t1, re.escape("residual: domain [0.0, 1.0] must span [0, 2.0]"),
                residual=PwlFunction.linear(0.7, 0.0, 1.0))

    def test_every_resource_in_some_bundle(self, t2):
        refused(t2, "n: resource 2 appears in no bundle", bundles=(Bundle(frozenset({1}), 5.0),))

    def test_distribution_count(self, t2):
        refused(t2, "distributions: expected 2 entries, got 1",
                distributions=t2.distributions[:1])

    def test_ensure_valid(self, t2):
        assert ensure_valid(t2) is t2
        # One line per problem, in validate_problem's order.
        refused(t2, "n: resource 2 appears in no bundle[^\n]*\n  distributions: expected 2",
                bundles=(Bundle(frozenset({1}), 5.0),), distributions=t2.distributions[:1])

    def test_infinite_endowment_rejected(self, t1, c1):
        inf = float("inf")
        for spec in (c1, t1):
            refused(spec, "endowment: must be finite", endowment=inf,
                    residual=PwlFunction.linear(0.7, 0.0, inf))

    def test_infinite_bundle_value_rejected(self, c1):
        refused(c1, r"bundles\[0\]\.value: must be finite",
                bundles=(Bundle(frozenset({1}), float("inf")),))

    def test_nan_residual_rejected(self, c1):
        refused(c1, "residual: knots must be finite",
                residual=PwlFunction.linear(float("nan"), 0.0, 2.0))

    def test_deep_tail_gaussian_rejected(self, c1):
        # P(w > 0) is 0.0 at mean -50 std 0.5, 2.9e-7 at -5 std, 3.4e-6 at -4.5 std.
        for mean, bad in ((-50.0, True), (-2.5, True), (-2.25, False), (1.0, False)):
            dists = (TruncatedGaussian(mean, 0.5),)
            if bad:
                refused(c1, r"distributions\[0\]: P\(w > 0\) = ", distributions=dists)
            else:
                assert validate_problem(replace(c1, distributions=dists)) == []

    def test_spec_file_member_must_be_integral(self, t2):
        data = spec_to_dict(t2)
        data["bundles"][0]["members"] = [1.5, 2]
        with pytest.raises(ValueError, match=r"bundles\[0\]\.members: 1\.5"):
            spec_from_dict(data)
        data["bundles"][0]["members"] = [1.0, 2]
        assert spec_from_dict(data).bundles == t2.bundles

    @pytest.mark.parametrize("n", ["9", "9.0", 9.0])
    def test_spec_file_integer_is_read_as_a_number(self, t2, n):
        nine = replace(t2, n=9, bundles=(Bundle(frozenset(range(1, 10)), 10.0),),
                       distributions=t2.distributions[:1] * 9)
        data = spec_to_dict(nine)
        data["n"] = n
        assert spec_from_dict(data) == nine
        data["n"] = "9.5"
        with pytest.raises(ValueError, match=r"^n: '9\.5' is not an integer"):
            spec_from_dict(data)

    @pytest.mark.parametrize("n, unused", [(10**5, "99,998"), (10**9, "999,999,998")])
    def test_huge_n_is_refused_in_one_message(self, t2, n, unused):
        # One message for every resource no bundle holds, not one each: a message
        # per resource would take about 100 GB at n = 10**9.
        data = spec_to_dict(t2)
        data["n"] = n
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"n: {unused} resources appear in no bundle (3, 4, 5, ...); drop")):
                spec_from_dict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0 and peak < 2**20

    @pytest.mark.parametrize("edit, field", [
        (lambda data: data.update(n=10**400), "n"),
        (lambda data: data.update(endowment=-10**400), "endowment"),
        (lambda data: data["bundles"][0].update(members=[1, 10**400]), r"bundles\[0\]\.members"),
        (lambda data: data["distributions"][0].update(probs=[10**400, 0]),
         r"distributions\[0\]\.probs"),
    ])
    def test_spec_file_int_beyond_the_float_range(self, t2, edit, field):
        # float() of such an int raises OverflowError; the reader refuses it, tagged.
        data = spec_to_dict(t2)
        edit(data)
        with pytest.raises(ValueError, match=f"^{field}: a 1329-bit integer is beyond the float"):
            spec_from_dict(data)

    @pytest.mark.parametrize("spec, edit, message", [
        ("t2", lambda data: [data], r"spec: \[.*\] is not a table"),
        ("t2", lambda data: data.update(n=None), "n: None is not an integer"),
        ("t2", lambda data: data.update(n="two"), "n: 'two' is not an integer"),
        ("t2", lambda data: data.update(bundles=[5]), r"bundles\[0\]: 5 is not a table"),
        ("t2", lambda data: data.update(bundles={"members": [1]}), "bundles: .* is not a list"),
        ("t2", lambda data: data["bundles"][1].update(members=2),
         r"bundles\[1\]\.members: 2 is not a list"),
        ("t2", lambda data: data["bundles"][0].update(value=None), r"bundles\[0\]\.value: None"),
        ("t2", lambda data: data.update(endowment=[3]), r"endowment: \[3\] is not a number"),
        ("t2", lambda data: data.update(residual=0.7), "residual: 0.7 is not a table"),
        ("t2", lambda data: data["residual"].update(knots=[[0, 0], 3]),
         r"residual\.knots\[1\]: 3 is not a pair of numbers"),
        ("t2", lambda data: data["residual"].update(knots=[[0, 0], [3, "x"]]),
         r"residual\.knots\[1\]: 'x' is not a number"),
        ("t2", lambda data: data.update(distributions=[0.5]),
         r"distributions\[0\]: 0\.5 is not a table"),
        ("t2", lambda data: data["distributions"][1].update(probs=[0.5, None]),
         r"distributions\[1\]\.probs: None is not a number"),
        ("c1", lambda data: data["distributions"][0].update(mean="x"),
         r"distributions\[0\]\.mean: 'x' is not a number"),
    ])
    def test_spec_file_of_the_wrong_shape(self, request, spec, edit, message):
        data = spec_to_dict(request.getfixturevalue(spec))
        with pytest.raises(ValueError, match=message):
            spec_from_dict(edit(data) or data)

    @pytest.mark.parametrize("spec, edit, message", [
        ("t2", lambda data: data.update(n=True), "n: True is not an integer"),
        ("t2", lambda data: data.update(endowment=False), "endowment: False is not a number"),
        ("t2", lambda data: data["bundles"][0].update(members=[1, True]),
         r"bundles\[0\]\.members: True is not an integer"),
        ("t2", lambda data: data["distributions"][0].update(probs=[True, 0]),
         r"distributions\[0\]\.probs: True is not a number"),
    ])
    def test_spec_file_booleans_are_not_numbers(self, request, spec, edit, message):
        # JSON true used to load as 1, so "n": true read as a one-resource spec.
        data = spec_to_dict(request.getfixturevalue(spec))
        edit(data)
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec_from_dict(data)

    @pytest.mark.parametrize("spec, edit, message", [
        ("c1", lambda data: data["distributions"][0].update(std=-1),
         r"distributions\[0\]\.std: -1\.0 must be positive and finite"),
        ("c1", lambda data: data["distributions"][0].update(mean=math.inf),
         r"distributions\[0\]\.mean: inf must be finite"),
        ("t2", lambda data: data["distributions"][1].update(probs=[0.5, 0.75]),
         r"distributions\[1\]\.probs: must sum to 1, not 1\.25"),
        ("t2", lambda data: data["distributions"][0].update(probs=[]),
         r"distributions\[0\]\.probs: a multinomial needs at least one level"),
        ("t2", lambda data: data["bundles"][0].update(members=[0, 1]),
         r"bundles\[0\]\.members: 0 is not a resource index >= 1"),
        ("t2", lambda data: data["bundles"][1].update(members=[]),
         r"bundles\[1\]\.members: a bundle needs at least one member"),
        ("t2", lambda data: data["bundles"][1].update(value=0),
         r"bundles\[1\]\.value: 0\.0 must be positive"),
        ("t2", lambda data: data["residual"].update(knots=[[0, 0], [0, 1]]),
         r"residual\.knots: abscissae must be strictly increasing"),
        ("t2", lambda data: data["residual"].update(knots=[]),
         r"residual\.knots: a piecewise-linear function needs at least two"),
        ("t2", lambda data: data.update(residual={"linear_slope": 0.7, "knots": []}),
         r"residual: needs one key, knots or linear_slope, not \['linear_slope', 'knots'\]"),
        ("t2", lambda data: data["distributions"][0].update(kind="poisson"),
         r"distributions\[0\]\.kind: 'poisson' is not one of multinomial, gaussian"),
        ("t2", lambda data: data["distributions"][0].update(mean=1.0),
         r"distributions\[0\]\.mean: unknown setting; known: probs"),
        ("c1", lambda data: data["distributions"][0].pop("std"),
         r"distributions\[0\]\.std: missing"),
        ("t2", lambda data: data.update(modes="discrete"), "modes: unknown setting; known: n, "),
        ("t2", lambda data: data.pop("mode"), "mode: missing"),
    ])
    def test_spec_file_refusals_name_the_field_path(self, request, spec, edit, message):
        # Constructor refusals used to come back untagged ("std must be positive"), and
        # a spec file's unknown keys were ignored.
        data = spec_to_dict(request.getfixturevalue(spec))
        edit(data)
        with pytest.raises(ValueError, match=f"^{message}"):
            spec_from_dict(data)

    def test_bundle_value_must_be_positive(self):
        with pytest.raises(ValueError):
            Bundle(frozenset({1}), 0.0)
        with pytest.raises(ValueError):
            Bundle(frozenset({1}), -2.0)
