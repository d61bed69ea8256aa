"""Problem model: bundles, terminal utility, bid distributions, validation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from oracles import quad_win_probability
from seqbid.core import (
    Bundle,
    BundleValueTable,
    DiscreteMultinomial,
    MODE_CONTINUOUS,
    MODE_DISCRETE,
    ProblemSpec,
    TruncatedGaussian,
    bundle_value,
    discretize_distribution,
    ensure_valid,
    holdings_mask,
    mask_holdings,
    terminal_value,
    to_discrete,
    useful_resources,
    validate_problem,
    win_probability,
)
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


class TestBundleValue:
    BUNDLES = (Bundle(frozenset({1, 2}), 15.0), Bundle(frozenset({3}), 8.0))

    def test_max_of_contained(self):
        assert bundle_value({1, 2, 3}, self.BUNDLES) == 15.0

    def test_empty_holdings(self):
        assert bundle_value(frozenset(), self.BUNDLES) == 0.0

    def test_only_second_contained(self):
        assert bundle_value({3}, self.BUNDLES) == 8.0

    def test_partial_bundle_is_worthless(self):
        assert bundle_value({1}, self.BUNDLES) == 0.0

    @given(st.integers(0, 15))
    def test_table_matches_direct(self, mask):
        table = BundleValueTable(self.BUNDLES)
        assert table.value(mask) == bundle_value(mask, self.BUNDLES)


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
        assert np.allclose(d.win_probability_vec(zs), expect)

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
        r1 = [g.sample(np.random.default_rng(7)) for _ in range(50)]
        r2 = [g.sample(np.random.default_rng(7)) for _ in range(50)]
        assert r1 == r2
        assert min(r1) >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedGaussian(1.0, 0.0)
        with pytest.raises(ValueError):
            TruncatedGaussian(1.0, -1.0)


class TestDiscretization:
    def test_near_degenerate_concentrates_on_mean(self):
        d = discretize_distribution(TruncatedGaussian(3.0, 1e-9))
        assert d.probs[3] == pytest.approx(1.0)
        assert sum(d.probs) == pytest.approx(1.0)

    def test_mass_matches_cdf_cells(self):
        g = TruncatedGaussian(4.0, 1.0)
        d = discretize_distribution(g)
        # interior cell k collects the truncated mass of (k - 1/2, k + 1/2]
        for k in range(1, d.w_max):
            expect = g.win_probability(k + 0.5) - g.win_probability(k - 0.5)
            assert d.probs[k] == pytest.approx(expect, abs=1e-12)

    def test_tail_cells_absorb_the_rest(self):
        g = TruncatedGaussian(4.0, 1.0)
        d = discretize_distribution(g)
        assert d.w_max == 8  # ceil(mean + 4 std)
        assert d.probs[0] == pytest.approx(g.win_probability(0.5), abs=1e-12)
        assert sum(d.probs) == pytest.approx(1.0, abs=1e-12)

    def test_mean_close_to_continuous(self):
        g = TruncatedGaussian(5.0, 0.7)
        d = discretize_distribution(g)
        assert d.mean() == pytest.approx(g.mean_value(), abs=0.05)

    def test_explicit_w_max(self):
        d = discretize_distribution(TruncatedGaussian(3.0, 1.0), w_max=9)
        assert d.w_max == 9
        assert sum(d.probs) == pytest.approx(1.0)

    def test_w_max_below_support_rejected(self):
        with pytest.raises(ValueError):
            discretize_distribution(TruncatedGaussian(3.0, 1.0), w_max=4)


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


class TestValidation:
    def test_well_formed(self, t2):
        assert validate_problem(t2) == []

    def test_member_out_of_range(self, t2):
        bad = ProblemSpec(
            n=3,
            bundles=(Bundle(frozenset({5}), 1.0), Bundle(frozenset({1, 2, 3}), 2.0)),
            endowment=3.0,
            residual=PwlFunction.linear(0.7, 0.0, 3.0),
            distributions=(DiscreteMultinomial((1.0,)),) * 3,
            mode=MODE_DISCRETE,
        )
        assert any("out of range" in msg for msg in validate_problem(bad))

    def test_mode_distribution_mismatch(self, t1, c1):
        bad_discrete = ProblemSpec(
            t1.n, t1.bundles, t1.endowment, t1.residual,
            (TruncatedGaussian(1.0, 0.5),), MODE_DISCRETE,
        )
        assert any("mismatch" in msg for msg in validate_problem(bad_discrete))
        bad_continuous = ProblemSpec(
            c1.n, c1.bundles, c1.endowment, c1.residual,
            (DiscreteMultinomial((0.5, 0.5)),), MODE_CONTINUOUS,
        )
        assert any("mismatch" in msg for msg in validate_problem(bad_continuous))

    def test_residual_must_start_at_zero(self, t1):
        bad = ProblemSpec(
            t1.n, t1.bundles, t1.endowment,
            PwlFunction((0.0, 2.0), (0.5, 1.4)), t1.distributions, t1.mode,
        )
        assert validate_problem(bad)

    def test_residual_must_be_nondecreasing(self, t1):
        bad = ProblemSpec(
            t1.n, t1.bundles, t1.endowment,
            PwlFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.5)), t1.distributions, t1.mode,
        )
        assert validate_problem(bad)

    def test_residual_domain_must_cover_endowment(self, t1):
        bad = ProblemSpec(
            t1.n, t1.bundles, t1.endowment,
            PwlFunction.linear(0.7, 0.0, 1.0), t1.distributions, t1.mode,
        )
        assert validate_problem(bad)

    def test_every_resource_in_some_bundle(self):
        bad = ProblemSpec(
            n=2,
            bundles=(Bundle(frozenset({1}), 5.0),),
            endowment=2.0,
            residual=PwlFunction.linear(0.7, 0.0, 2.0),
            distributions=(DiscreteMultinomial((1.0,)),) * 2,
            mode=MODE_DISCRETE,
        )
        assert any("bundle" in msg for msg in validate_problem(bad))

    def test_distribution_count(self, t2):
        bad = ProblemSpec(
            t2.n, t2.bundles, t2.endowment, t2.residual,
            t2.distributions[:1], t2.mode,
        )
        assert validate_problem(bad)

    def test_ensure_valid(self, t2):
        assert ensure_valid(t2) is t2
        bad = ProblemSpec(
            t2.n, t2.bundles, t2.endowment, t2.residual,
            t2.distributions[:1], t2.mode,
        )
        with pytest.raises(ValueError):
            ensure_valid(bad)

    def test_infinite_endowment_rejected(self, t1, c1):
        inf = float("inf")
        for spec in (c1, t1):
            bad = replace(spec, endowment=inf, residual=PwlFunction.linear(0.7, 0.0, inf))
            problems = validate_problem(bad)
            assert any(msg.startswith("endowment: must be finite") for msg in problems)

    def test_infinite_bundle_value_rejected(self, c1):
        bad = replace(c1, bundles=(Bundle(frozenset({1}), float("inf")),))
        assert any(msg.startswith("bundles[0].value:") for msg in validate_problem(bad))

    def test_nan_residual_rejected(self, c1):
        bad = replace(c1, residual=PwlFunction.linear(float("nan"), 0.0, 2.0))
        assert any(msg.startswith("residual: knots must be finite")
                   for msg in validate_problem(bad))

    def test_deep_tail_gaussian_rejected(self, c1):
        # P(w > 0) is 0.0 at mean -50 std 0.5, 2.9e-7 at -5 std, 3.4e-6 at -4.5 std.
        for mean, bad in ((-50.0, True), (-2.5, True), (-2.25, False), (1.0, False)):
            spec = replace(c1, distributions=(TruncatedGaussian(mean, 0.5),))
            tagged = [msg for msg in validate_problem(spec) if msg.startswith("distributions[0]:")]
            assert bool(tagged) == bad

    def test_spec_file_member_must_be_integral(self, t2):
        data = spec_to_dict(t2)
        data["bundles"][0]["members"] = [1.5, 2]
        with pytest.raises(ValueError, match=r"bundles\[0\]\.members: 1\.5"):
            spec_from_dict(data)
        data["bundles"][0]["members"] = [1.0, 2]
        assert spec_from_dict(data).bundles == t2.bundles

    def test_bundle_value_must_be_positive(self):
        with pytest.raises(ValueError):
            Bundle(frozenset({1}), 0.0)
        with pytest.raises(ValueError):
            Bundle(frozenset({1}), -2.0)


class TestWinProbabilityHelper:
    def test_dispatches_to_either_kind(self):
        assert win_probability(DiscreteMultinomial((0.5, 0.5)), 1.0) == 0.5
        g = TruncatedGaussian(1.0, 0.5)
        assert win_probability(g, 1.0) == g.win_probability(1.0)
