"""Piecewise-linear primitives and the two adaptive refiners."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbid.pwl import (
    MAX_KNOTS,
    MIN_SPLIT_WIDTH,
    PwlFunction,
    RefinementBudget,
    vg1_refine,
    vg2_refine,
)


def kink_oracle(d: float) -> float:
    """min(2d, d + 4): slope 2 up to the kink at 4, then slope 1."""
    return min(2.0 * d, d + 4.0)


@st.composite
def monotone_pwl(draw) -> PwlFunction:
    xs = draw(
        st.lists(
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    xs = sorted(xs)
    steps = draw(
        st.lists(
            st.floats(0.0, 50.0, allow_nan=False),
            min_size=len(xs) - 1,
            max_size=len(xs) - 1,
        )
    )
    ys = [0.0]
    for s in steps:
        ys.append(ys[-1] + s)
    return PwlFunction(tuple(xs), tuple(ys))


class TestEvaluation:
    def test_midpoint_of_segment(self):
        f = PwlFunction.from_knots([(0.0, 1.4), (2.0, 10.0)])
        assert f(1.0) == pytest.approx(5.7)

    def test_interior_point_of_second_segment(self):
        f = PwlFunction.from_knots([(0.0, 0.0), (4.0, 8.0), (8.0, 12.0)])
        assert f(6.0) == pytest.approx(10.0)

    def test_knot_identity(self):
        f = PwlFunction.from_knots([(0.0, 0.0), (1.5, 2.25), (4.0, 8.0)])
        for x, y in f.knots:
            assert f(x) == y
        assert np.array_equal(f.values(np.array(f.xs)), np.array(f.ys))

    def test_knots_too_close_for_a_float_slope(self):
        # rise / gap overflows to inf here; values must still lie on the segment
        f = PwlFunction((0.0, 2.2250738585e-313, 1.0), (0.0, 1.0, 2.0))
        xs = np.linspace(0.0, 2.2250738585e-313, 9)
        vals = f.values(xs)
        assert np.all(np.isfinite(vals)) and vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= 0.0) and vals[4] == pytest.approx(0.5, abs=1e-9)
        assert [f(float(x)) for x in xs] == list(vals)
        assert f(0.5) == 1.5

    def test_no_extrapolation(self):
        f = PwlFunction.linear(0.7, 0.0, 2.0)
        with pytest.raises(ValueError):
            f(-0.1)
        with pytest.raises(ValueError):
            f(2.1)
        with pytest.raises(ValueError):
            f.values(np.array([0.0, 2.5]))

    def test_nan_refused(self):
        f = PwlFunction.linear(0.7, 0.0, 2.0)
        with pytest.raises(ValueError, match=r"^point nan outside domain"):
            f(float("nan"))
        with pytest.raises(ValueError, match=r"^points outside domain"):
            f.values(np.array([0.0, np.nan, 1.0]))

    def test_linear_constructor(self):
        f = PwlFunction.linear(0.7, 0.0, 30.0)
        assert f.xs == (0.0, 30.0)
        assert f(30.0) == pytest.approx(21.0)
        assert f.domain == (0.0, 30.0)

    def test_constructor_rejects_bad_knots(self):
        with pytest.raises(ValueError):
            PwlFunction((0.0,), (1.0,))
        with pytest.raises(ValueError):
            PwlFunction((0.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            PwlFunction((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            PwlFunction((0.0, 0.0), (0.0, 1.0))


class TestKnotEdits:
    def test_shift(self):
        f = PwlFunction.linear(0.7, 0.0, 2.0).shift(10.0)
        assert f.ys == (10.0, 11.4)
        assert f.xs == (0.0, 2.0)


class TestMaxConsecutiveDelta:
    def test_three_knots(self):
        f = PwlFunction.from_knots([(0.0, 1.4), (1.0, 6.05), (2.0, 10.0)])
        assert f.max_consecutive_delta() == (pytest.approx(4.65), 0)

    def test_constant(self):
        f = PwlFunction((0.0, 1.0, 2.0), (3.0, 3.0, 3.0))
        assert f.max_consecutive_delta() == (0.0, 0)

    def test_two_knots(self):
        f = PwlFunction.from_knots([(0.0, 0.0), (8.0, 12.0)])
        assert f.max_consecutive_delta() == (12.0, 0)

    def test_rejects_decreasing(self):
        f = PwlFunction((0.0, 1.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            f.max_consecutive_delta()


class TestRefinementBudget:
    @pytest.mark.parametrize("threshold", [-0.1, float("nan")])
    def test_threshold_must_be_nonnegative(self, threshold):
        with pytest.raises(ValueError, match=f"^threshold: {threshold} must be nonnegative$"):
            RefinementBudget(15, threshold)

    def test_max_knots_at_least_two(self):
        with pytest.raises(ValueError, match="max_knots"):
            RefinementBudget(1, 0.0)

    @pytest.mark.parametrize("max_knots", [MAX_KNOTS + 1, 10**9])
    def test_max_knots_at_most_the_knot_limit(self, max_knots):
        # Constructing only: a refiner places no knot before a solve.
        assert RefinementBudget(MAX_KNOTS, 0.0).max_knots == 10_001
        with pytest.raises(ValueError,
                           match=f"^max_knots: {max_knots} must be between 2 and 10,001$"):
            RefinementBudget(max_knots, 0.0)


class TestVg1:
    def test_budget_two_returns_endpoints(self):
        f = vg1_refine(kink_oracle, (0.0, 8.0), RefinementBudget(2, 0.0))
        assert f.knots == ((0.0, 0.0), (8.0, 12.0))

    def test_kink_oracle_budget_four(self):
        f = vg1_refine(kink_oracle, (0.0, 8.0), RefinementBudget(4, 0.0))
        assert f.xs == (0.0, 2.0, 4.0, 8.0)
        assert f.ys == (0.0, 4.0, 8.0, 12.0)

    def test_threshold_stops_before_budget(self):
        f = vg1_refine(kink_oracle, (0.0, 8.0), RefinementBudget(64, 3.5))
        deltas = np.diff(f.ys)
        assert deltas.max() < 3.5
        assert len(f.xs) < 64

    def test_linear_oracle_spends_full_budget(self):
        f = vg1_refine(lambda d: 0.7 * d, (0.0, 30.0), RefinementBudget(15, 1e-6))
        assert len(f.xs) == 15

    def test_knot_values_match_oracle(self):
        f = vg1_refine(kink_oracle, (0.0, 8.0), RefinementBudget(9, 0.0))
        for x, y in f.knots:
            assert y == pytest.approx(kink_oracle(x))


class TestVg2:
    def test_linear_oracle_three_knots(self):
        f = vg2_refine(lambda d: 0.7 * d, (0.0, 30.0), RefinementBudget(15, 1e-6))
        assert f.xs == (0.0, 15.0, 30.0)

    def test_budget_two_is_just_the_endpoints(self):
        seen = []
        f = vg2_refine(lambda d: seen.append(d) or kink_oracle(d), (0.0, 8.0),
                       RefinementBudget(2, 0.0))
        assert (f.xs, f.ys, seen) == ((0.0, 8.0), (0.0, 12.0), [0.0, 8.0])

    def test_budget_three_is_just_the_seed(self):
        f = vg2_refine(kink_oracle, (0.0, 8.0), RefinementBudget(3, 0.0))
        assert f.xs == (0.0, 4.0, 8.0)

    def test_expansion_needs_room_for_a_pair(self):
        f = vg2_refine(kink_oracle, (0.0, 8.0), RefinementBudget(4, 0.0))
        assert f.xs == (0.0, 4.0, 8.0)

    def test_kink_oracle_expands_once(self):
        f = vg2_refine(kink_oracle, (0.0, 8.0), RefinementBudget(16, 1e-9))
        assert f.xs == (0.0, 2.0, 4.0, 6.0, 8.0)
        assert f.ys == (0.0, 4.0, 8.0, 10.0, 12.0)

    def test_knot_values_match_oracle(self):
        f = vg2_refine(kink_oracle, (0.0, 8.0), RefinementBudget(9, 0.0))
        for x, y in f.knots:
            assert y == pytest.approx(kink_oracle(x))


class TestRefinerInvariants:
    @pytest.mark.parametrize("refine", [vg1_refine, vg2_refine])
    def test_deterministic(self, refine):
        runs = [
            refine(kink_oracle, (0.0, 8.0), RefinementBudget(12, 0.0))
            for _ in range(2)
        ]
        assert runs[0].xs == runs[1].xs
        assert runs[0].ys == runs[1].ys

    @pytest.mark.parametrize("refine", [vg1_refine, vg2_refine])
    @pytest.mark.parametrize("budget", [2, 3, 7, 20])
    def test_budget_respected(self, refine, budget):
        if refine is vg2_refine and budget == 2:
            budget = 3
        f = refine(kink_oracle, (0.0, 8.0), RefinementBudget(budget, 0.0))
        assert 2 <= len(f.xs) <= budget

    @pytest.mark.parametrize("refine", [vg1_refine, vg2_refine])
    def test_endpoints_always_present(self, refine):
        f = refine(kink_oracle, (0.0, 8.0), RefinementBudget(5, 0.0))
        assert f.xs[0] == 0.0 and f.xs[-1] == 8.0

    def test_min_split_width_guard(self):
        # A step evaluator keeps the largest delta on one shrinking interval;
        # the refiner must stop rather than split below the width floor.
        step = lambda d: 0.0 if d < 1.0 else 10.0
        f = vg1_refine(step, (0.0, 2.0), RefinementBudget(200, 0.0))
        assert len(f.xs) <= 200
        assert min(np.diff(f.xs)) >= MIN_SPLIT_WIDTH / 2


@given(monotone_pwl())
@settings(max_examples=120, deadline=None)
def test_eval_between_knot_values(f: PwlFunction):
    grid = np.linspace(f.xs[0], f.xs[-1], 37)
    vals = f.values(grid)
    assert vals.min() >= f.ys[0] - 1e-9
    assert vals.max() <= f.ys[-1] + 1e-9
    assert np.all(np.diff(vals) >= -1e-9)


@given(monotone_pwl(), st.floats(0.0, 1.0))
@settings(max_examples=120, deadline=None)
def test_scalar_matches_vector_eval(f: PwlFunction, frac: float):
    x = f.xs[0] + frac * (f.xs[-1] - f.xs[0])
    assert f(x) == pytest.approx(float(f.values(np.array([x]))[0]), abs=1e-12)


@given(monotone_pwl())
@settings(max_examples=120, deadline=None)
def test_max_delta_bounds_interpolation_jump(f: PwlFunction):
    delta, idx = f.max_consecutive_delta()
    diffs = [b - a for a, b in zip(f.ys, f.ys[1:])]
    assert delta == pytest.approx(max(diffs))
    assert diffs[idx] == pytest.approx(delta)
