"""Grid-based continuous solver: backups, refinement strategies, error ledger."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_q_max, random_small_instance
from seqbid import continuous, simulate
from seqbid.continuous import (
    CurveStack,
    DeltaLedger,
    HybridValueFunction,
    MaximizerConfig,
    UniformFixed,
    Vg1,
    Vg2,
    _interp_rows,
    _interp_table,
    _knot_positions,
    _layout_groups,
    _maximize_batch,
    error_bound,
    greedy_bid,
    maximize_bid,
    maximize_bid_many,
    q_value,
    solve_grid,
)
from seqbid.core import Bundle, ProblemSpec, TruncatedGaussian, ensure_valid, to_discrete
from seqbid.discrete import solve_discrete
from seqbid.experiment import GeneratorParams, generate_instance
from seqbid.io import read_grid_solution, write_grid_solution
from seqbid.pwl import PwlFunction, RefinementBudget


def small_instances(count: int, seed0: int = 0) -> list[ProblemSpec]:
    return [
        ensure_valid(random_small_instance(np.random.default_rng(seed0 + i)))
        for i in range(count)
    ]


def knot_backup_gap(spec: ProblemSpec, sol) -> float:
    """Worst |stored knot value - dense oracle backup| over unsettled components."""
    worst = 0.0
    for t in range(spec.n):
        for mask in range(1 << t):
            if (t, mask) in sol.settled:
                continue
            comp = sol.values.component(t, mask)
            win = sol.values.component(t + 1, mask | (1 << t))
            lose = sol.values.component(t + 1, mask)
            for x, y in comp.knots:
                _, q = dense_q_max(win, lose, spec.distributions[t], x)
                worst = max(worst, abs(y - q))
    return worst


class TestQValue:
    def test_c1_boundary_bid(self, c1):
        sol = solve_grid(c1, UniformFixed(3))
        nxt = {0: sol.values.component(1, 0), 1: sol.values.component(1, 1)}
        q = q_value(0, 2.0, 2.0, 0, nxt, c1.distributions[0])
        assert q == pytest.approx(9.80, abs=5e-3)

    def test_zero_bid_is_the_losing_value(self, c1):
        sol = solve_grid(c1, UniformFixed(3))
        nxt = {0: sol.values.component(1, 0), 1: sol.values.component(1, 1)}
        assert q_value(0, 2.0, 0.0, 0, nxt, c1.distributions[0]) == nxt[0](2.0)


class TestMaximizeBid:
    def test_c1_maximum_is_the_full_endowment(self, c1):
        sol = solve_grid(c1, UniformFixed(3))
        nxt = {0: sol.values.component(1, 0), 1: sol.values.component(1, 1)}
        z, q = maximize_bid(0, 2.0, 0, nxt, c1.distributions[0])
        assert z == pytest.approx(2.0, abs=1e-6)
        assert q == pytest.approx(9.80, abs=5e-3)

    def test_settled_holdings_bid_zero(self, c1):
        curve = PwlFunction.linear(0.7, 0.0, 2.0).shift(10.0)
        z, q = maximize_bid(1, 1.5, 0, {1: curve}, c1.distributions[0])
        assert z == 0.0
        assert q == curve(1.5)

    def test_zero_endowment_bids_zero(self, c1):
        sol = solve_grid(c1, UniformFixed(3))
        nxt = {0: sol.values.component(1, 0), 1: sol.values.component(1, 1)}
        z, q = maximize_bid(0, 0.0, 0, nxt, c1.distributions[0])
        assert z == 0.0
        assert q == nxt[0](0.0)

    def test_batch_matches_scalar(self, c1):
        sol = solve_grid(c1, UniformFixed(3))
        nxt = {0: sol.values.component(1, 0), 1: sol.values.component(1, 1)}
        ds = np.linspace(0.0, 2.0, 9)
        zs, qs = maximize_bid_many(0, ds, 0, nxt, c1.distributions[0])
        for i, d in enumerate(ds):
            z, q = maximize_bid(0, float(d), 0, nxt, c1.distributions[0])
            assert zs[i] == z and qs[i] == q

    def test_never_exceeds_endowment(self, c1):
        sol = solve_grid(c1, UniformFixed(5))
        nxt = {0: sol.values.component(1, 0), 1: sol.values.component(1, 1)}
        ds = np.linspace(0.0, 2.0, 21)
        zs, _ = maximize_bid_many(0, ds, 0, nxt, c1.distributions[0])
        assert np.all(zs >= 0.0) and np.all(zs <= ds + 1e-12)


class TestUniformGrid:
    def test_c1_knot_values(self, c1):
        sol = solve_grid(c1, UniformFixed(3))
        comp = sol.values.component(0, 0)
        assert comp.xs == (0.0, 1.0, 2.0)
        assert np.allclose(comp.ys, (0.0, 5.241749, 9.799794), atol=1e-4)

    def test_c1_knot_bids(self, c1):
        sol = solve_grid(c1, UniformFixed(3))
        assert np.allclose(sol.knot_bids[(0, 0)], (0.0, 1.0, 2.0), atol=1e-6)

    def test_origin_knot_is_zero(self, c1):
        sol = solve_grid(c1, UniformFixed(3))
        assert sol.values.component(0, 0)(0.0) == 0.0

    def test_terminal_components_are_shifted_residuals(self, c1):
        sol = solve_grid(c1, UniformFixed(4))
        assert sol.values.component(1, 0).ys == c1.residual.ys
        shifted = c1.residual.shift(10.0)
        assert sol.values.component(1, 1).ys == shifted.ys

    def test_components_are_monotone(self):
        for spec in small_instances(8):
            sol = solve_grid(spec, UniformFixed(6))
            for t in range(spec.n + 1):
                for mask in range(1 << min(t, spec.n)):
                    comp = sol.values.component(t, mask)
                    assert np.all(np.diff(comp.ys) >= -1e-9)

    def test_grid_point_exactness(self):
        for spec in small_instances(6, seed0=40):
            sol = solve_grid(spec, UniformFixed(5))
            assert knot_backup_gap(spec, sol) <= 1e-3

    def test_state_count(self, c1):
        assert solve_grid(c1, UniformFixed(3)).state_count == 3

    def test_state_count_skips_settled(self):
        spec = ProblemSpec(
            n=2,
            bundles=(Bundle(frozenset({1}), 10.0), Bundle(frozenset({1, 2}), 10.0)),
            endowment=4.0,
            residual=PwlFunction.linear(0.7, 0.0, 4.0),
            distributions=(TruncatedGaussian(1.0, 0.5),) * 2,
            mode="continuous",
        )
        sol = solve_grid(spec, UniformFixed(5))
        assert sol.settled == {(1, 0), (1, 1)}
        assert sol.state_count == 5
        assert sol.ledger.deltas[1] == 0.0

    def test_stores_reached_components_only(self):
        n = 18
        spec = ProblemSpec(
            n=n,
            bundles=(Bundle(frozenset(range(1, n + 1)), 100.0),),
            endowment=2.0,
            residual=PwlFunction.linear(0.7, 0.0, 2.0),
            distributions=(TruncatedGaussian(0.3, 0.3),) * n,
            mode="continuous",
        )
        sol = solve_grid(spec, UniformFixed(3))
        assert [len(layer) for layer in sol.values.components] == [1] + [2] * n
        assert sorted(sol.knot_bids) == [(t, (1 << t) - 1) for t in range(n)]
        assert len(sol.settled) == 2**n - 1 - n
        assert sol.state_count == 3 * n
        for t, mask in [(5, 0), (5, 30), (17, 1 << 16), (n, 5), (n, (1 << n) - 1)]:
            bonus = 100.0 if mask == (1 << n) - 1 else 0.0
            assert sol.values.component(t, mask) == spec.residual.shift(bonus)
            assert t == n or (t, mask) in sol.settled

    def test_needs_continuous_mode(self, t1):
        with pytest.raises(ValueError):
            solve_grid(t1, UniformFixed(3))

    def test_g_below_two_rejected(self):
        with pytest.raises(ValueError):
            UniformFixed(1)

    def test_deterministic(self, c1):
        a = solve_grid(c1, UniformFixed(7))
        b = solve_grid(c1, UniformFixed(7))
        for t in range(2):
            for mask in range(1 << min(t, 1)):
                assert a.values.component(t, mask).knots == b.values.component(t, mask).knots


class TestOneStageInterpolationError:
    def test_bounded_by_component_delta(self):
        for spec in small_instances(5, seed0=70):
            sol = solve_grid(spec, UniformFixed(5))
            for t in range(spec.n):
                for mask in range(1 << t):
                    if (t, mask) in sol.settled:
                        continue
                    comp = sol.values.component(t, mask)
                    nxt = {
                        mask: sol.values.component(t + 1, mask),
                        mask | (1 << t): sol.values.component(t + 1, mask | (1 << t)),
                    }
                    lattice = np.linspace(0.0, spec.endowment, 201)
                    _, exact = maximize_bid_many(
                        mask, lattice, t, nxt, spec.distributions[t]
                    )
                    gap = np.max(np.abs(comp.values(lattice) - exact))
                    delta, _ = comp.max_consecutive_delta()
                    assert gap <= delta + 1e-3


class TestAdaptiveStrategies:
    def test_vg1_respects_budget_and_stays_exact(self, c1):
        sol = solve_grid(c1, Vg1(RefinementBudget(10, 0.0)))
        comp = sol.values.component(0, 0)
        assert len(comp.xs) == 10
        assert sol.state_count == 10
        assert knot_backup_gap(c1, sol) <= 1e-3

    def test_vg2_pair_budget(self, c1):
        sol = solve_grid(c1, Vg2(RefinementBudget(10, 0.0)))
        comp = sol.values.component(0, 0)
        assert len(comp.xs) == 9  # 3 seeds + 3 flank pairs; a 4th pair would overflow
        assert sol.state_count == 9
        assert knot_backup_gap(c1, sol) <= 1e-3

    def test_vg1_threshold_controls_the_ledger(self, c1):
        sol = solve_grid(c1, Vg1(RefinementBudget(64, 0.5)))
        assert sol.ledger.deltas[0] < 0.5

    def test_adaptive_tightens_the_bound_over_uniform(self, c1):
        # VG1 targets the largest knot gap, so at equal knot counts its
        # certified bound (the stage delta) should not be worse than uniform's.
        for g in (4, 7, 10):
            uniform = solve_grid(c1, UniformFixed(g)).ledger.deltas[0]
            adaptive = solve_grid(c1, Vg1(RefinementBudget(g, 0.0))).ledger.deltas[0]
            assert adaptive <= uniform + 1e-9

    def test_bigger_budget_never_loosens_the_bound(self, c1):
        deltas = [
            solve_grid(c1, Vg1(RefinementBudget(g, 0.0))).ledger.deltas[0]
            for g in (4, 8, 16)
        ]
        assert deltas[0] >= deltas[1] >= deltas[2]


class TestErrorBound:
    def test_additive_accumulation(self):
        ledger = DeltaLedger([0.7, 2.0, 1.5])
        assert error_bound(ledger, 0) == pytest.approx(3.5)
        assert error_bound(ledger, 1) == pytest.approx(1.5)

    def test_terminal_stage_is_exact(self):
        ledger = DeltaLedger([0.7, 2.0, 1.5])
        assert error_bound(ledger, 2) == 0.0

    def test_stage_out_of_range(self):
        ledger = DeltaLedger([0.7, 1.5])
        with pytest.raises(ValueError):
            error_bound(ledger, -1)
        with pytest.raises(ValueError):
            error_bound(ledger, 2)

    def test_c1_ledger(self, c1):
        sol = solve_grid(c1, UniformFixed(3))
        assert sol.ledger.deltas[1] == pytest.approx(1.4)
        assert sol.ledger.deltas[0] == pytest.approx(5.241749, abs=1e-4)
        assert error_bound(sol.ledger, 0) == pytest.approx(1.4)
        assert error_bound(sol.ledger, 1) == 0.0

    def test_ledger_length_tracks_stages(self):
        for spec in small_instances(4, seed0=90):
            sol = solve_grid(spec, UniformFixed(4))
            assert len(sol.ledger.deltas) == spec.n + 1
            assert sol.ledger.n == spec.n


class TestHybridValueFunction:
    def test_accessor_matches_component(self, c1):
        sol = solve_grid(c1, UniformFixed(5))
        v = sol.values
        for t in (0, 1):
            for mask in range(1 << min(t, 1)):
                comp = v.component(t, mask)
                for d in np.linspace(0.0, 2.0, 7):
                    assert v.value(t, mask, float(d)) == comp(float(d))

    def test_holdings_sets_accepted(self, c1):
        sol = solve_grid(c1, UniformFixed(5))
        assert sol.values.value(1, {1}, 1.0) == sol.values.value(1, 1, 1.0)

    def test_greedy_bid_matches_maximizer(self, c1):
        sol = solve_grid(c1, UniformFixed(5))
        nxt = {0: sol.values.component(1, 0), 1: sol.values.component(1, 1)}
        z, _ = maximize_bid(0, 2.0, 0, nxt, c1.distributions[0])
        assert greedy_bid(sol.values, 0, 2.0, 0, c1.distributions[0]) == z


class TestGridSolutionIo:
    def test_csv_round_trip(self, c1, tmp_path):
        sol = solve_grid(c1, UniformFixed(4))
        path = tmp_path / "grid.csv"
        write_grid_solution(sol, path)
        values, bids = read_grid_solution(path)
        assert values.m == sol.values.m
        for t in (0, 1):
            for mask in range(1 << min(t, 1)):
                got = values.component(t, mask)
                want = sol.values.component(t, mask)
                assert got.xs == pytest.approx(want.xs)
                assert got.ys == pytest.approx(want.ys)
        assert np.allclose(bids[(0, 0)], sol.knot_bids[(0, 0)], atol=1e-12)

    def test_round_trip_on_random_instance(self, tmp_path):
        spec = small_instances(1, seed0=123)[0]
        sol = solve_grid(spec, UniformFixed(6))
        path = tmp_path / "grid.csv"
        write_grid_solution(sol, path)
        values, _ = read_grid_solution(path)
        lattice = np.linspace(0.0, spec.endowment, 17)
        for t in range(spec.n + 1):
            for mask in range(1 << min(t, spec.n)):
                a = values.component(t, mask).values(lattice)
                b = sol.values.component(t, mask).values(lattice)
                assert np.allclose(a, b, atol=1e-12)


class TestMaximizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaximizerConfig(samples_per_segment=0)
        with pytest.raises(ValueError):
            MaximizerConfig(refine_tolerance=-1.0)

    def test_finer_sampling_never_hurts_c1(self, c1):
        coarse = solve_grid(c1, UniformFixed(5), MaximizerConfig(4, 1e-3))
        fine = solve_grid(c1, UniformFixed(5), MaximizerConfig(64, 1e-6))
        gap_c = knot_backup_gap(c1, coarse)
        gap_f = knot_backup_gap(c1, fine)
        assert gap_f <= gap_c + 1e-9
        assert gap_f <= 1e-4


class CountingDist:
    """A distribution that counts win_probability_vec calls: one per scan, one
    per golden-section step and one for the polished midpoint."""

    def __init__(self, dist):
        self.dist, self.calls = dist, 0

    def win_probability_vec(self, z):
        self.calls += 1
        return self.dist.win_probability_vec(z)


@pytest.fixture(scope="module")
def stage_pools():
    """(distribution, endowment, next-stage curves) per stage of two generator
    instances: stored grid and closed-form curves, plus closed forms looked up."""
    pools = []
    for seed, g in ((1000, 7), (1001, 5)):
        spec = generate_instance(GeneratorParams(seed=seed))
        sol = solve_grid(spec, UniformFixed(g))
        for t in range(spec.n):
            layer = sol.values.components[t + 1]
            curves = list(layer.values()) + [layer[mask] for mask in range(min(2 << t, 8))]
            pools.append((spec.distributions[t], spec.endowment, curves))
    return pools


def assert_stack_matches_pairs(pairs, dist, rows, cfg):
    """Stacked calls per knot-layout group equal one-pair calls bit for bit."""
    for idx, win, lose in _layout_groups(pairs):
        zs, qs = _maximize_batch(win, lose, dist, rows[idx], cfg)
        assert zs.shape == qs.shape == rows[idx].shape
        for i, z, q in zip(idx, zs, qs):
            z1, q1 = _maximize_batch(*pairs[i], dist, rows[i], cfg)
            assert np.array_equal(z, z1) and np.array_equal(q, q1)


class TestStackedMaximizer:
    @given(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interp_rows_replays_np_interp(self, gaps, data):
        xp = np.cumsum([data.draw(st.floats(-5.0, 5.0))] + gaps)
        curves = st.lists(st.floats(-100.0, 100.0), min_size=len(xp), max_size=len(xp))
        fp = np.array(data.draw(st.lists(curves, min_size=1, max_size=4)))
        between = data.draw(st.lists(st.floats(xp[0] - 2.0, xp[-1] + 2.0), max_size=20))
        # Every knot, both ends and beyond them, midpoints, and arbitrary points.
        x = np.concatenate([xp, (xp[:-1] + xp[1:]) / 2, [xp[0] - 1.0, xp[-1] + 1.0], between])
        stack = CurveStack([PwlFunction(tuple(xp), tuple(ys)) for ys in fp])
        _, edges, values, slopes = _interp_table(stack)
        shared = _interp_rows(_knot_positions(x, xp, edges), values, slopes)
        per_row = _interp_rows(_knot_positions(np.tile(x, (len(fp), 1)), xp, edges), values,
                               slopes, np.arange(len(fp))[:, None])
        for c in range(len(fp)):
            want = np.interp(x, xp, fp[c]).view(np.int64)
            assert np.array_equal(shared[c].view(np.int64), want)
            assert np.array_equal(per_row[c].view(np.int64), want)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_grid_and_closed_form_stacks_match_one_pair_calls(self, stage_pools, data):
        dist, m, curves = data.draw(st.sampled_from(stage_pools))
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(curves), st.sampled_from(curves)),
                                   min_size=1, max_size=12))
        width = data.draw(st.integers(1, 8))
        choices = [np.array(data.draw(st.lists(st.floats(0.0, m), min_size=width,
                                               max_size=width))) for _ in range(2)]
        rows = np.array([choices[data.draw(st.integers(0, 1))] for _ in pairs])
        cfg = MaximizerConfig(data.draw(st.integers(2, 40)),
                              data.draw(st.sampled_from([1e-6, 1e-4, 1e-2])))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(continuous, "_MAX_STACK_CELLS",
                       data.draw(st.sampled_from([1, 3000, continuous._MAX_STACK_CELLS])))
            assert_stack_matches_pairs(pairs, dist, rows, cfg)

    @pytest.mark.parametrize("cap", [1, 1000, None])
    def test_unpolished_pair_and_differing_polish_counts(self, monkeypatch, cap):
        xs = (0.0, 1.0, 1.99995, 2.0)
        flat = PwlFunction.linear(0.0, 0.0, 2.0)
        rising = PwlFunction(xs, (0.0, 10.0, 19.9995, 20.0))
        pairs = [
            (PwlFunction(xs, (0.0,) * 4), flat.shift(10.0)),  # bids 0; bracket 5e-5 wide
            (rising, flat),  # interior best bid near 1.18, between lattice points
            (rising, flat.shift(4.0)),  # interior best bid near 1.0, next to the kink d - 1
            (PwlFunction(xs, (50.0,) * 4), flat),  # bids everything
        ]
        dist = TruncatedGaussian(1.0, 0.5)
        rows = np.tile([0.0, 2.0], (len(pairs), 1))
        cfg = MaximizerConfig()
        calls = []
        for win, lose in pairs:
            counting = CountingDist(dist)
            _maximize_batch(win, lose, counting, rows[0], cfg)
            calls.append(counting.calls)
        assert calls[0] == 1 and calls[1] != calls[2]
        if cap is not None:
            monkeypatch.setattr(continuous, "_MAX_STACK_CELLS", cap)
        assert_stack_matches_pairs(pairs, dist, rows, cfg)

    def test_single_curve_stack_is_one_pair(self, c1):
        sol = solve_grid(c1, UniformFixed(4))
        win, lose = sol.values.component(1, 1), sol.values.component(1, 0)
        ds = np.linspace(0.0, 2.0, 7)
        stacked = _maximize_batch(CurveStack([win]), CurveStack([lose]), c1.distributions[0],
                                  ds[None], MaximizerConfig())
        single = _maximize_batch(win, lose, c1.distributions[0], ds, MaximizerConfig())
        assert np.array_equal(stacked[0][0], single[0]) and np.array_equal(stacked[1][0], single[1])


@pytest.fixture(scope="module")
def instance_1000():
    spec = generate_instance(GeneratorParams(seed=1000))
    return spec, solve_grid(spec, UniformFixed(15)), solve_discrete(to_discrete(spec))


class TestStageBatchedCalls:
    """One maximizer call per stage and (win, lose) knot layout, not per component."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        inner = continuous._maximize_batch

        def counted(win, lose, dist, ds, cfg):
            seen.append(np.size(ds))
            return inner(win, lose, dist, ds, cfg)

        monkeypatch.setattr(continuous, "_maximize_batch", counted)
        monkeypatch.setattr(simulate, "_maximize_batch", counted)
        return seen

    @staticmethod
    def layouts(values, components):
        return {(t, values.components[t + 1][mask | 1 << t].xs, values.components[t + 1][mask].xs)
                for t, mask in components}

    def test_solve_grid(self, instance_1000, calls):
        spec, ref, _ = instance_1000
        sol = solve_grid(spec, UniformFixed(15))
        unsettled = list(sol.knot_bids)
        assert len(unsettled) == 161 and sum(calls) == 15 * 161 == 2415
        assert len(calls) == len(self.layouts(sol.values, unsettled)) <= 2 * spec.n
        assert sol.values.components == ref.values.components

    def test_compare_solutions(self, instance_1000, calls):
        spec, sol, exact = instance_1000
        report = simulate.compare_solutions(exact, sol.values, spec)
        unsettled = [(t, mask) for t in range(spec.n) for mask in exact.stage_values[t]
                     if (t, mask) not in exact.settled]
        assert len(unsettled) == 161 and sum(calls) == report.states == 4991
        assert len(calls) == len(self.layouts(sol.values, unsettled)) <= 2 * spec.n
