"""Grid-based continuous solver: backups, refinement strategies, error ledger."""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import dense_q_max, per_component_compare, per_knot_grid, random_small_instance
from seqbid import continuous, core, experiment, simulate
from seqbid.continuous import (
    CurveStack,
    DeltaLedger,
    HybridValueFunction,
    MaximizerConfig,
    UniformFixed,
    Vg1,
    Vg2,
    _Unsolved,
    _answer_from,
    _interp_rows,
    _interp_table,
    _knot_positions,
    _maximize_batch,
    _maximize_pairs,
    _stored,
    error_bound,
    solve_grid,
)
from seqbid.core import Bundle, ProblemSpec, TruncatedGaussian, ensure_valid, to_discrete
from seqbid.discrete import solve_discrete
from seqbid.experiment import (ExperimentConfig, GeneratorParams, generate_instance,
                               run_experiment_suite)
from seqbid.io import read_grid_solution, write_grid_solution
from seqbid.pwl import MAX_KNOTS, PwlFunction, RefinementBudget


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


def c1_pair(c1, g: int):
    """Stage-1 (win, lose) curves of c1's grid solve at g knots."""
    sol = solve_grid(c1, UniformFixed(g))
    return sol.values.component(1, 1), sol.values.component(1, 0)


class TestMaximizeBid:
    def test_c1_maximum_is_the_full_endowment(self, c1):
        win, lose = c1_pair(c1, 3)
        zs, qs = _maximize_batch(win, lose, c1.distributions[0], np.array([2.0]),
                                 MaximizerConfig())
        assert zs[0] == pytest.approx(2.0, abs=1e-6)
        assert qs[0] == pytest.approx(9.80, abs=5e-3)

    def test_settled_holdings_bid_zero(self, c1):
        curve = PwlFunction.linear(0.7, 0.0, 2.0).shift(10.0)
        zs, qs = _maximize_batch(curve, curve, c1.distributions[0], np.array([1.5]),
                                 MaximizerConfig())
        assert zs[0] == 0.0
        assert qs[0] == curve(1.5)

    def test_zero_endowment_bids_zero(self, c1):
        win, lose = c1_pair(c1, 3)
        zs, qs = _maximize_batch(win, lose, c1.distributions[0], np.array([0.0]),
                                 MaximizerConfig())
        assert zs[0] == 0.0
        assert qs[0] == lose(0.0)

    def test_batch_matches_scalar(self, c1):
        win, lose = c1_pair(c1, 3)
        dist, cfg = c1.distributions[0], MaximizerConfig()
        ds = np.linspace(0.0, 2.0, 9)
        zs, qs = _maximize_batch(win, lose, dist, ds, cfg)
        for i, d in enumerate(ds):
            z, q = _maximize_batch(win, lose, dist, np.array([d]), cfg)
            assert zs[i] == z[0] and qs[i] == q[0]

    def test_never_exceeds_endowment(self, c1):
        win, lose = c1_pair(c1, 5)
        ds = np.linspace(0.0, 2.0, 21)
        zs, _ = _maximize_batch(win, lose, c1.distributions[0], ds, MaximizerConfig())
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

    def test_g_above_the_knot_limit_rejected(self):
        # Constructing only: no knot is placed before a solve.
        assert UniformFixed(MAX_KNOTS).g == 10_001
        for g in (MAX_KNOTS + 1, 10**9):
            with pytest.raises(ValueError, match=f"^g: {g} must be between 2 and 10,001$"):
                UniformFixed(g)

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
                    lattice = np.linspace(0.0, spec.endowment, 201)
                    _, exact = _maximize_batch(
                        sol.values.component(t + 1, mask | (1 << t)),
                        sol.values.component(t + 1, mask),
                        spec.distributions[t], lattice, MaximizerConfig(),
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
        # Stage t's bound charges stages t..n-1; the terminal entry 1.5 is exact.
        ledger = DeltaLedger([0.7, 2.0, 1.5])
        assert error_bound(ledger, 0) == pytest.approx(2.7)
        assert error_bound(ledger, 1) == pytest.approx(2.0)

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
        assert error_bound(sol.ledger, 0) == pytest.approx(5.241749, abs=1e-4)
        assert error_bound(sol.ledger, 1) == 0.0

    def test_holds_on_a_flat_residual(self):
        # A flat residual has no terminal knot gap to lend slack, so a bound that
        # leaves out stage t's own delta falls below G5's deviation from a G101
        # reference (by up to 5.6 on this instance); each grid's own bound at
        # stage t, summed, covers that deviation at every unsettled component.
        spec = generate_instance(GeneratorParams(seed=1000, residual_slope=0.0))
        coarse, fine = solve_grid(spec, UniformFixed(5)), solve_grid(spec, UniformFixed(101))
        lattice = np.linspace(0.0, spec.endowment, 301)
        assert len(fine.knot_bids) == 161
        for t, mask in fine.knot_bids:
            deviation = np.max(np.abs(coarse.values.component(t, mask).values(lattice)
                                      - fine.values.component(t, mask).values(lattice)))
            assert deviation <= error_bound(coarse.ledger, t) + error_bound(fine.ledger, t)

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

    def test_stage_outside_0_to_n_refused(self):
        # On generator instance 1000 (n = 9), stage -1 used to read stage 9's curve.
        g5 = solve_grid(generate_instance(GeneratorParams(seed=1000)), UniformFixed(5)).values
        for t in (-1, -10, 10):
            with pytest.raises(ValueError, match=rf"^t: stage {t} is outside 0\.\.9$"):
                g5.value(t, 0, 3.0)
            with pytest.raises(ValueError, match=rf"^t: stage {t} is outside 0\.\.9$"):
                g5.component(t, 0)
        assert g5.value(9, 0, 3.0) == g5.component(9, 0)(3.0)

    def test_greedy_bid_matches_maximizer(self, c1):
        sol = solve_grid(c1, UniformFixed(5))
        zs, _ = _maximize_batch(sol.values.component(1, 1), sol.values.component(1, 0),
                                c1.distributions[0], np.array([2.0]), MaximizerConfig())
        assert simulate.greedy_policy(sol.values, c1)(0, 0, 2.0) == zs[0]


class TestGridSolutionIo:
    def test_csv_round_trip(self, c1, tmp_path):
        sol = solve_grid(c1, UniformFixed(4))
        path = tmp_path / "grid.csv"
        write_grid_solution(sol, path)
        back = read_grid_solution(path, c1)
        values, bids = back.values, back.knot_bids
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
        values = read_grid_solution(path, spec).values
        lattice = np.linspace(0.0, spec.endowment, 17)
        for t in range(spec.n + 1):
            for mask in range(1 << min(t, spec.n)):
                a = values.component(t, mask).values(lattice)
                b = sol.values.component(t, mask).values(lattice)
                assert np.allclose(a, b, atol=1e-12)


class TestMaximizerConfig:
    def test_finer_sampling_never_hurts_c1(self, c1):
        # c1's G5 backup at its five knots: stage 0 against the terminal curves.
        win, lose = c1_pair(c1, 5)
        dist, xs = c1.distributions[0], np.linspace(0.0, c1.endowment, 5)
        oracle = np.array([dense_q_max(win, lose, dist, x)[1] for x in xs])

        def gap(cfg):
            return np.max(np.abs(_maximize_batch(win, lose, dist, xs, cfg)[1] - oracle))

        gap_c = gap(MaximizerConfig(4, 1e-3))
        gap_f = gap(MaximizerConfig(64, 1e-6))
        assert gap_f <= gap_c + 1e-9
        assert gap_f <= 1e-4


class CountingDist:
    """A distribution that counts win_probability_vec calls (one per scan, one per
    golden-section step and one for the polished midpoint) and their elements."""

    def __init__(self, dist):
        self.dist, self.calls, self.elems = dist, 0, []

    def win_probability_vec(self, z):
        self.calls += 1
        self.elems.append(np.size(z))
        return self.dist.win_probability_vec(z)


@pytest.fixture(scope="module")
def stage_pools():
    """(distribution, endowment, next-stage curves) per stage of two generator
    instances: stored grid and closed-form curves, plus closed forms looked up.
    The Vg-solved stages hold curves with one knot count but different knots."""
    pools = []
    for seed, strategy in ((1000, UniformFixed(7)), (1001, UniformFixed(5)),
                           (1000, Vg1(RefinementBudget(9, 0.0))),
                           (1001, Vg2(RefinementBudget(9, 0.01)))):
        spec = generate_instance(GeneratorParams(seed=seed))
        sol = solve_grid(spec, strategy)
        for t in range(spec.n):
            layer = sol.values.components[t + 1]
            curves = list(layer.values()) + [layer[mask] for mask in range(min(2 << t, 8))]
            pools.append((spec.distributions[t], spec.endowment, curves))
    return pools


def assert_stack_matches_pairs(pairs, dist, rows):
    """Stacked calls per knot-layout group equal one-pair calls bit for bit; dist is one
    distribution or a list of one per pair."""
    laws = dist if isinstance(dist, list) else [dist] * len(pairs)
    for pair, law, row, (z, q) in zip(pairs, laws, rows, _maximize_pairs(pairs, rows, dist)):
        assert z.shape == q.shape == row.shape
        z1, q1 = _maximize_batch(*pair, law, row, continuous._MAXIMIZER)
        assert np.array_equal(z, z1) and np.array_equal(q, q1)


def random_curve(data, m: float, counts: list[int]) -> PwlFunction:
    """A nondecreasing curve over [0, m] with one of `counts` knots, even or uneven."""
    k = data.draw(st.sampled_from(counts))
    inner = data.draw(st.lists(st.floats(0.01 * m, 0.99 * m), min_size=k - 2, max_size=k - 2,
                               unique=True))
    xs = np.linspace(0.0, m, k) if data.draw(st.booleans()) else [0.0, *sorted(inner), m]
    rises = data.draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k))
    return PwlFunction(tuple(map(float, xs)), tuple(np.cumsum(rises).tolist()))


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
        # Vg pools stack curves that share a knot count but not their knots.
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
            mp.setattr(continuous, "_MAXIMIZER", cfg)
            assert_stack_matches_pairs(pairs, dist, rows)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_stacks_mixing_distributions_match_one_pair_calls(self, stage_pools, data):
        # Pairs from consecutive pool entries, mostly stages of one solve, each under its
        # own stage's distribution.  A row shared by every pair sends calls whose win
        # curves share their knots through the shared scan; rows of their own, or win
        # curves with their own knots, through the per-cell scan.
        first = data.draw(st.integers(0, len(stage_pools) - 2))
        entries = stage_pools[first : first + data.draw(st.integers(2, 4))]
        width = data.draw(st.integers(1, 6))

        def row(m):
            return np.array(data.draw(st.lists(st.floats(0.0, m), min_size=width,
                                               max_size=width)))

        shared = row(min(m for _, m, _ in entries)) if data.draw(st.booleans()) else None
        pairs, dists, rows = [], [], []
        for dist, m, curves in entries:
            own = row(m) if shared is None else shared
            for _ in range(data.draw(st.integers(1, 4))):
                pairs.append(data.draw(st.tuples(st.sampled_from(curves),
                                                 st.sampled_from(curves))))
                dists.append(dist)
                rows.append(own)
        cfg = MaximizerConfig(data.draw(st.integers(2, 40)),
                              data.draw(st.sampled_from([1e-6, 1e-4, 1e-2])))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(continuous, "_MAX_STACK_CELLS",
                       data.draw(st.sampled_from([1, 3000, continuous._MAX_STACK_CELLS])))
            mp.setattr(continuous, "_MAXIMIZER", cfg)
            assert_stack_matches_pairs(pairs, dists, np.array(rows))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_window_reads_replay_np_interp(self, data):
        # Points anywhere in [0, m], the last knot included, read through windows of
        # a stack mixing knot counts and knots, against each curve's np.interp.
        m = data.draw(st.sampled_from([2.0, 7.5, 30.0]))
        curves = [random_curve(data, m, [2, 5, 15]) for _ in range(data.draw(st.integers(2, 6)))]
        assume(len({c.xs for c in curves}) > 1)  # a window is only read from rows of knots
        sel = np.array(data.draw(st.permutations(range(len(curves)))))
        ends = np.sort(data.draw(st.lists(st.lists(st.sampled_from([0.0, m]) | st.floats(0.0, m),
                                                   min_size=2, max_size=2),
                                          min_size=len(sel), max_size=len(sel))), axis=1)
        frac = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
        x = ends[:, :1] + frac * (ends[:, 1:] - ends[:, :1])
        x = np.concatenate([ends, np.clip(x, ends[:, :1], ends[:, 1:])], axis=1)
        lo, hi = (np.tile(ends[:, i : i + 1], x.shape[1]) for i in (0, 1))
        table = continuous._window(_interp_table(CurveStack(curves)), sel, lo, hi)
        for first in (0, len(sel) - 1):
            got = continuous._values_at(table, x[first:], first)
            for row, c in enumerate(sel[first:]):
                want = np.interp(x[first + row], curves[c]._ax, curves[c]._ay)
                assert np.array_equal(got[row].view(np.int64), want.view(np.int64))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_knot_counts_match_one_pair_calls(self, data):
        # One call stacks win curves of 2, 5 and 15 knots, even or uneven, lose curves
        # of other counts and a distribution per pair; rows shared by all pairs, rows of
        # their own, or a solve_grids stage's: the even knots of each win knot count,
        # padded to the widest, equal within a knot-count group and unequal across them.
        m = data.draw(st.sampled_from([2.0, 7.5, 30.0]))
        size = data.draw(st.integers(2, 8))
        pairs = [(random_curve(data, m, [2, 5, 15]), random_curve(data, m, [2, 3, 7]))
                 for _ in range(size)]
        stds = [data.draw(st.floats(0.1, 3.0)) for _ in pairs]  # P(w > 0) >= 3.4e-6
        laws = [TruncatedGaussian(data.draw(st.floats(max(-1.0, -4.5 * std), m)), std)
                for std in stds]
        width = data.draw(st.integers(1, 5))
        row = st.lists(st.floats(0.0, m), min_size=width, max_size=width)
        shape = data.draw(st.sampled_from(["shared", "own", "stage"]))
        rows = ([np.array(data.draw(row))] * size if shape == "shared" else
                [np.array(data.draw(row)) for _ in pairs] if shape == "own" else
                [np.linspace(0.0, m, len(win.xs)) for win, _ in pairs])
        assert_stack_matches_pairs(pairs, laws, rows)

    def test_padding_adds_no_scan_work(self):
        # A solve_grids stage stacks G5 and G15 units, the G5 rows padded with their
        # last endowment to 15: the G5 group's scan, like a lone call on a padded row,
        # computes win probabilities at the row's 5 distinct endowments only.
        m, dist = 30.0, TruncatedGaussian(6.0, 4.0)
        grid = {g: np.linspace(0.0, m, g) for g in (5, 15)}
        curve = {g: PwlFunction(tuple(xs), tuple(np.sqrt(xs + 1.0).tolist()))
                 for g, xs in grid.items()}
        pairs = [(curve[5].shift(4.0), curve[5]), (curve[5].shift(2.0), curve[5]),
                 (curve[15].shift(4.0), curve[15])]
        rows = [grid[5], grid[5], grid[15]]
        stacked, lone, padded = CountingDist(dist), CountingDist(dist), CountingDist(dist)
        _maximize_pairs(pairs, rows, stacked)
        _maximize_batch(*pairs[0], lone, grid[5], continuous._MAXIMIZER)
        [(z, q)] = _maximize_pairs(pairs[:1], [np.pad(grid[5], (0, 10), "edge")], padded)
        assert stacked.elems[0] == lone.elems[0] == padded.elems[0] == 5 * (2 + 5 + 32 * 4)
        assert z[4] > 0.0 and (z[5:] == z[4]).all() and (q[5:] == q[4]).all()
        assert_stack_matches_pairs(pairs, dist, rows)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_padding_and_rows_of_other_lengths_change_nothing(self, stage_pools, data):
        # _maximize_pairs pads shorter rows with their last endowment to make one call:
        # each pair gets what its lone call on its own row gives, whatever the lengths of
        # the rows stacked with it, and a lone call on a padded row gives the same bits.
        entries = data.draw(st.lists(st.sampled_from(stage_pools), min_size=1, max_size=3))
        pairs, dists, rows = [], [], []
        for dist, m, curves in entries:
            for _ in range(data.draw(st.integers(1, 4))):
                pairs.append(data.draw(st.tuples(st.sampled_from(curves),
                                                 st.sampled_from(curves))))
                dists.append(dist)
                rows.append(np.array(data.draw(st.lists(st.floats(0.0, m), min_size=1,
                                                        max_size=8))))
        assert_stack_matches_pairs(pairs, dists, rows)
        (win, lose), dist, row = pairs[0], dists[0], rows[0]
        padded = np.concatenate([row, np.repeat(row[-1:], data.draw(st.integers(1, 8)))])
        z, q = _maximize_batch(win, lose, dist, row, continuous._MAXIMIZER)
        zp, qp = _maximize_batch(win, lose, dist, padded, continuous._MAXIMIZER)
        assert np.array_equal(zp[: len(row)], z) and np.array_equal(qp[: len(row)], q)
        assert (zp[len(row):] == z[-1]).all() and (qp[len(row):] == q[-1]).all()

    def test_bracket_across_a_win_knot(self):
        # At d = 2 the best candidate is the kink d - 0.8, where winning reaches the
        # win curve's middle knot, and the best bid lies just below it: the polish
        # bracket holds the knot, so probes read both of its pieces through the edge of
        # their knot window.  A 5-knot pair makes the stack mixed.
        kinked = PwlFunction((0.0, 0.8, 2.0), (0.0, 10.0, 20.0))
        flat = PwlFunction.linear(0.0, 0.0, 2.0)
        rising = PwlFunction(tuple(np.linspace(0.0, 2.0, 5)), (0.0, 2.0, 3.0, 3.5, 3.7))
        pairs, dist = [(kinked, flat.shift(3.0)), (rising, flat)], TruncatedGaussian(1.0, 0.5)
        rows = np.array([[2.0, 1.7], [2.0, 1.7]])
        (z, _), _ = _maximize_pairs(pairs, rows, dist)
        assert 1.2 - 2.0 / 63 < z[0] < 1.2  # within one lattice step below the kink
        assert_stack_matches_pairs(pairs, dist, rows)

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
        calls = []
        for win, lose in pairs:
            counting = CountingDist(dist)
            _maximize_batch(win, lose, counting, rows[0], MaximizerConfig())
            calls.append(counting.calls)
        assert calls[0] == 1 and calls[1] != calls[2]
        if cap is not None:
            monkeypatch.setattr(continuous, "_MAX_STACK_CELLS", cap)
        assert_stack_matches_pairs(pairs, dist, rows)

    def test_single_curve_stack_is_one_pair(self, c1):
        sol = solve_grid(c1, UniformFixed(4))
        win, lose = sol.values.component(1, 1), sol.values.component(1, 0)
        ds = np.linspace(0.0, 2.0, 7)
        stacked = _maximize_batch(CurveStack([win]), CurveStack([lose]), c1.distributions[0],
                                  ds[None], MaximizerConfig())
        single = _maximize_batch(win, lose, c1.distributions[0], ds, MaximizerConfig())
        assert np.array_equal(stacked[0][0], single[0]) and np.array_equal(stacked[1][0], single[1])


def pair_groups(values, components) -> list[list[tuple[int, int]]]:
    """Components grouped by (stage, win curve, lose curve), equal in knot bits."""
    groups: dict = {}
    for t, mask in components:
        pair = (values.components[t + 1][mask | 1 << t], values.components[t + 1][mask])
        key = (t, *(np.array(c.xs + c.ys).tobytes() for c in pair))
        groups.setdefault(key, []).append((t, mask))
    return list(groups.values())


@pytest.fixture(scope="module")
def instance_1000():
    spec = generate_instance(GeneratorParams(seed=1000))
    return spec, solve_grid(spec, UniformFixed(15)), solve_discrete(to_discrete(spec))


class TestStageBatchedCalls:
    """One maximizer call per lockstep round of a stage, and one for all of
    compare_solutions, whatever the knot counts and knots of the curve pairs, and
    one set of rows per distinct (win, lose) curve pair: components whose successor
    curves are equal bit for bit are solved once."""

    @staticmethod
    def record(monkeypatch, entry):
        seen = []
        inner = continuous._maximize_batch

        def counted(win, lose, dist, ds, cfg):
            seen.append(entry(win, ds))
            return inner(win, lose, dist, ds, cfg)

        monkeypatch.setattr(continuous, "_maximize_batch", counted)
        monkeypatch.setattr(simulate, "_maximize_batch", counted)
        return seen

    @pytest.fixture
    def calls(self, monkeypatch):
        return self.record(monkeypatch, lambda win, ds: np.size(ds))

    @pytest.fixture
    def shapes(self, monkeypatch):
        """Per call: the number of curve pairs and the shape of the endowments."""
        return self.record(monkeypatch, lambda win, ds: (len(np.atleast_2d(win._ay)), np.shape(ds)))

    @pytest.fixture
    def rounds(self, monkeypatch):
        """Per lockstep round that asks for knots: the number of knots asked."""
        seen = []
        inner = continuous._maximize_pairs

        def counted(pairs, rows, dist):
            if pairs:
                seen.append(sum(map(len, rows)))
            return inner(pairs, rows, dist)

        monkeypatch.setattr(continuous, "_maximize_pairs", counted)
        return seen

    @staticmethod
    def distinct(values, components):
        return [group[0] for group in pair_groups(values, components)]

    @staticmethod
    def knot_counts(values, components):
        return {tuple(len(c.xs) for c in (values.components[t + 1][mask | 1 << t],
                                          values.components[t + 1][mask]))
                for t, mask in components}

    def test_solve_grid(self, instance_1000, calls, rounds):
        # Holdings that differ only in resources whose bundles are out of reach share
        # their successors: 161 unsettled components back up 42 distinct pairs.
        # UniformFixed asks for every knot in its first round: one call per stage.
        spec, ref, _ = instance_1000
        sol = solve_grid(spec, UniformFixed(15))
        unsettled = list(sol.knot_bids)
        distinct = self.distinct(sol.values, unsettled)
        assert len(unsettled) == 161 and len(distinct) == 42
        assert sum(calls) == 15 * len(distinct) == 630 and sol.state_count == 15 * 161
        assert calls == rounds and len(calls) == len({t for t, _ in unsettled}) == spec.n
        assert len(self.knot_counts(sol.values, unsettled)) > 1
        assert sol.values.components == ref.values.components

    def test_compare_solutions(self, instance_1000, calls):
        self.check_compare(*instance_1000, calls)

    def test_compare_solutions_vg2(self, instance_1000, calls):
        # Vg2 curves differ in their knots, not only in their knot counts.
        spec, _, exact = instance_1000
        sol = solve_grid(spec, Vg2(RefinementBudget(15, 0.01)))
        calls.clear()
        self.check_compare(spec, sol, exact, calls)

    def check_compare(self, spec, sol, exact, calls):
        # Every stage's distinct pairs, each under its stage's distribution, share one call.
        report = simulate.compare_solutions(exact, sol.values, spec)
        unsettled = [(t, mask) for t in range(spec.n) for mask in exact.stage_values[t]
                     if (t, mask) not in exact.settled]
        distinct = self.distinct(sol.values, unsettled)
        assert len(unsettled) == 161 and len(distinct) == 42
        assert calls == [31 * len(distinct)] == [1302] and report.states == 31 * 161 == 4991
        assert len(self.knot_counts(sol.values, distinct)) > 1

    def test_scan_computes_only_its_pairs_laws(self, instance_1000, monkeypatch):
        # compare_solutions stacks every stage's pairs, each under its stage's law, in one
        # call; a knot-count group that scans a shared endowment row computes win
        # probabilities for its own pairs' distinct laws only: rows x candidates x laws.
        spec, sol, exact = instance_1000
        elems, seen = [0], []
        ndtr, scan = core.ndtr, continuous._scan_shared

        def counted_ndtr(x):
            elems[0] += np.size(x)
            return ndtr(x)

        def counted_scan(win, dist, of, d, base, lv):
            elems[0] = 0
            found = scan(win, dist, of, d, base, lv)
            cells = len(d) * (2 + win[0].shape[-1] + len(base))  # rows x candidates
            seen.append((elems[0], cells, len(np.unique(of)), dist.shape[1]))
            return found

        monkeypatch.setattr(core, "ndtr", counted_ndtr)
        monkeypatch.setattr(continuous, "_scan_shared", counted_scan)
        simulate.compare_solutions(exact, sol.values, spec)
        assert len(seen) > 1 and all(got == cells * own for got, cells, own, _ in seen)
        assert any(own < laws for _, _, own, laws in seen)  # the call's laws would be more

    def test_suite_experiment(self, tmp_path, monkeypatch, shapes):
        # An experiment solves G5, G10 and G15 in one call per stage that has unsettled
        # components, rows padded to 15 knots, and scores all three in one more call.
        specs, first_call = [], []
        generate = experiment.generate_instance

        def generating(params):
            first_call.append(len(shapes))
            specs.append(generate(params))
            return specs[-1]

        monkeypatch.setattr(experiment, "generate_instance", generating)
        run_experiment_suite(ExperimentConfig(n_experiments=3, master_seed=42,
                                              output_dir=str(tmp_path)))
        first_call.append(len(shapes))
        for spec, start, stop in zip(specs, first_call, first_call[1:]):
            stages = {t for t, _ in solve_grid(spec, UniformFixed(5)).knot_bids}
            assert stop - start == len(stages) + 1
            assert all(shape[1] == 15 for _, shape in shapes[start : stop - 1])
            assert shapes[stop - 1][1][1] == int(spec.endowment) + 1

    @pytest.mark.parametrize("kind, knots, distinct_knots, n_calls, n_rows",
                             [(Vg1, 2415, 630, 45, 669), (Vg2, 2291, 600, 63, 622)])
    def test_lockstep_refiners(self, instance_1000, shapes, rounds, kind, knots,
                               distinct_knots, n_calls, n_rows):
        # A round solves every knot its unfinished distinct pairs asked for, guessed ones
        # included, one row per knot, in one call; one knot per call would make
        # `distinct_knots` calls.  Guesses the final curves do not use are the rows
        # beyond `distinct_knots`.  state_count still counts the knots of every component.
        sol = solve_grid(instance_1000[0], kind(RefinementBudget(15, 0.01)))
        distinct = self.distinct(sol.values, sol.knot_bids)
        assert sol.state_count == knots and len(distinct) == 42
        assert sum(len(sol.values.components[t][mask].xs) for t, mask in distinct) == distinct_knots
        assert all(shape == (pairs, 1) for pairs, shape in shapes)
        assert [pairs for pairs, _ in shapes] == rounds and len(rounds) == n_calls
        rows = sum(rounds)
        assert rows == n_rows and distinct_knots <= rows <= 1.15 * distinct_knots


GRID_STRATEGIES = (UniformFixed(5), UniformFixed(10), UniformFixed(15),
                   Vg1(RefinementBudget(15, 0.01)), Vg2(RefinementBudget(15, 0.01)))


def assert_same_solution(sol, ref) -> None:
    """Curves, knot bids, ledger, state_count and settled pairs equal bit for bit."""
    assert [list(layer) for layer in sol.values.components] == \
        [list(layer) for layer in ref.values.components]
    for layer, ref_layer in zip(sol.values.components, ref.values.components):
        for mask, curve in layer.items():
            assert curve._ax.tobytes() == ref_layer[mask]._ax.tobytes()
            assert curve._ay.tobytes() == ref_layer[mask]._ay.tobytes()
    assert list(sol.knot_bids) == list(ref.knot_bids)
    assert all(sol.knot_bids[key].tobytes() == ref.knot_bids[key].tobytes()
               for key in ref.knot_bids)
    assert np.array(sol.ledger.deltas).tobytes() == np.array(ref.ledger.deltas).tobytes()
    assert sol.state_count == ref.state_count and set(sol.settled) == set(ref.settled)


# Seed 43's experiment 3 (n = 7): no unsettled mask at stage 6, where the exact solve
# stores no bids and compare_all scores arrays of shape (0, e + 1).
EMPTY_STAGE_SEED = 129121643

# Grids of a few knots each, cheap enough for the per-knot references on small instances.
SMALL_STRATEGIES = (UniformFixed(2), UniformFixed(5), UniformFixed(9),
                    Vg1(RefinementBudget(6, 0.0)), Vg1(RefinementBudget(9, 0.05)),
                    Vg2(RefinementBudget(7, 0.01)))


class TestAllGridsTogether:
    """solve_grids and compare_all, which the suite calls once per experiment, give
    bit for bit what one solve_grid and one compare_solutions call per grid give."""

    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003, EMPTY_STAGE_SEED])
    def test_match_one_call_per_grid(self, seed):
        spec = generate_instance(GeneratorParams(seed=seed))
        sols = continuous.solve_grids(spec, list(GRID_STRATEGIES))
        exact = solve_discrete(to_discrete(spec))
        reports = simulate.compare_all(exact, [sol.values for sol in sols], spec)
        assert len(sols) == len(reports) == len(GRID_STRATEGIES)
        for strategy, sol, report in zip(GRID_STRATEGIES, sols, reports):
            ref = solve_grid(spec, strategy)
            assert_same_solution(sol, ref)
            # repr tells every float's bits apart, -0.0 from 0.0 included
            assert repr(astuple(report)) == repr(astuple(
                simulate.compare_solutions(exact, ref.values, spec)))

    def test_no_grids(self, c1):
        exact = solve_discrete(to_discrete(c1))
        assert continuous.solve_grids(c1, []) == simulate.compare_all(exact, [], c1) == []

    def test_a_stage_with_no_unsettled_mask(self):
        spec = generate_instance(GeneratorParams(seed=EMPTY_STAGE_SEED))
        exact = solve_discrete(to_discrete(spec))
        assert [t for t, bids in enumerate(exact.stage_bids) if not bids] == [6]
        sols = continuous.solve_grids(spec, list(GRID_STRATEGIES[:3]))
        reports = simulate.compare_all(exact, [sol.values for sol in sols], spec)
        for sol, report in zip(sols, reports):
            assert report.per_stage[6] == simulate.StageErrors(6, 0.0, 0.0, 0.0, 0.0, 0)
            assert repr(astuple(report)) == repr(astuple(
                per_component_compare(exact, sol.values, spec)))

    @given(instance=st.integers(0, 2**32 - 1),
           strategies=st.lists(st.sampled_from(SMALL_STRATEGIES), min_size=1, max_size=3))
    @example(instance=64, strategies=[UniformFixed(5), Vg2(RefinementBudget(7, 0.01))])
    @settings(max_examples=60, deadline=None)
    def test_random_small_instances_match_the_references(self, instance, strategies):
        # Seed 64 draws bundles {1} and {1, 2} at endowment 6, which leave stage 1 empty.
        spec = random_small_instance(np.random.default_rng(instance))
        assume(not core.validate_problem(spec))
        sols = continuous.solve_grids(spec, strategies)
        for strategy, sol in zip(strategies, sols):
            ref = per_knot_grid(spec, strategy)
            assert list(sol.knot_bids) == list(ref.knot_bids)
            assert all(sol.knot_bids[key].tobytes() == ref.knot_bids[key].tobytes()
                       for key in ref.knot_bids)
            # The ledger charges every unsettled component's own curve, however shared.
            deltas = [0.0] * spec.n + [spec.residual.max_consecutive_delta()[0]]
            for t, mask in ref.knot_bids:
                curve = ref.values.components[t][mask]
                deltas[t] = max(deltas[t], curve.max_consecutive_delta()[0])
            for ledger in (sol.ledger.deltas, ref.ledger.deltas):
                assert np.array(ledger).tobytes() == np.array(deltas).tobytes()
        if float(spec.endowment).is_integer():
            exact = solve_discrete(to_discrete(spec))
            reports = simulate.compare_all(exact, [sol.values for sol in sols], spec)
            for sol, report in zip(sols, reports):
                assert repr(astuple(report)) == repr(astuple(
                    per_component_compare(exact, sol.values, spec)))


MORE_INSTANCES = {"generator 2000": GeneratorParams(seed=2000),
                  "flat residual 1000": GeneratorParams(seed=1000, residual_slope=0.0)}


class TestLockstepRefiners:
    """solve_grid's lockstep rounds give exactly what one call per component (UniformFixed)
    or per knot (Vg1, Vg2) gives."""

    @pytest.mark.parametrize("strategy", [
        *(pytest.param(kind(RefinementBudget(*budget)), id=f"budget{i}-{kind.__name__}")
          for i, budget in enumerate([(15, 0.01), (25, 0.0), (9, 0.0)]) for kind in (Vg1, Vg2)),
        *(pytest.param(UniformFixed(g), id=f"G{g}") for g in (5, 15)),
    ])
    @pytest.mark.parametrize("instance", ["c1", "generator 1000", "generator 2000",
                                          "flat residual 1000"])
    def test_matches_per_knot_reference(self, c1, instance_1000, instance, strategy):
        # Guesses run differently on a held-out instance and on a flat residual.
        spec = (c1 if instance == "c1" else instance_1000[0] if instance == "generator 1000"
                else generate_instance(MORE_INSTANCES[instance]))
        sol, ref = solve_grid(spec, strategy), per_knot_grid(spec, strategy)
        assert sol.values.components == ref.values.components
        assert sorted(sol.knot_bids) == sorted(ref.knot_bids)
        assert all(np.array_equal(sol.knot_bids[key], ref.knot_bids[key]) for key in ref.knot_bids)
        assert np.array_equal(sol.ledger.deltas, ref.ledger.deltas)
        assert sol.state_count == ref.state_count


class TestDistinctPairs:
    """Components whose successor curves are equal bit for bit are solved once."""

    @pytest.mark.parametrize("strategy", [UniformFixed(15), Vg2(RefinementBudget(15, 0.01))],
                             ids=["G15", "Vg2"])
    @pytest.mark.parametrize("instance", ["c1", "generator 1000", "generator 2000",
                                          "flat residual 1000"])
    def test_compare_matches_one_call_per_component(self, c1, instance_1000, instance,
                                                    strategy):
        spec = (c1 if instance == "c1" else instance_1000[0] if instance == "generator 1000"
                else generate_instance(MORE_INSTANCES[instance]))
        sol, exact = solve_grid(spec, strategy), solve_discrete(to_discrete(spec))
        report = simulate.compare_solutions(exact, sol.values, spec)
        assert report == per_component_compare(exact, sol.values, spec)

    def test_knot_bids_of_a_duplicate_are_its_own(self, instance_1000):
        _, sol, _ = instance_1000
        groups = pair_groups(sol.values, sol.knot_bids)
        assert sum(len(group) - 1 for group in groups) == 161 - 42
        for first, *duplicates in groups:
            for key in duplicates:
                mine, theirs = sol.knot_bids[key], sol.knot_bids[first]
                assert np.array_equal(mine, theirs)
                assert not (mine.flags.writeable and np.shares_memory(mine, theirs))


class TestGridLookups:
    """component and value refuse a mask outside stage t's 0..2^t - 1 with a held: tag,
    and value an endowment off the curve with a d: tag, as DiscreteSolution's lookups do:
    on generator instance 1000, value(0, 1, 3.0) used to raise a bare KeyError: 1."""

    @pytest.mark.parametrize("t, held, message", [
        (0, 1, r"held: mask 1 is outside 0\.\.0 at stage 0$"),
        (9, 512, r"held: mask 512 is outside 0\.\.511 at stage 9$"),
        (2, [3], r"held: mask 4 is outside 0\.\.3 at stage 2$"),
        (2, -1, r"held: mask -1 is outside 0\.\.3 at stage 2$"),
        (1, [0], r"held: resource index 0 out of range \(1-based\)$")])
    def test_mask_outside_the_stage_refused(self, instance_1000, t, held, message):
        values = instance_1000[1].values
        for lookup in (lambda: values.value(t, held, 3.0), lambda: values.component(t, held)):
            with pytest.raises(ValueError, match=f"^{message}"):
                lookup()

    @pytest.mark.parametrize("d, message", [
        (31.0, r"d: point 31\.0 outside domain \[0\.0, 30\.0\]$"),
        (-1e-6, r"d: point -1e-06 outside domain"),
        (float("nan"), r"d: point nan outside domain")])
    def test_endowment_outside_the_curve_refused(self, instance_1000, d, message):
        # The discrete lookups tag an endowment with d:, and a NaN used to read as nan.
        with pytest.raises(ValueError, match=f"^{message}"):
            instance_1000[1].values.value(0, 0, d)

    def test_the_last_masks_answer(self, instance_1000):
        values = instance_1000[1].values
        assert values.value(0, 0, 30.0 + 1e-10) == values.components[0][0](30.0)
        assert values.value(9, 511, 3.0) == values.components[9][511](3.0)
        assert values.component(2, [1, 2]) is values.components[2][3]


class TestSpeculativeAnswers:
    """_answer_from guesses unsolved single knots and stops a replay at its guess limit."""

    def test_guesses_chord_nearest_value_or_zero(self):
        asked = []
        evaluate = _answer_from({}, asked)
        assert evaluate(0.0) == 0.0 and asked == [(0.0,)]
        memo = {0.0: (0.0, 1.0), 4.0: (1.0, 3.0), 8.0: (2.0, 5.0)}
        asked = []
        evaluate = _answer_from(memo, asked)
        assert evaluate(4.0) == 3.0 and asked == []
        assert evaluate(1.0) == 1.5  # the chord between 0 and 4
        assert evaluate(9.0) == 5.0  # beyond the solved knots: the nearest value
        with pytest.raises(_Unsolved):
            evaluate(6.0)  # the third guess, max(2, 3 solved knots)
        assert asked == [(1.0,), (9.0,), (6.0,)]

    def test_a_tuple_is_one_row_and_never_guessed(self):
        asked = []
        evaluate = _answer_from({0.0: (0.0, 1.0)}, asked)
        assert evaluate((0.0,)) == (1.0,)
        with pytest.raises(_Unsolved):
            evaluate((0.0, 2.0))
        assert asked == [(0.0, 2.0)]

    def test_a_monotone_curve_is_stored_as_is(self):
        rising = PwlFunction((0.0, 1.0, 2.0), (0.0, 1.0, 1.0))
        assert _stored(rising) is rising
        dipping = PwlFunction((0.0, 1.0, 2.0), (0.0, 1.0, 1.0 - 1e-6))
        assert _stored(dipping) == PwlFunction((0.0, 1.0, 2.0), (0.0, 1.0, 1.0))
