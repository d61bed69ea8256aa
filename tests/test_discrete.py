"""Exact backward-induction solver on integer endowments."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import expectimax, per_component_evaluate, policy_values, random_micro_instance
from seqbid.core import (
    Bundle,
    DiscreteMultinomial,
    MODE_DISCRETE,
    ProblemSpec,
    to_discrete,
    validate_problem,
)
from seqbid import discrete
from seqbid.discrete import evaluate_policy_exact, solve_discrete, sweep
from seqbid.experiment import GeneratorParams, generate_instance
from seqbid.io import read_discrete_solution, write_discrete_solution
from seqbid.pwl import PwlFunction


def make_instances(count: int, seed0: int = 0) -> list[ProblemSpec]:
    return [random_micro_instance(np.random.default_rng(seed0 + i)) for i in range(count)]


def one_state(bidder):
    """bidder's bid at a single endowment, for the per-state oracle policy_values."""
    return lambda t, mask, d: int(bidder(t, mask, np.array([d]))[0])


def every_mask(n: int):
    """Every (stage, mask) with mask < 2**t, stages 0..n."""
    return [(t, mask) for t in range(n + 1) for mask in range(1 << t)]


def wide_lattice(n: int) -> ProblemSpec:
    """The benchmark's wide shape at endowment 2: one bundle of all n resources."""
    return ProblemSpec(
        n=n,
        bundles=(Bundle(frozenset(range(1, n + 1)), 100.0),),
        endowment=2.0,
        residual=PwlFunction.linear(0.7, 0.0, 2.0),
        distributions=(DiscreteMultinomial((0.6, 0.3, 0.1)),) * n,
        mode=MODE_DISCRETE,
    )


class TestT1:
    def test_start_state(self, t1):
        sol = solve_discrete(t1)
        assert sol.value(0, 0, 2) == pytest.approx(10.0, abs=1e-12)
        assert sol.bid(0, 0, 2) == 2

    def test_intermediate_q_values(self, t1):
        # Q(z) against the terminal stage: win keeps the resource, lose keeps
        # the money.  Q(1) = .5 * 10.7 + .5 * 1.4, Q(0) = 1.4.
        sol = solve_discrete(t1)
        nxt = sol.stage_values[1]
        dist = t1.distributions[0]
        q0 = dist.win_probability(0) * nxt[1][2] + (1 - dist.win_probability(0)) * nxt[0][2]
        q1 = dist.win_probability(1) * nxt[1][1] + (1 - dist.win_probability(1)) * nxt[0][2]
        assert q0 == pytest.approx(1.4)
        assert q1 == pytest.approx(6.05)

    def test_zero_endowment_is_the_losing_branch(self, t1):
        sol = solve_discrete(t1)
        assert sol.value(0, 0, 0) == pytest.approx(0.0)
        assert sol.bid(0, 0, 0) == 0

    def test_state_count(self, t1):
        assert solve_discrete(t1).state_count == 3


class TestT2:
    def test_start_state(self, t2):
        sol = solve_discrete(t2)
        assert sol.value(0, 0, 3) == pytest.approx(7.35, abs=1e-12)
        assert sol.bid(0, 0, 3) == 1

    def test_won_first_auction_branch(self, t2):
        sol = solve_discrete(t2)
        assert sol.value(1, {1}, 2) == pytest.approx(10.0, abs=1e-12)
        assert sol.bid(1, {1}, 2) == 2

    def test_lost_first_auction_branch(self, t2):
        sol = solve_discrete(t2)
        assert sol.value(1, 0, 3) == pytest.approx(4.7, abs=1e-12)
        assert sol.bid(1, 0, 3) == 2

    def test_state_count(self, t2):
        assert solve_discrete(t2).state_count == 12

    def test_oversized_lattice_refused(self, t2, monkeypatch):
        assert 4_000 <= discrete._MAX_ENDOWMENT < 20_000
        # t2's endowment is 3: refuse it at a limit of 2, accept it at 3.
        monkeypatch.setattr(discrete, "_MAX_ENDOWMENT", 2)
        with pytest.raises(ValueError, match=r"^endowment: 3 "):
            solve_discrete(t2)
        monkeypatch.setattr(discrete, "_MAX_ENDOWMENT", 3)
        assert solve_discrete(t2).value(0, 0, 3) == pytest.approx(7.35, abs=1e-12)


class TestLookups:
    """value and bid refuse a stage or endowment that Python's negative indices would count
    back from the end: on generator instance 1000 (n = 9, e = 30), value(0, 0, -1) used to
    read d = 30, and value(-1, 0, 3) stage 9."""

    @pytest.fixture(scope="class")
    def sol(self):
        return solve_discrete(to_discrete(generate_instance(GeneratorParams(seed=1000))))

    @pytest.mark.parametrize("t, d, message", [
        (0, -1, r"d: endowment -1 is outside 0\.\.30"), (0, 31, r"d: endowment 31 is outside"),
        (-1, 3, r"t: stage -1 is outside 0\.\.9"), (10, 3, r"t: stage 10 is outside 0\.\.9")])
    def test_value_outside_the_tables_refused(self, sol, t, d, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            sol.value(t, 0, d)

    @pytest.mark.parametrize("t, d, message", [
        (0, -1, r"d: endowment -1 is outside 0\.\.30"), (-1, 3, r"t: stage -1 is outside 0\.\.8"),
        (9, 3, r"t: stage 9 is outside 0\.\.8$")])
    def test_bid_outside_the_tables_refused(self, sol, t, d, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            sol.bid(t, 0, d)

    def test_the_corners_answer(self, sol):
        assert sol.value(9, 0, 30) == sol.stage_values[9][0][30]
        assert sol.value(0, 0, 0) == sol.stage_values[0][0][0]
        assert sol.bid(8, 0, 30) == sol.stage_bids[8][0][30]
        assert sol.value(9, 511, np.int64(30)) == sol.stage_values[9][511][30]
        assert sol.bid(2, [1, 2], 3) == sol.stage_bids[2][3][3]

    @pytest.mark.parametrize("t, held, message", [
        (0, 1, r"held: mask 1 is outside 0\.\.0 at stage 0$"),
        (3, 8, r"held: mask 8 is outside 0\.\.7 at stage 3$"),
        (2, [3], r"held: mask 4 is outside 0\.\.3 at stage 2$"),
        (1, -1, r"held: mask -1 is outside 0\.\.1 at stage 1$"),
        (1, [0], r"held: resource index 0 out of range \(1-based\)$")])
    def test_mask_outside_the_stage_refused(self, sol, t, held, message):
        # value(0, 1, 3) used to raise a bare KeyError: 1, and a negative mask an untagged
        # ValueError from holdings_mask.
        for lookup in (sol.value, sol.bid):
            with pytest.raises(ValueError, match=f"^{message}"):
                lookup(t, held, 3)

    @pytest.mark.parametrize("d", [3.0, 2.5, np.float64(3.0), "3"])
    def test_endowment_not_an_integer_refused(self, sol, d):
        # value(0, 0, 3.0) used to raise numpy's IndexError.
        for lookup in (sol.value, sol.bid):
            with pytest.raises(ValueError, match=r"^d: endowment \S+ is not an integer$"):
                lookup(0, 0, d)


def test_endowment_limit_refused_before_any_allocation(t2, tmp_path):
    # At endowment 2,000,000 one float array over 0..e takes 16 MB.  The solver, the
    # evaluator and the solution reader refuse it with less than 1 MB traced.
    path = tmp_path / "t2.csv"
    write_discrete_solution(solve_discrete(t2), path)
    big = replace(t2, endowment=2e6, residual=PwlFunction.linear(0.7, 0.0, 2e6))
    assert validate_problem(big) == []
    for call in (lambda: solve_discrete(big),
                 lambda: evaluate_policy_exact(big, lambda t, mask, d: 0),
                 lambda: read_discrete_solution(path, big)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^endowment: 2,000,000 is above the lattice "
                                                 "limit of 4,000$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestSettled:
    def test_terminal_stage_is_always_settled(self, t2):
        assert t2.settled(2, 0)
        assert t2.settled(2, 0b11)

    def test_open_bundle_keeps_state_live(self, t2):
        assert not t2.settled(1, 0)
        assert not t2.settled(0, 0)

    def test_missed_resource_settles(self):
        spec = ProblemSpec(
            n=2,
            bundles=(Bundle(frozenset({1, 2}), 10.0),),
            endowment=3.0,
            residual=PwlFunction.linear(0.7, 0.0, 3.0),
            distributions=(DiscreteMultinomial((0.5, 0.5)),) * 2,
            mode=MODE_DISCRETE,
        )
        assert spec.settled(1, 0)  # resource 1 lost, pair unreachable
        assert not spec.settled(1, 0b1)

    def test_settled_states_use_closed_form_and_zero_bid(self):
        spec = ProblemSpec(
            n=2,
            bundles=(Bundle(frozenset({1}), 10.0), Bundle(frozenset({1, 2}), 10.0)),
            endowment=3.0,
            residual=PwlFunction.linear(0.7, 0.0, 3.0),
            distributions=(DiscreteMultinomial((0.5, 0.5)),) * 2,
            mode=MODE_DISCRETE,
        )
        sol = solve_discrete(spec)
        assert (1, 0) in sol.settled and (1, 1) in sol.settled
        f = spec.residual
        assert np.allclose(sol.stage_values[1][0], [f(d) for d in range(4)])
        assert np.allclose(sol.stage_values[1][1], [10.0 + f(d) for d in range(4)])
        assert not sol.stage_bids[1][0].any()
        assert not sol.stage_bids[1][1].any()
        # settled states are excluded from the work count: only stage 0 remains
        assert sol.state_count == 4


def assert_twin_bits(spec, twin):
    """spec's solve, and the exact evaluation of its bids, store the same components as
    twin's, with the same bytes; and that evaluation replays the solve's values."""
    sol, want = solve_discrete(spec), solve_discrete(twin)
    replay = evaluate_policy_exact(spec, sol.policy())
    for got, other in ((sol.stage_values, want.stage_values),
                       (sol.stage_bids, want.stage_bids),
                       (replay, evaluate_policy_exact(twin, want.policy()))):
        assert [sorted(layer) for layer in got] == [sorted(layer) for layer in other]
        for layer, twin_layer in zip(got, other):
            assert all(layer[m].tobytes() == twin_layer[m].tobytes() for m in layer)
    for layer, replayed in zip(sol.stage_values, replay):
        assert all(replayed[m].tobytes() == layer[m].tobytes() for m in layer)


class TestBand:
    """The lattice reads the residual as its running maximum and caps win probabilities at
    1, so no table dips in d and solve_discrete scans bids up to len(probs) only."""

    def test_dipping_residual_solves_as_its_running_maximum_twin(self):
        # A sure win at any bid from 1 up.  At d = 3, bid 2 keeps f(1) = 1 and bid 1 keeps
        # f(2) = 1 - 1e-13, read as 1: both give 11, and the first best bid is 1.
        def spec(dip):
            return ProblemSpec(1, (Bundle(frozenset({1}), 10.0),), 3.0,
                               PwlFunction.from_knots([(0, 0), (1, 1), (2, 1 - dip), (3, 2)]),
                               (DiscreteMultinomial((1.0,)),), MODE_DISCRETE)

        dipping, twin = spec(1e-13), spec(0.0)
        assert validate_problem(dipping) == []
        sol = solve_discrete(dipping)
        assert sol.stage_bids[0][0].tolist() == [0, 1, 1, 1]
        assert sol.stage_values[0][0].tolist() == [0.0, 10.0, 11.0, 11.0]
        assert_twin_bits(dipping, twin)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_micro_specs_solve_as_their_running_maximum_twins(self, data):
        spec = data.draw(micro_specs())
        ys = np.maximum.accumulate(spec.residual.ys)
        assert_twin_bits(spec, replace(spec, residual=PwlFunction(spec.residual.xs, tuple(ys))))

    def test_law_summing_above_1_solves_as_its_capped_twin(self):
        # DiscreteMultinomial lets probs sum to 1 within 1e-12.  Uncapped, stage 1 would
        # weigh the lose branch by 1 - p < 0, and (1, {1}) would read 2.7e-13 too high.
        def spec(probs):
            return ProblemSpec(2, (Bundle(frozenset({1, 2}), 1.0),), 5.0,
                               PwlFunction.linear(0.7, 0.0, 5.0),
                               (DiscreteMultinomial((1.0,)), DiscreteMultinomial(probs)),
                               MODE_DISCRETE)

        above = spec((1.0000000000009,))
        assert_twin_bits(above, spec((1.0,)))
        assert above.distributions[1].win_probability(1) == 1.0

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_table_is_nondecreasing_in_d(self, data):
        spec = data.draw(micro_specs())
        sol = solve_discrete(spec)
        for layer in sol.stage_values:
            assert all((np.diff(values) >= 0).all() for values in layer.values())

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_on_random_micro_specs(self, data):
        # Both oracles read the residual as its running maximum and cap win probabilities at
        # 1; then bidding at a settled state gains nothing, and standing pat, as
        # solve_discrete does, is optimal.
        spec = data.draw(micro_specs())
        assert validate_problem(spec) == []
        values, bids = expectimax(spec, stand_pat=True)
        optimum, _ = expectimax(spec)
        sol = solve_discrete(spec)
        for t, mask in every_mask(spec.n):
            got, ds = sol.stage_values[t][mask], range(int(spec.endowment) + 1)
            assert got.tolist() == pytest.approx([values[t, mask, d] for d in ds], abs=1e-9)
            assert got.tolist() == pytest.approx([optimum[t, mask, d] for d in ds], abs=1e-9)
            if t < spec.n:
                assert sol.stage_bids[t][mask].tolist() == [bids[t, mask, d] for d in ds]


@st.composite
def micro_specs(draw):
    """Valid discrete specs of up to 3 stages and endowment up to 6, whose high bids have
    up to 8 levels, whose probabilities sum to 1 within 1e-12, and whose residual may dip
    by up to 1e-12 between knots."""
    n = draw(st.integers(1, 3))
    e = draw(st.integers(1, 6))
    members = [set(range(1, n + 1))] + draw(st.lists(
        st.sets(st.integers(1, n), min_size=1), max_size=2))
    bundles = tuple(Bundle(frozenset(m), draw(st.sampled_from([1.0, 2.5, 4.0, 7.25, 10.0])))
                    for m in members)
    steps = draw(st.lists(st.sampled_from([0.0, -1e-12, -4e-13, 1e-13, 0.25, 0.7, 1.5]),
                          min_size=e, max_size=e))
    ys = np.concatenate(([0.0], np.cumsum(steps)))
    residual = PwlFunction(tuple(map(float, range(e + 1))), tuple(map(float, ys)))
    dists = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(0, 4), min_size=1, max_size=8).filter(any))
        scale = 1.0 + draw(st.sampled_from([0.0, 9e-13, -9e-13, 3e-13]))
        probs = tuple(w / sum(weights) * scale for w in weights)
        assume(abs(sum(probs) - 1.0) <= 1e-12)
        dists.append(DiscreteMultinomial(probs))
    return ProblemSpec(n, bundles, float(e), residual, tuple(dists), MODE_DISCRETE)


class TestOracleEquivalence:
    def test_values_and_bids_match_brute_force(self):
        for spec in make_instances(40):
            values, bids = expectimax(spec)
            sol = solve_discrete(spec)
            for t, mask in every_mask(spec.n):
                arr = sol.stage_values[t][mask]
                for d in range(len(arr)):
                    assert arr[d] == pytest.approx(values[t, mask, d], abs=1e-9)
            for t, mask in every_mask(spec.n - 1):
                arr = sol.stage_bids[t][mask]
                for d in range(len(arr)):
                    assert int(arr[d]) == bids[t, mask, d]

    def test_mode_check(self, c1):
        with pytest.raises(ValueError):
            solve_discrete(c1)


class TestMonotonicity:
    def test_value_nondecreasing_in_endowment(self):
        for spec in make_instances(25, seed0=100):
            sol = solve_discrete(spec)
            for t, mask in every_mask(spec.n):
                assert np.all(np.diff(sol.stage_values[t][mask]) >= -1e-12)

    def test_value_dominates_walking_away(self):
        for spec in make_instances(25, seed0=200):
            sol = solve_discrete(spec)
            from seqbid.core import terminal_value

            for t, mask in every_mask(spec.n):
                arr = sol.stage_values[t][mask]
                floor = [terminal_value(mask, d, spec) for d in range(len(arr))]
                assert np.all(arr >= np.asarray(floor) - 1e-12)


class TestPolicyEvaluation:
    def test_optimal_policy_reproduces_values(self, t2):
        sol = solve_discrete(t2)
        replay = evaluate_policy_exact(t2, sol.policy())
        for t in range(t2.n + 1):
            assert set(sol.stage_values[t]) <= set(replay[t])
            for mask, arr in replay[t].items():
                assert np.allclose(arr, sol.stage_values[t][mask], atol=1e-12)

    def test_integer_endowments_read_the_table_rows(self, t2):
        sol = solve_discrete(t2)
        bidder = sol.policy()
        for t, layer in enumerate(sol.stage_bids):
            for mask, row in layer.items():
                ds = np.arange(len(row))
                for at in (ds, ds.astype(np.int32), ds[::-1], ds[:1]):
                    assert np.array_equal(bidder(t, mask, at), row[at])
                assert np.array_equal(bidder(t, mask, ds + 0.4), row)  # floats are rounded

    def test_bids_in_settled_states_match_brute_force(self):
        def bid_one(t, mask, d):
            return np.minimum(1, d)

        for spec in make_instances(25, seed0=300):
            want = policy_values(spec, one_state(bid_one))
            got = evaluate_policy_exact(spec, bid_one)
            for t, mask in every_mask(spec.n):
                arr = got[t][mask]  # a positive bid reaches every state
                for d in range(len(arr)):
                    assert arr[d] == pytest.approx(want[t, mask, d], abs=1e-9)

    def test_follows_only_the_settled_states_that_bid(self):
        for spec in make_instances(25, seed0=400):
            sol = solve_discrete(spec)
            table = sol.policy()

            def policy(t, mask, d):
                if (t, mask) in sol.settled:
                    return np.minimum(mask % 2, d)
                return table(t, mask, d)

            want = policy_values(spec, one_state(policy))
            got = evaluate_policy_exact(spec, policy)
            for t in range(spec.n + 1):
                assert set(sol.stage_values[t]) <= set(got[t])
                for mask, arr in got[t].items():
                    for d in range(len(arr)):
                        assert arr[d] == pytest.approx(want[t, mask, d], abs=1e-9)

    def test_constant_policies_on_t1(self, t1):
        always2 = evaluate_policy_exact(t1, lambda t, mask, d: np.minimum(2, d))
        always1 = evaluate_policy_exact(t1, lambda t, mask, d: np.minimum(1, d))
        never = evaluate_policy_exact(t1, lambda t, mask, d: 0)  # one bid for every d
        assert always2[0][0][2] == pytest.approx(10.0)
        assert always1[0][0][2] == pytest.approx(6.05)
        assert never[0][0][2] == pytest.approx(1.4)

    def test_infeasible_bid_rejected(self, t1):
        with pytest.raises(ValueError):
            evaluate_policy_exact(t1, lambda t, mask, d: d + 1)

    def test_fractional_bid_rejected(self, t1):
        with pytest.raises(ValueError):
            evaluate_policy_exact(t1, lambda t, mask, d: 0.5)

    @pytest.mark.parametrize("bids, message", [
        ([0, 1, -1, 5], "policy bid -1 infeasible at stage 0, mask 0, d 2"),
        ([0, 1, 3, 4], "policy bid 3 infeasible at stage 0, mask 0, d 2"),
        ([0.0, 0.5, 2.5, 0.0], "policy bid 0.5 infeasible at stage 0, mask 0, d 1"),
        ([0.0, 1.0, float("nan"), 0.0], "policy bid nan infeasible at stage 0, mask 0, d 2"),
    ])
    def test_first_infeasible_endowment_is_named(self, t2, bids, message):
        with pytest.raises(ValueError, match=message):
            evaluate_policy_exact(t2, lambda t, mask, d: np.array(bids))

    def test_one_bidder_call_per_visited_component(self, t2):
        sol = solve_discrete(t2)
        table, seen = sol.policy(), []

        def bidder(t, mask, d):
            seen.append((t, mask, d.tolist()))
            return table(t, mask, d)

        replay = evaluate_policy_exact(t2, bidder)
        assert sorted(seen) == [(t, mask, [0, 1, 2, 3]) for t in range(t2.n)
                                for mask in sorted(replay[t])]


    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_component_evaluator(self, data):
        # Random bids in 0..d at every component, settled ones included, so the evaluator
        # follows settled components that bid; or infeasible bids at some masks of one stage.
        spec = data.draw(st.one_of(micro_specs(), small_twins()))
        bidder = random_bidder(data.draw(st.integers(0, 2**32 - 1)),
                               data.draw(st.none() | st.integers(0, spec.n - 1)))
        try:
            want = per_component_evaluate(spec, bidder)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                evaluate_policy_exact(spec, bidder)
            assert str(got.value) == str(err)
            return
        got = evaluate_policy_exact(spec, bidder)
        assert [sorted(layer) for layer in got] == [sorted(layer) for layer in want]
        for layer, other in zip(got, want):
            assert all(layer[mask].tobytes() == other[mask].tobytes() for mask in layer)


def random_bidder(seed: int, bad_stage):
    """A bidder whose answer at (t, mask) draws from default_rng((seed, t, mask)): bids in
    0..d as an int array, a float array or a list, or one zero bid as an int or a length-1
    array.  At bad_stage, most masks instead bid -1, d_max + 1, 0.5 or nan at random
    endowments, keeping an int array's dtype for the first two."""
    def bidder(t, mask, d):
        rng = np.random.default_rng((seed, t, mask))
        z, kind = rng.integers(0, d + 1), int(rng.integers(5))
        if t == bad_stage and rng.random() < 0.7:
            bad = [-1, len(d), 0.5, np.nan][kind % 4]
            return np.where(rng.random(len(d)) < 0.4, bad, z)
        return [z, z.astype(float), z.tolist(), 0, np.zeros(1)][kind]

    return bidder


@st.composite
def small_twins(draw):
    """Discrete twins of small generator instances: up to 6 resources, endowment 4 to 12."""
    return to_discrete(generate_instance(GeneratorParams(
        n_resources=draw(st.integers(2, 6)), n_bundles=draw(st.integers(1, 4)),
        endowment=float(draw(st.integers(4, 12))), seed=draw(st.integers(0, 10_000)))))


class TestSolutionIo:
    def test_csv_round_trip(self, t2, tmp_path):
        sol = solve_discrete(t2)
        path = tmp_path / "solution.csv"
        write_discrete_solution(sol, path)
        back = read_discrete_solution(path, t2)
        assert back.n == sol.n and back.endowment == sol.endowment
        assert back.settled == sol.settled
        assert back.state_count == sol.state_count
        for t, mask in every_mask(sol.n):
            assert np.array_equal(back.stage_values[t][mask], sol.stage_values[t][mask])
        for t, mask in every_mask(sol.n - 1):
            assert np.array_equal(back.stage_bids[t][mask], sol.stage_bids[t][mask])


class TestSweep:
    def test_reached_components_grow_linearly(self):
        for n in (6, 12, 18):
            spec = wide_lattice(n)
            sol = solve_discrete(spec)
            # stage 0 holds (0, 0); stages 1..n-1 the live mask and the mask that
            # just lost; stage n the full and the almost-full mask
            assert [len(layer) for layer in sol.stage_values] == [1] + [2] * n
            assert sum(len(layer) for layer in sol.stage_values) == 2 * n + 1
            assert len(sol.settled) == 2**n - 1 - n
            assert sol.state_count == 3 * n
            calls, table = [], sol.policy()
            replay = evaluate_policy_exact(
                spec, lambda t, mask, d: calls.append(t) or table(t, mask, d))
            # the evaluator follows each lost mask's zero bids down to stage n, with
            # one call per component it visits below stage n
            assert len(calls) == n * (n + 1) // 2
            assert sum(len(layer) for layer in replay) == n * (n + 1) // 2 + n + 1

    def test_components_above_the_limit_refused_before_any_backup(self, monkeypatch):
        # wide_lattice(18) reaches 37 components: (0, 0), then two per stage.
        spec, backups = wide_lattice(18), []
        monkeypatch.setattr(discrete, "_MAX_COMPONENTS", 36)
        with pytest.raises(ValueError, match=r"^n: the solve reaches 37 components by stage "
                                             r"18, above the limit of 36$"):
            sweep(spec, lambda t, jobs: backups.append(t), lambda mask: 0.0)
        assert backups == []
        with pytest.raises(ValueError, match="^n: the solve reaches 37 components"):
            solve_discrete(spec)
        with pytest.raises(ValueError, match=r"^n: the solve reaches \d+ components"):
            evaluate_policy_exact(spec, lambda t, mask, d: 0)
        monkeypatch.setattr(discrete, "_MAX_COMPONENTS", 37)
        assert sum(map(len, solve_discrete(spec).stage_values)) == 37

    def test_grow_asks_once_per_stage_in_ascending_mask_order(self, monkeypatch):
        # Each sweep asks grow about a whole stage at a time: n calls, stages 0..n-1 in
        # turn, each with the stage's reached masks as ascending Python ints.
        spec = to_discrete(generate_instance(GeneratorParams(seed=1000)))
        asked, sweep_of = [], discrete.sweep

        def recorded(spec, backup, leaf, grow=None):
            def recording(t, masks):
                asked.append((t, list(masks)))
                return (grow or discrete._settled_plan(spec))(t, masks)
            return sweep_of(spec, backup, leaf, recording)

        monkeypatch.setattr(discrete, "sweep", recorded)
        for run in (lambda: solve_discrete(spec).stage_values,
                    lambda: evaluate_policy_exact(spec, lambda t, m, d: np.minimum(m % 3, d))):
            asked.clear()
            layers = run()
            assert [t for t, _ in asked] == list(range(spec.n))
            for (_, masks), layer in zip(asked, layers):
                assert all(type(mask) is int for mask in masks)
                assert masks == sorted(set(masks)) == sorted(layer)

    @pytest.mark.parametrize("seed", [None, 1000, 1001, 1002, 1003])
    def test_optimal_policy_replays_the_solve_bit_for_bit(self, seed):
        # The solver and the evaluator run one backup, so the optimal bids give back the
        # solve's values to the bit: on wide_lattice(18), and on generator twins at e = 30.
        spec = wide_lattice(18) if seed is None else to_discrete(
            generate_instance(GeneratorParams(seed=seed)))
        sol = solve_discrete(spec)
        replay = evaluate_policy_exact(spec, sol.policy())
        for t, layer in enumerate(sol.stage_values):
            for mask, values in layer.items():
                assert replay[t][mask].tobytes() == values.tobytes()

    def test_block_size_changes_no_bit(self, monkeypatch):
        # A stage's backups run in blocks of stacked components; one per block or all at once
        # must give the same tables.
        spec = to_discrete(generate_instance(GeneratorParams(seed=1000)))
        whole = solve_discrete(spec)
        monkeypatch.setattr(discrete, "_MAX_STACK_CELLS", 1)
        single = solve_discrete(spec)
        for tables in ("stage_values", "stage_bids"):
            for layer, other in zip(getattr(whole, tables), getattr(single, tables)):
                assert sorted(layer) == sorted(other)
                assert all(layer[mask].tobytes() == other[mask].tobytes() for mask in layer)

    def test_lookups_answer_every_mask_in_closed_form(self):
        n = 18
        spec = wide_lattice(n)
        sol = solve_discrete(spec)
        f = spec.residual.values(np.arange(3.0))
        for t in range(n + 1):
            masks = np.arange(1 << t)
            values = np.array([sol.stage_values[t][mask] for mask in range(1 << t)])
            want = f + np.where(masks == (1 << n) - 1, 100.0, 0.0)[:, None]
            live = (1 << t) - 1
            if t < n:
                assert (t, live) not in sol.settled
                assert all((t, mask) in sol.settled for mask in range(live))
                bids = np.array([sol.stage_bids[t][mask] for mask in range(live)])
                assert not bids.any()
                values, want = values[:live], want[:live]
            assert np.array_equal(values, want)
        with pytest.raises(KeyError):
            sol.stage_values[3][8]

    def test_no_stage_is_left_empty(self):
        # resource 1 alone beats the pair, so every stage-1 component is settled
        spec = ProblemSpec(
            n=2,
            bundles=(Bundle(frozenset({1}), 10.0), Bundle(frozenset({1, 2}), 5.0)),
            endowment=2.0,
            residual=PwlFunction.linear(0.7, 0.0, 2.0),
            distributions=(DiscreteMultinomial((0.5, 0.5)),) * 2,
            mode=MODE_DISCRETE,
        )
        sol = solve_discrete(spec)
        assert len(sol.settled) == 2
        assert all(sol.stage_values)
        assert np.array_equal(sol.stage_values[2][3], 10.0 + spec.residual.values(np.arange(3.0)))
