"""Monte Carlo auction simulator and solution comparison metrics."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (random_micro_instance, random_small_instance, reference_rounds, same_rounds,
                     scalar_round, seventy_resources, table_bid)
from seqbid.continuous import (_MAXIMIZER, HybridValueFunction, UniformFixed, _maximize_batch,
                               solve_grid)
from seqbid.core import (
    Bundle,
    DiscreteMultinomial,
    MODE_DISCRETE,
    ProblemSpec,
    terminal_value,
    to_discrete,
)
from seqbid.discrete import DiscreteSolution, evaluate_policy_exact, solve_discrete
from seqbid.experiment import GeneratorParams, generate_instance
from seqbid.simulate import (
    collect_rounds,
    compare_solutions,
    constant_bid_policy,
    estimate_policy_value,
    greedy_policy,
    relative_sq_error,
    simulate_round,
    summarize_utilities,
    table_policy,
)
from seqbid.pwl import PwlFunction


def hybrid_from_discrete(sol) -> HybridValueFunction:
    """Exact discrete values reinterpreted as PWL curves on the integer lattice."""
    e = sol.endowment
    xs = tuple(float(d) for d in range(e + 1))
    components = [
        {
            mask: PwlFunction(xs, tuple(float(v) for v in sol.stage_values[t][mask]))
            for mask in range(1 << t)
        }
        for t in range(sol.n + 1)
    ]
    return HybridValueFunction(components, float(e))


class TestRelativeSqError:
    def test_normalized(self):
        assert relative_sq_error(9.0, 10.0) == pytest.approx(0.01)

    def test_exact_is_zero(self):
        assert relative_sq_error(7.35, 7.35) == 0.0

    def test_small_targets_unnormalized(self):
        assert relative_sq_error(1.0, 0.5) == pytest.approx(0.25)
        assert relative_sq_error(0.0, 0.0) == 0.0


class TestSimulateRound:
    def test_sure_win_policy(self, t1):
        for seed in range(5):
            tr = simulate_round(t1, constant_bid_policy(2.0), seed)
            assert tr.won.tolist() == [True]
            assert tr.utility == pytest.approx(10.0)

    def test_zero_bid_always_loses(self, t1):
        for seed in range(5):
            tr = simulate_round(t1, constant_bid_policy(0.0), seed)
            assert tr.won.tolist() == [False]
            assert tr.utility == pytest.approx(1.4)

    def test_replay_is_identical(self, t2):
        bidder = table_policy(solve_discrete(t2))
        assert same_rounds(simulate_round(t2, bidder, 7), simulate_round(t2, bidder, 7))

    def test_trace_invariants(self, t2):
        bidder = table_policy(solve_discrete(t2))
        for seed in range(20):
            tr = simulate_round(t2, bidder, seed)
            assert len(tr.bids) == len(tr.high_bids) == len(tr.won) == t2.n
            assert len(tr.endowments) == t2.n
            before = t2.endowment
            for i in range(t2.n):
                assert tr.won[i] == (tr.bids[i] > tr.high_bids[i])
                assert 0.0 <= tr.bids[i] <= before
                spent = tr.bids[i] if tr.won[i] else 0.0
                assert tr.endowments[i] == pytest.approx(before - spent)
                before = tr.endowments[i]
            held = [t + 1 for t in range(t2.n) if tr.won[t]]
            assert tr.utility == pytest.approx(terminal_value(held, tr.endowments[-1], t2))

    def test_bidders_get_the_holdings_mask(self, t2):
        seen = []

        def bidder(t, mask, d):
            seen.append(mask)
            return np.minimum(2.0, d)

        for seed in range(8):
            seen.clear()
            tr = simulate_round(t2, bidder, seed)
            assert all(type(mask) is int for mask in seen)
            assert seen == [sum(1 << i for i in range(t) if tr.won[i]) for t in range(t2.n)]

    def test_infeasible_bid_rejected(self, t1):
        with pytest.raises(ValueError):
            simulate_round(t1, lambda t, mask, d: d + 1.0, 0)

    def test_nan_bid_rejected(self, t1):
        with pytest.raises(ValueError, match="infeasible bid nan at stage 0"):
            simulate_round(t1, lambda t, mask, d: float("nan"), 0)


class TestCollectRounds:
    def test_deterministic(self, t2):
        bidder = table_policy(solve_discrete(t2))
        a = collect_rounds(t2, bidder, 50, seed=3)
        b = collect_rounds(t2, bidder, 50, seed=3)
        assert same_rounds(a, b)

    def test_insensitive_to_batching(self, t2):
        bidder = table_policy(solve_discrete(t2))
        assert same_rounds(collect_rounds(t2, bidder, 20, seed=3)[:5],
                           collect_rounds(t2, bidder, 5, seed=3))

    def test_seed_changes_the_draws(self, t2):
        bidder = table_policy(solve_discrete(t2))
        a = collect_rounds(t2, bidder, 50, seed=0)
        b = collect_rounds(t2, bidder, 50, seed=1)
        assert not same_rounds(a, b)

    def test_rounds_above_the_limit_refused(self, t2, monkeypatch):
        # The limit is lowered, so no test allocates a refused batch.
        from seqbid import simulate

        monkeypatch.setattr(simulate, "_MAX_CELLS", 12)
        bidder = table_policy(solve_discrete(t2))
        assert len(collect_rounds(t2, bidder, 2, seed=0)) == 2
        with pytest.raises(ValueError, match=r"^rounds: 3 rounds of 2 auctions count 18 cells "
                                             r"\(n \+ 4 a round\), above the limit of 12$"):
            collect_rounds(t2, bidder, 3, seed=0)

    def test_peak_stays_under_the_documented_bytes_a_cell(self, t1, monkeypatch):
        # The cap's comment and README promise at most 40 B of peak memory per cell the
        # cap counts.  At n = 1 a round's stage vectors outweigh its one auction's record.
        from seqbid import simulate

        bidder, rounds = table_policy(solve_discrete(t1)), 200_000
        tracemalloc.start()
        try:
            collect_rounds(t1, bidder, rounds, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(simulate, "_MAX_CELLS", 0)
        with pytest.raises(ValueError) as refused:
            collect_rounds(t1, bidder, rounds, seed=0)
        cells = int(re.search(r"([\d,]+) cells", str(refused.value)).group(1).replace(",", ""))
        assert peak <= 40 * cells

    def test_spec_is_not_validated_again(self, t2, monkeypatch):
        import sys
        from dataclasses import replace

        from seqbid import core

        bidder = table_policy(solve_discrete(t2))
        calls = []

        def counted(spec, _original=core.ensure_valid):
            calls.append(spec)
            return _original(spec)

        for module in [m for name, m in sys.modules.items() if name.startswith("seqbid")]:
            if "ensure_valid" in vars(module):
                monkeypatch.setattr(module, "ensure_valid", counted)
        collect_rounds(t2, bidder, 200, seed=0)
        assert len(calls) == 0
        replace(t2)  # a new spec checks itself, once
        assert len(calls) == 1


class TestStreamPin:
    """collect_rounds draws, bids and scores every round exactly as the
    reference loop does, one round and one stage at a time: any change to the
    random stream fails here."""

    @pytest.mark.parametrize("seed", [0, 3, 17, 2**31])
    def test_t2(self, t2, seed):
        exact = solve_discrete(t2)
        assert same_rounds(collect_rounds(t2, table_policy(exact), 200, seed),
                           reference_rounds(t2, table_bid(exact), 200, seed))

    @pytest.mark.parametrize("seed", [0, 5, 100])
    def test_generator_instance_1000(self, seed):
        spec = to_discrete(generate_instance(GeneratorParams(seed=1000)))
        exact = solve_discrete(spec)
        traces = collect_rounds(spec, table_policy(exact), 200, seed)
        assert same_rounds(traces, reference_rounds(spec, table_bid(exact), 200, seed))
        assert set(traces.won.flat) == {True, False}

    def test_gaussian_stages(self):
        spec = generate_instance(GeneratorParams(seed=1000))
        traces = collect_rounds(spec, constant_bid_policy(4.5), 200, 9)
        assert same_rounds(traces,
                           reference_rounds(spec, lambda t, held, d: min(4.5, d), 200, 9))
        assert set(traces.won.flat) == {True, False}

    def test_seventy_resources(self):
        # Holdings masks pass 2**64; a fixed-width mask would wrap.
        spec = seventy_resources()
        traces = collect_rounds(spec, constant_bid_policy(1.0), 300, 4)
        assert same_rounds(traces,
                           reference_rounds(spec, lambda t, held, d: min(1.0, d), 300, 4))
        assert max(max(np.flatnonzero(tr.won)) + 1 for tr in traces) == 70


class TestBatchStream:
    """One round is row 0 of a batch, drawn from the doubles seqbid has always
    drawn for a lone round; a batch calls the bidder once per (stage, holdings)."""

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_simulate_round_is_round_zero_of_a_batch(self, seed):
        spec = to_discrete(generate_instance(GeneratorParams(seed=1000)))
        bidder = table_policy(solve_discrete(spec))
        assert same_rounds(simulate_round(spec, bidder, seed),
                           collect_rounds(spec, bidder, 1, seed)[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_simulate_round_draws_as_a_lone_generator_does(self, seed):
        spec = to_discrete(generate_instance(GeneratorParams(seed=1000)))
        exact = solve_discrete(spec)
        assert same_rounds(simulate_round(spec, table_policy(exact), seed),
                           scalar_round(spec, table_bid(exact), np.random.default_rng(seed)))

    @pytest.mark.parametrize("instance", [1000, 2000])
    def test_one_bidder_call_per_stage_and_holdings(self, instance):
        spec = to_discrete(generate_instance(GeneratorParams(seed=instance)))
        policy = table_policy(solve_discrete(spec))
        calls = []

        def bidder(t, mask, d):
            calls.append((t, mask, d.copy()))
            return policy(t, mask, d)

        traces = collect_rounds(spec, bidder, 500, 3)
        groups = {(t, tuple(tr.won[:t])) for tr in traces for t in range(spec.n)}
        assert len(calls) == len(groups) < 500 * spec.n
        assert all(type(mask) is int and type(d) is np.ndarray for _, mask, d in calls)
        for t in range(spec.n):
            assert sum(len(d) for s, _, d in calls if s == t) == 500
            expect = {}
            for tr in traces:
                mask = sum(1 << i for i in range(t) if tr.won[i])
                expect.setdefault(mask, []).append(tr.endowments[t - 1] if t else spec.endowment)
            assert {mask: d.tolist() for s, mask, d in calls if s == t} == expect

    @settings(max_examples=60, deadline=None)
    @given(instance=st.integers(0, 2**32 - 1), micro=st.booleans(),
           rounds=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_regrouping_matches_the_reference_loop(self, instance, micro, rounds, seed):
        # A bid level per (stage, holdings) splits the groups unevenly: some win every
        # auction they reach, some none, so holdings diverge stage by stage.
        rng = np.random.default_rng(instance)
        spec = random_micro_instance(rng) if micro else random_small_instance(rng)
        levels = (1.3, 0.6, 2.4, 0.0, 5.0)

        def level(t, mask):
            return levels[(2 * t + 3 * mask) % len(levels)]

        calls = []

        def bidder(t, mask, d):
            calls.append((t, mask))
            return np.minimum(level(t, mask), d)

        traces = collect_rounds(spec, bidder, rounds, seed)
        assert same_rounds(traces, reference_rounds(
            spec, lambda t, held, d: min(level(t, held), d), rounds, seed))
        assert sorted(calls) == sorted(
            {(t, sum(1 << i for i in range(t) if tr.won[i])) for tr in traces
             for t in range(spec.n)})

    @pytest.mark.parametrize("kind", ["micro", "gaussian", "seventy"])
    def test_utility_is_terminal_value_bit_for_bit(self, kind):
        # Bids of all the endowment leave some rounds at exactly 0.
        spec, top = {"micro": (random_micro_instance(np.random.default_rng(11)), 5.0),
                     "gaussian": (generate_instance(GeneratorParams(seed=1000)), 30.0),
                     "seventy": (seventy_resources(), 100.0)}[kind]
        levels = (1.3, 0.6, top, 0.0, 4.5)
        traces = collect_rounds(spec, lambda t, mask, d: np.minimum(levels[(t + mask) % 5], d),
                                400, 5)
        assert (traces.endowments[:, -1] == 0.0).any()
        for tr in traces:
            mask = sum(1 << t for t, won in enumerate(tr.won.tolist()) if won)
            want = terminal_value(mask, tr.endowments[-1], spec)
            assert float(tr.utility).hex() == float(want).hex()

    def test_more_groups_than_a_narrow_sort_key_holds(self):
        # Twenty fair coins that a bid in (0, 1] beats only at level 0: 100,000 rounds reach
        # about 90,800 holdings before the last stage, so that stage sorts group ids wider
        # than 16 bits, which numpy does not sort by radix.  The bid tells the holdings.
        n = 20
        spec = ProblemSpec(n=n, bundles=(Bundle(frozenset(range(1, n + 1)), 100.0),
                                         Bundle(frozenset({1, 2}), 5.0)),
                           endowment=float(n), residual=PwlFunction.linear(0.7, 0.0, float(n)),
                           distributions=(DiscreteMultinomial((0.5, 0.5)),) * n,
                           mode=MODE_DISCRETE)
        calls = []

        def bidder(t, mask, d):
            calls.append((t, mask))
            return np.full(d.shape, 0.5 + mask % 3 / 4)

        traces = collect_rounds(spec, bidder, 100_000, 2)
        held = traces.won.astype(np.int64) * (1 << np.arange(n))
        before = [held[:, :t].sum(axis=1) for t in range(n + 1)]
        assert len(np.unique(before[n - 1])) > 1 << 16
        assert (traces.bids == 0.5 + np.stack(before[:n], axis=1) % 3 / 4).all()
        assert sorted(calls) == [(t, int(mask)) for t in range(n) for mask in np.unique(before[t])]
        finals = held.sum(axis=1).tolist()
        for tr, mask in zip(traces, finals):
            want = terminal_value(mask, tr.endowments[-1], spec)
            assert float(tr.utility).hex() == float(want).hex()

    def test_infeasible_array_bid_is_reported_as_a_float(self, t1):
        def bidder(t, mask, d):
            assert isinstance(d, np.ndarray)
            return np.full(d.shape, np.nan)

        with pytest.raises(ValueError, match=r"^bidder returned infeasible bid nan at stage 0$"):
            collect_rounds(t1, bidder, 5, 0)

    def test_final_endowment_checked_elementwise(self, t2):
        ds = np.array([0.0, 1.5, 3.0])
        assert terminal_value(2, ds, t2).tolist() == [terminal_value(2, d, t2) for d in ds]
        assert terminal_value(3, ds, t2).tolist() == [10.0, 11.05, 12.1]
        for bad, shown in ((3.5, r"3\.5"), (-0.5, r"-0\.5"), (np.nan, "nan")):
            with pytest.raises(ValueError, match=rf"^endowment {shown} outside \[0, 3\.0\]$"):
                terminal_value(2, np.array([1.0, bad, 2.0]), t2)


class TestSummarize:
    def test_degenerate_outcome(self, t1):
        mean, stderr = estimate_policy_value(t1, constant_bid_policy(2.0), 200, 0)
        assert (mean, stderr) == (pytest.approx(10.0), 0.0)

    def test_single_round(self):
        assert summarize_utilities([4.2]) == (pytest.approx(4.2), 0.0)

    def test_a_record_column_summarizes_as_its_list_did(self):
        # The bits of summarize_utilities over the list of Python floats, as they were.
        spec = generate_instance(GeneratorParams(seed=1000))
        rec = collect_rounds(spec, constant_bid_policy(4.5), 2000, 9)
        listed = rec.utility.tolist()
        mean = math.fsum(listed) / len(listed)
        stderr = math.sqrt(math.fsum((u - mean) ** 2 for u in listed)
                           / (len(listed) - 1) / len(listed))
        assert summarize_utilities(rec.utility) == (mean, stderr)
        assert summarize_utilities([tr.utility for tr in rec]) == (mean, stderr)

    def test_a_million_utilities_are_summed_a_chunk_at_a_time(self):
        utilities = np.random.default_rng(0).random(1_000_000) * 20.0
        listed = utilities.tolist()
        mean = math.fsum(listed) / len(listed)
        stderr = math.sqrt(math.fsum((u - mean) ** 2 for u in listed)
                           / (len(listed) - 1) / len(listed))
        del listed
        tracemalloc.start()
        try:
            assert summarize_utilities(utilities) == (mean, stderr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Python floats of the whole column would take 32 MB; one chunk takes about 2 MB.
        assert peak < 4_000_000

    def test_matches_numpy(self):
        vals = [1.0, 2.0, 4.0, 8.0]
        mean, stderr = summarize_utilities(vals)
        assert mean == pytest.approx(np.mean(vals))
        assert stderr == pytest.approx(np.std(vals, ddof=1) / np.sqrt(len(vals)))

    def test_closed_form_expectation(self, t1):
        mean, stderr = estimate_policy_value(t1, constant_bid_policy(1.0), 2000, 11)
        assert abs(mean - 6.05) <= 4 * stderr

    def test_optimal_policy_on_t2(self, t2):
        bidder = table_policy(solve_discrete(t2))
        mean, stderr = estimate_policy_value(t2, bidder, 3000, 5)
        assert abs(mean - 7.35) <= 4 * stderr


class TestGreedyPolicy:
    def test_rounds_are_feasible_and_deterministic(self, c1):
        sol = solve_grid(c1, UniformFixed(5))
        bidder = greedy_policy(sol.values, c1)
        a = collect_rounds(c1, bidder, 40, seed=2)
        b = collect_rounds(c1, bidder, 40, seed=2)
        assert same_rounds(a, b)
        for tr in a:
            assert 0.0 <= tr.bids[0] <= c1.endowment
            assert 0.0 <= tr.utility <= 11.4 + 1e-9

    def test_a_group_bids_as_lone_calls_do(self):
        spec = generate_instance(GeneratorParams(seed=1000))
        values = solve_grid(spec, UniformFixed(15)).values
        bidder = greedy_policy(values, spec)
        ds = np.linspace(0.0, spec.endowment, 23)
        for t in range(spec.n):
            nxt = values.components[t + 1]
            for mask in list(values.components[t])[:3]:
                lone = [_maximize_batch(nxt[mask | 1 << t], nxt[mask], spec.distributions[t],
                                        np.array([d]), _MAXIMIZER)[0][0] for d in ds]
                assert bidder(t, mask, ds).tolist() == lone

    def test_rejects_endowment_outside_domain(self, c1):
        bidder = greedy_policy(solve_grid(c1, UniformFixed(5)).values, c1)
        assert 0.0 <= bidder(0, 0, 2.0) <= 2.0
        for d in (-0.5, 2.5, float("nan")):
            with pytest.raises(ValueError, match="endowment"):
                bidder(0, 0, d)

    def test_discrete_spec_refused(self, t2):
        values = hybrid_from_discrete(solve_discrete(t2))
        with pytest.raises(ValueError, match="greedy_policy needs a continuous-mode spec"):
            greedy_policy(values, t2)

    def test_beats_walking_away(self, c1):
        sol = solve_grid(c1, UniformFixed(9))
        mean, _ = estimate_policy_value(c1, greedy_policy(sol.values, c1), 400, 0)
        assert mean > 1.4


class TestBidderProtocol:
    """Every shipped bidder bids once per endowment of the array it is given, and both
    evaluate_policy_exact (integral bidders) and collect_rounds take it."""

    @pytest.fixture
    def shipped(self, t2, c1):
        exact = solve_discrete(t2)
        return {
            "constant_bid_policy": (t2, constant_bid_policy(1)),
            "table_policy": (t2, table_policy(exact)),
            "DiscreteSolution.policy": (t2, exact.policy()),
            "greedy_policy": (c1, greedy_policy(solve_grid(c1, UniformFixed(5)).values, c1)),
        }

    @pytest.mark.parametrize("name", ["constant_bid_policy", "table_policy",
                                      "DiscreteSolution.policy", "greedy_policy"])
    def test_shipped_bidders(self, shipped, name):
        spec, bidder = shipped[name]
        e = spec.endowment
        for ds in (np.array([e]), np.arange(e + 1), np.array([e, 0.0, 1.0, e, 1.0])):
            z = bidder(0, 0, ds)
            assert isinstance(z, np.ndarray) and z.shape == ds.shape
            assert np.all((z >= 0.0) & (z <= ds))
        traces = collect_rounds(spec, bidder, 40, seed=3)
        assert [tr.bids[0] for tr in traces] == [float(bidder(0, 0, np.array([e]))[0])] * 40
        if spec.mode == MODE_DISCRETE:
            replay = evaluate_policy_exact(spec, bidder)
            assert replay[0][0].shape == (int(e) + 1,)

    @pytest.mark.parametrize("answer, got", [
        (np.array([0, 1, 1]), r"an array of shape \(3,\), dtype int64"),
        (np.zeros((1, 4)), r"an array of shape \(1, 4\), dtype float64"),
        (None, "None"),
        ("1", "'1'"),
    ])
    def test_neither_one_bid_nor_one_per_endowment_is_refused(self, t2, answer, got):
        # The bidder answers (1, 1) wrongly; the evaluator asks 4 endowments there, and
        # collect_rounds as many as the rounds that won stage 0, which bid 1 at d = 3.
        def bidder(t, mask, d):
            return answer if (t, mask) == (1, 1) else np.minimum(1, d)

        rounds = collect_rounds(t2, lambda t, mask, d: np.minimum(1, d), 50, seed=2)
        won = int(rounds.won[:, 0].sum())
        for run, asked in ((lambda: evaluate_policy_exact(t2, bidder), 4),
                           (lambda: collect_rounds(t2, bidder, 50, seed=2), won)):
            with pytest.raises(ValueError, match=f"^bidder: {got} at stage 1, mask 1 is neither "
                                                 f"one bid nor one per endowment asked "
                                                 rf"\({asked}\)$"):
                run()

    def test_table_bidders_are_one_function(self, t2):
        assert table_policy is DiscreteSolution.policy
        exact = solve_discrete(t2)
        ds = np.array([3.0, 0.0, 2.0])
        assert table_policy(exact)(1, 1, ds).tolist() == exact.stage_bids[1][1][[3, 0, 2]].tolist()

    def test_a_scalar_bid_applies_to_every_endowment(self, t2):
        # Every round enters stage 0 with the whole endowment of 3.
        def scalar(t, mask, d):
            return 2 if t == 0 else np.minimum(1, d)

        def vector(t, mask, d):
            return np.minimum(2 if t == 0 else 1, d)

        assert same_rounds(collect_rounds(t2, scalar, 60, seed=5),
                           collect_rounds(t2, vector, 60, seed=5))
        never = evaluate_policy_exact(t2, lambda t, mask, d: 0)
        zeros = evaluate_policy_exact(t2, constant_bid_policy(0))
        assert [sorted(layer) for layer in never] == [sorted(layer) for layer in zeros]
        for layer, want in zip(never, zeros):
            assert all(layer[mask].tobytes() == want[mask].tobytes() for mask in layer)


class TestCompareSolutions:
    def test_self_comparison_has_zero_value_error(self, c2):
        exact = solve_discrete(to_discrete(c2))
        report = compare_solutions(exact, hybrid_from_discrete(exact), c2)
        assert report.mean_value_err == 0.0
        assert report.max_value_err == 0.0
        assert report.states == exact.state_count
        for row in report.per_stage:
            assert row.mean_value_err == 0.0 and row.max_value_err == 0.0

    def test_per_stage_state_counts(self, c2):
        exact = solve_discrete(to_discrete(c2))
        report = compare_solutions(exact, hybrid_from_discrete(exact), c2)
        assert [row.stage for row in report.per_stage] == [0, 1]
        assert [row.states for row in report.per_stage] == [4, 8]

    def test_discrete_spec_refused(self, t2):
        exact = solve_discrete(t2)
        with pytest.raises(ValueError, match="compare_solutions needs a continuous-mode spec"):
            compare_solutions(exact, hybrid_from_discrete(exact), t2)

    def test_grid_errors_are_finite_and_ordered(self, c1):
        from seqbid.core import to_discrete

        exact = solve_discrete(to_discrete(c1))
        sol = solve_grid(c1, UniformFixed(5))
        report = compare_solutions(exact, sol.values, c1)
        assert 0.0 <= report.mean_value_err <= report.max_value_err
        assert 0.0 <= report.mean_policy_err <= report.max_policy_err
        assert report.states == exact.state_count
