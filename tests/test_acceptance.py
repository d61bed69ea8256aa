"""End-to-end acceptance gates, one verdict line per criterion.

Run with -s to see the checklist as it happens; without -s the lines appear
in captured output.  Heavy shared artifacts (the solved instance bank, the
stock benchmark suite) are built once and reused across criteria.
"""

from __future__ import annotations

import csv
import time

import numpy as np
import pytest

from oracles import expectimax, random_micro_instance, random_small_instance
from seqbid.continuous import (
    MaximizerConfig,
    UniformFixed,
    Vg1,
    _maximize_batch,
    error_bound,
    solve_grid,
)
from seqbid.core import ensure_valid, to_discrete
from seqbid.discrete import evaluate_policy_exact, solve_discrete
from seqbid.experiment import GeneratorParams, generate_instance
from seqbid.pwl import RefinementBudget, vg1_refine, vg2_refine
from seqbid.simulate import constant_bid_policy, estimate_policy_value, table_policy
from test_continuous import knot_backup_gap


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def small_bank():
    """Twenty random continuous instances solved on a five-knot uniform grid."""
    bank = []
    for i in range(20):
        spec = ensure_valid(random_small_instance(np.random.default_rng(5000 + i)))
        bank.append((spec, solve_grid(spec, UniformFixed(5))))
    return bank


@pytest.fixture(scope="module")
def scale_bank():
    """Ten benchmark-scale instances with G5/G10/G15 and a g=1001 reference."""
    start = time.perf_counter()
    bank = []
    for i in range(10):
        spec = generate_instance(GeneratorParams(seed=1000 + i))
        approx = {
            g: solve_grid(spec, UniformFixed(g)) for g in (5, 10, 15)
        }
        reference = solve_grid(spec, UniformFixed(1001))
        bank.append((spec, approx, reference))
    return bank, time.perf_counter() - start


def test_criterion_1_oracle_equivalence(t1, t2):
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        spec = ensure_valid(random_micro_instance(np.random.default_rng(i)))
        values, bids = expectimax(spec)
        sol = solve_discrete(spec)
        for t in range(spec.n + 1):
            for mask in range(1 << t):
                arr = sol.stage_values[t][mask]
                for d in range(len(arr)):
                    worst = max(worst, abs(arr[d] - values[t, mask, d]))
                if t < spec.n:
                    arr = sol.stage_bids[t][mask]
                    for d in range(len(arr)):
                        assert int(arr[d]) == bids[t, mask, d]
    sol1, sol2 = solve_discrete(t1), solve_discrete(t2)
    fixtures_ok = (
        abs(sol1.value(0, 0, 2) - 10.0) < 1e-12
        and sol1.bid(0, 0, 2) == 2
        and abs(sol2.value(0, 0, 3) - 7.35) < 1e-12
        and sol2.bid(0, 0, 3) == 1
    )
    elapsed = time.perf_counter() - start
    verdict(
        1,
        worst <= 1e-9 and fixtures_ok and elapsed < 10.0,
        f"200 micro instances vs expectimax, worst |dV| {worst:.2e}, "
        f"named fixtures ok={fixtures_ok}, {elapsed:.1f}s",
    )


def test_criterion_2_grid_point_exactness(small_bank):
    start = time.perf_counter()
    worst = max(knot_backup_gap(spec, sol) for spec, sol in small_bank)
    elapsed = time.perf_counter() - start
    verdict(
        2,
        worst <= 1e-3 and elapsed < 30.0,
        f"20 instances, worst knot gap vs dense 1e-4 oracle {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_one_stage_interpolation_bound(small_bank):
    worst_excess = -np.inf
    for spec, sol in small_bank:
        lattice = np.linspace(0.0, spec.endowment, 1001)
        for t in range(spec.n):
            for mask in range(1 << t):
                if (t, mask) in sol.settled:
                    continue
                comp = sol.values.component(t, mask)
                _, exact = _maximize_batch(
                    sol.values.component(t + 1, mask | (1 << t)),
                    sol.values.component(t + 1, mask),
                    spec.distributions[t], lattice, MaximizerConfig(),
                )
                gap = float(np.max(np.abs(comp.values(lattice) - exact)))
                delta, _ = comp.max_consecutive_delta()
                worst_excess = max(worst_excess, gap - delta)
    verdict(
        3,
        worst_excess <= 1e-3,
        f"one-stage sup error minus component delta <= {worst_excess:.2e} "
        f"(allowed 1e-3) over 20 instances",
    )


def test_criterion_4_accumulated_bound(scale_bank):
    bank, build_seconds = scale_bank
    start = time.perf_counter()
    worst_margin = -np.inf
    for spec, approx, reference in bank:
        lattice = np.arange(0.0, spec.endowment + 0.5)
        for sol in approx.values():
            for t in range(spec.n + 1):
                deviation = max(
                    float(
                        np.max(
                            np.abs(
                                sol.values.component(t, mask).values(lattice)
                                - reference.values.component(t, mask).values(lattice)
                            )
                        )
                    )
                    for mask in range(1 << min(t, spec.n))
                )
                bound = error_bound(sol.ledger, t) + error_bound(reference.ledger, t)
                worst_margin = max(worst_margin, deviation - bound)
    elapsed = build_seconds + time.perf_counter() - start
    verdict(
        4,
        worst_margin <= 1e-9 and elapsed < 300.0,
        f"10 scale instances x G5/G10/G15 vs g=1001 reference, worst "
        f"(deviation - bound) {worst_margin:.2e}, {elapsed:.0f}s",
    )


def test_criterion_5_policy_loss_bound(scale_bank):
    bank, _ = scale_bank
    worst_margin = -np.inf
    details = []
    for spec, approx, _ in bank:
        twin = to_discrete(spec)
        exact = solve_discrete(twin)
        sol = approx[5]
        e = int(round(spec.endowment))
        lattice = np.arange(e + 1, dtype=float)
        max_err = 0.0
        bid_table = {}
        for t in range(spec.n):
            for mask in range(1 << t):
                if (t, mask) in exact.settled:
                    continue
                max_err = max(
                    max_err,
                    float(
                        np.max(
                            np.abs(
                                sol.values.component(t, mask).values(lattice)
                                - exact.stage_values[t][mask]
                            )
                        )
                    ),
                )
                zs, _ = _maximize_batch(
                    sol.values.component(t + 1, mask | (1 << t)),
                    sol.values.component(t + 1, mask),
                    spec.distributions[t], lattice, MaximizerConfig(),
                )
                bid_table[t, mask] = np.clip(np.rint(zs), 0, lattice).astype(int)

        def rounded_greedy(t, mask, d):
            if (t, mask) in bid_table:
                return bid_table[t, mask][d]
            return 0  # one bid for every endowment

        replay = evaluate_policy_exact(twin, rounded_greedy)
        loss = float(exact.stage_values[0][0][e] - replay[0][0][e])
        bound = 2.0 * max_err + 0.7
        worst_margin = max(worst_margin, loss - bound)
        details.append((loss, bound))
    sample = ", ".join(f"{l:.2f}<={b:.2f}" for l, b in details[:3])
    verdict(
        5,
        worst_margin <= 1e-9,
        f"10 instances, rounded G5 greedy loss vs 2*max_err+0.7 "
        f"(worst margin {worst_margin:.2e}; e.g. {sample})",
    )


def test_criterion_6_error_trend(default_suite_pair):
    out, _, elapsed = default_suite_pair
    with open(out / "aggregate.csv") as fh:
        rows = {row["run"]: row for row in csv.DictReader(fh)}
    g5v = float(rows["G5"]["mean_sq_value_error"])
    g15v = float(rows["G15"]["mean_sq_value_error"])
    g5p = float(rows["G5"]["mean_sq_policy_error"])
    g15p = float(rows["G15"]["mean_sq_policy_error"])
    with open(out / "per_stage_errors.csv") as fh:
        curve_rows = [row for row in csv.DictReader(fh) if row["run"] == "G15"]
    verdict(
        6,
        g15v < g5v and g15p < g5p and g15v < 0.1 and curve_rows
        and elapsed < 1200.0,
        f"value err G15 {g15v:.4f} < G5 {g5v:.4f}, policy err G15 {g15p:.4f} "
        f"< G5 {g5p:.4f}, G15 < 0.1, {len(curve_rows)} per-stage rows, "
        f"suite pair {elapsed:.0f}s",
    )


def test_criterion_7_linear_economy(c1):
    from seqbid.core import Bundle, ProblemSpec

    spec = ProblemSpec(
        n=2,
        bundles=(Bundle(frozenset({1}), 10.0), Bundle(frozenset({1, 2}), 10.0)),
        endowment=4.0,
        residual=c1.residual.__class__.linear(0.7, 0.0, 4.0),
        distributions=(c1.distributions[0],) * 2,
        mode="continuous",
    )
    sol = solve_grid(spec, UniformFixed(5))
    budget = RefinementBudget(15, 1e-6)
    ok = bool(sol.settled)
    counts = []
    for t, mask in sorted(sol.settled):
        comp = sol.values.component(t, mask)
        vg2 = vg2_refine(comp, comp.domain, budget)
        vg1 = vg1_refine(comp, comp.domain, budget)
        counts.append((len(vg2.xs), len(vg1.xs)))
        ok = ok and len(vg2.xs) == 3 and len(vg1.xs) == budget.max_knots
    verdict(
        7,
        ok,
        f"settled linear components -> vg2/vg1 knot counts {counts} "
        f"(want 3 vs full budget {budget.max_knots})",
    )


def test_criterion_8_monte_carlo_consistency(t1, t2):
    start = time.perf_counter()
    bidder = table_policy(solve_discrete(t2))
    mean, stderr = estimate_policy_value(t2, bidder, 100_000, seed=0)
    mean1, stderr1 = estimate_policy_value(t1, constant_bid_policy(2.0), 10_000, seed=0)
    elapsed = time.perf_counter() - start
    verdict(
        8,
        abs(mean - 7.35) <= 3 * stderr and mean1 == 10.0 and stderr1 == 0.0
        and elapsed < 30.0,
        f"optimal policy 100k rounds: mean {mean:.4f} within "
        f"{abs(mean - 7.35) / stderr:.2f} stderr of 7.35; sure-win policy mean "
        f"{mean1}, {elapsed:.1f}s",
    )


def test_criterion_9_determinism(default_suite_pair):
    out_a, out_b, _ = default_suite_pair
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    same_names = files_a == files_b
    diffs = [
        str(rel)
        for rel in files_a
        if (out_a / rel).read_bytes() != (out_b / rel).read_bytes()
    ] if same_names else ["<file lists differ>"]
    verdict(
        9,
        same_names and not diffs,
        f"two seed-42 suite runs, {len(files_a)} files compared, "
        f"differing: {diffs or 'none'}",
    )
