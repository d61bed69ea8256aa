"""Command-line front end: solve one spec, simulate a policy, or run a suite."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .continuous import error_bound, solve_grid
from .core import to_discrete
from .discrete import solve_discrete
from .experiment import ExperimentConfig, RunSpec, config_from_dict, run_experiment_suite
from .io import (
    _write_csv,
    load_spec,
    read_discrete_solution,
    read_grid_solution,
    write_delta_ledger,
    write_discrete_solution,
    write_grid_solution,
)
from .simulate import collect_rounds, greedy_policy, summarize_utilities, table_policy


def parse_grid_strategy(text: str):
    """fixed:<g> | vg1:<max_knots>,<threshold> | vg2:<max_knots>,<threshold>"""
    kind, _, rest = text.partition(":")
    knots, comma, threshold = rest.partition(",")
    if kind not in ("fixed", "vg1", "vg2") or (comma and kind == "fixed"):
        raise argparse.ArgumentTypeError(
            f"bad grid spec {text!r}; expected fixed:<g>, vg1:<k>,<t> or vg2:<k>,<t>")
    try:
        fields = ({"g": int(knots)} if kind == "fixed" else
                  {"max_knots": int(knots), "threshold": float(threshold or 0.0)})
        return RunSpec(kind, **fields).strategy()
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}: {err}") from None


def _seed(text: str) -> int:
    """A --seed: numpy seeds from nonnegative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return int(text)


@contextmanager
def _bad_input_exits():
    """Turn unreadable or invalid input into `error: ...` on stderr and exit status 2."""
    try:
        yield
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_solve(args) -> int:
    with _bad_input_exits():
        spec = load_spec(args.spec)
        sol = (solve_discrete(to_discrete(spec)) if args.mode == "discrete"
               else solve_grid(spec, args.grid))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "discrete":
        write_discrete_solution(sol, out / "solution.csv")
        start = sol.value(0, 0, sol.endowment)
        print(f"discrete solve: {sol.state_count} states, "
              f"start value {start:.6f}, bid {sol.bid(0, 0, sol.endowment)}")
    else:
        write_grid_solution(sol, out / "solution.csv")
        write_delta_ledger(sol.ledger, out / "ledger.csv")
        start = sol.values.value(0, 0, spec.endowment)
        print(f"grid solve: {sol.state_count} knots evaluated, "
              f"start value {start:.6f}, "
              f"error bound at start {error_bound(sol.ledger, 0):.6f}")
    return 0


def _cmd_simulate(args) -> int:
    with _bad_input_exits():
        spec = load_spec(args.spec)
        with open(args.policy) as fh:
            header = fh.readline().strip().split(",")
        if "settled" in header:
            spec = to_discrete(spec)
            bidder = table_policy(read_discrete_solution(args.policy, spec))
        else:
            bidder = greedy_policy(read_grid_solution(args.policy, spec).values, spec)
        rec = collect_rounds(spec, bidder, args.rounds, args.seed)
    mean, stderr = summarize_utilities(rec.utility)
    print(f"rounds {args.rounds}  mean utility {mean:.6f}  stderr {stderr:.6f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # Bit t of a round's holdings mask is won[t], as a Python int of any width.
        masks = (int.from_bytes(row, "little")
                 for row in np.packbits(rec.won, axis=1, bitorder="little"))
        _write_csv(out / "rounds.csv",
                   ["round", "utility", "final_endowment", "holdings_mask", "auctions_won"],
                   zip(range(args.rounds), rec.utility.tolist(), rec.endowments[:, -1].tolist(),
                       masks, rec.won.sum(axis=1).tolist()))
    return 0


def _cmd_experiment(args) -> int:
    try:
        config = ExperimentConfig() if args.config == "default" else config_from_dict(
            json.loads(Path(args.config).read_text()))
        overrides = {"master_seed": args.seed, "output_dir": args.out}
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError) as err:
        print(f"error: bad experiment config: {err}", file=sys.stderr)
        return 2
    result = run_experiment_suite(config)
    print(f"suite written to {result.output_dir}")
    for name, agg in result.aggregate.items():
        print(f"  {name:>10}: states {agg['states']:9.1f}  "
              f"value err {agg['mean_sq_value_error']:.4f}  "
              f"policy err {agg['mean_sq_policy_error']:.4f}")
    if result.failures:
        print(f"  failed experiments: {result.failures}", file=sys.stderr)
    return 1 if result.failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="seqbid",
        description="Solvers and simulators for sequential first-price auctions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem spec")
    solve.add_argument("spec", help="problem spec JSON file")
    solve.add_argument("--mode", choices=["discrete", "grid"], required=True)
    solve.add_argument("--grid", type=parse_grid_strategy,
                       default=parse_grid_strategy("fixed:15"),
                       help="fixed:<g> | vg1:<k>,<t> | vg2:<k>,<t> (grid mode)")
    solve.add_argument("--out", required=True, help="output directory")
    solve.set_defaults(func=_cmd_solve)

    sim = sub.add_parser("simulate", help="Monte Carlo evaluation of a policy")
    sim.add_argument("spec", help="problem spec JSON file")
    sim.add_argument("--policy", required=True, help="solution CSV from `solve`")
    sim.add_argument("--rounds", type=int, default=1000)
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--out", help="optional directory for per-round CSV")
    sim.set_defaults(func=_cmd_simulate)

    exp = sub.add_parser("experiment", help="run a randomized benchmark suite")
    exp.add_argument("--config", required=True,
                     help="config JSON file, or `default` for the stock suite")
    exp.add_argument("--seed", type=_seed, help="override the master seed")
    exp.add_argument("--out", help="override the output directory")
    exp.set_defaults(func=_cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
