#!/usr/bin/env python3
"""Fixed versus adaptive grids on one random instance, at matched budgets.

For each knot budget, solves the instance with a uniform fixed grid and with
both adaptive refinement strategies, then reports the realized state count,
the certified start-state error bound from the delta ledger, the measured
worst absolute value error against the exact solution of the discretized twin
on the integer endowment lattice, and the suite's relative mean squared error
metric.  The certified bound should dominate the measured absolute error;
adaptive runs should tighten the bound at equal budgets.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from seqbid.continuous import UniformFixed, Vg1, Vg2, error_bound, solve_grid
from seqbid.core import to_discrete
from seqbid.discrete import DiscreteSolution, solve_discrete
from seqbid.experiment import GeneratorParams, generate_instance
from seqbid.pwl import RefinementBudget
from seqbid.simulate import compare_solutions


def max_abs_lattice_error(gold: DiscreteSolution, sol) -> float:
    """Worst |approx - exact| over the unsettled and terminal components gold stores."""
    lattice = np.arange(gold.endowment + 1, dtype=float)
    worst = 0.0
    for t, layer in enumerate(gold.stage_values):
        for mask, exact in layer.items():
            if (t, mask) in gold.settled:
                continue
            approx = sol.values.components[t][mask].values(lattice)
            worst = max(worst, float(np.abs(approx - exact).max()))
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7, help="instance seed (default 7)")
    p.add_argument("--budgets", type=int, nargs="+", default=[5, 10, 15, 25],
                   help="knot budgets per component (default 5 10 15 25)")
    args = p.parse_args(argv)

    instance = generate_instance(GeneratorParams(seed=args.seed))
    gold = solve_discrete(to_discrete(instance))
    print(f"instance: n={instance.n} stages, endowment {instance.endowment:g}, "
          f"{len(instance.bundles)} bundles (seed {args.seed})")
    print(f"exact start value {gold.value(0, 0, gold.endowment):.4f}, "
          f"{gold.state_count} discrete states")
    print()

    header = (f"{'run':<10} {'states':>7} {'certified bound':>16} "
              f"{'max |dV| lattice':>17} {'rel mean sq err':>16}")
    print(header)
    print("-" * len(header))
    for budget in args.budgets:
        strategies = [
            (f"G{budget}", UniformFixed(budget)),
            (f"VG1-{budget}", Vg1(RefinementBudget(budget, 0.0))),
            (f"VG2-{budget}", Vg2(RefinementBudget(budget, 0.0))),
        ]
        for name, strategy in strategies:
            sol = solve_grid(instance, strategy)
            report = compare_solutions(gold, sol.values, instance)
            print(f"{name:<10} {sol.state_count:>7} "
                  f"{error_bound(sol.ledger, 0):>16.4f} "
                  f"{max_abs_lattice_error(gold, sol):>17.4f} "
                  f"{report.mean_value_err:>16.6f}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
