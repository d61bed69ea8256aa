#!/usr/bin/env python3
"""Recompute perfbench/pins.json, the reference outputs every run checks against.

    python3 perfbench/pin.py

Run it only when a change is meant to alter results, and say so with the
change: the pins are what keeps a speed-up from buying its gain with accuracy.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    from seqbid import cli, continuous, core, discrete, experiment

    pins: dict = {"suite": {}, "adaptive": {}, "montecarlo": {}}
    scratch = ROOT / ".perfbench-out" / "pin"
    for seed in workloads.SUITE_MASTER_SEED.values():
        shutil.rmtree(scratch, ignore_errors=True)
        rc = cli.main(["experiment", "--config", "default", "--seed", str(seed),
                       "--out", str(scratch)])
        if rc != 0:
            raise SystemExit(f"suite seed {seed} failed with status {rc}")
        with open(scratch / "aggregate.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        manifest = json.loads((scratch / "manifest.json").read_text())
        pins["suite"][str(seed)] = {
            "experiments": len(manifest["experiments"]),
            "aggregate": {r[0]: [float(x) for x in r[1:]] for r in rows},
        }
    shutil.rmtree(scratch, ignore_errors=True)

    for seeds in workloads.INSTANCE_SEEDS.values():
        for s in seeds:
            spec = experiment.generate_instance(experiment.GeneratorParams(seed=s))
            for tag, strategy in workloads.adaptive_strategies():
                sol = continuous.solve_grid(spec, strategy)
                pins["adaptive"][f"{s}/{tag}"] = sol.values.value(0, 0, spec.endowment)

    spec = workloads.wide_spec()
    lattice = core.to_discrete(spec)
    sol = discrete.solve_discrete(lattice)
    e = int(lattice.endowment)
    grid = continuous.solve_grid(spec, continuous.UniformFixed(workloads.WIDE_GRID))
    pins["wide"] = {
        "discrete_start": sol.value(0, 0, e),
        "discrete_bid": sol.bid(0, 0, e),
        "grid_start": grid.values.value(0, 0, spec.endowment),
    }

    for s in workloads.MC_INSTANCE_SEED.values():
        lattice = core.to_discrete(
            experiment.generate_instance(experiment.GeneratorParams(seed=s)))
        gold = discrete.solve_discrete(lattice)
        pins["montecarlo"][str(s)] = gold.value(0, 0, int(lattice.endowment))

    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
