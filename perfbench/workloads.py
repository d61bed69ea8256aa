"""The four benchmark workloads: inputs, timed ops and output checks.

Every workload is a closed loop with one client: each op starts when the
previous one has returned.  ``setup()`` imports seqbid and builds the inputs;
``run_pass(rec)`` runs the whole op list once, bracketing every op with
``rec.begin_op(key)`` / ``rec.end_op()``, and checks the outputs outside those
brackets.  A pass returns its op count, failed ops, timed body seconds and
the deterministic counters that must repeat exactly in every pass and run.

seqbid is imported inside ``setup()``, never at module level, so that
``setup_s`` includes the import a user pays for.

Input sets: ``default`` is the workload definition; ``held-out`` is the set a
performance claim must also hold on, so it is not used while tuning a change.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import shutil
import struct
import time
from dataclasses import dataclass
from pathlib import Path

clock = time.perf_counter

PINS_PATH = Path(__file__).parent / "pins.json"
REL_TOL = 1e-6

SUITE_MASTER_SEED = {"default": 42, "held-out": 43}
INSTANCE_SEEDS = {"default": (1000, 1001, 1002, 1003),
                  "held-out": (2000, 2001, 2002, 2003)}
MC_INSTANCE_SEED = {"default": 1000, "held-out": 2000}
MC_BATCH_BASE = {"default": 0, "held-out": 100}
MC_BATCHES = 100
MC_ROUNDS_PER_BATCH = 500
# Replicate seed n shifts the batch seeds by n * MC_SEED_STRIDE, so no
# replicate of the default set reuses the held-out batch seeds 100-199.
MC_SEED_STRIDE = 1_000_000
WIDE_N = 18
WIDE_GRID = 15


def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def adaptive_strategies() -> tuple:
    import seqbid

    budget = seqbid.RefinementBudget(15, 0.01)
    return (("vg1", seqbid.Vg1(budget)), ("vg2", seqbid.Vg2(budget)))


def wide_spec():
    """One bundle of all WIDE_N resources worth 100; cheap, overlapping high bids."""
    from seqbid import core, pwl

    n = WIDE_N
    return core.ProblemSpec(
        n=n,
        bundles=(core.Bundle(frozenset(range(1, n + 1)), 100.0),),
        endowment=24.0,
        residual=pwl.PwlFunction.linear(0.7, 0.0, 24.0),
        distributions=tuple(
            core.TruncatedGaussian(0.2 + 0.05 * (t % 5), 0.3) for t in range(n)
        ),
        mode=core.MODE_CONTINUOUS,
    )


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


def timed(rec, key: str, fn, *args):
    """One op between the recorder's marks: (result or None, latency, failure note or None)."""
    rec.begin_op(key)
    try:
        result = fn(*args)
    except Exception as err:  # noqa: BLE001 - a failed op is counted, not fatal
        return None, rec.end_op(), f"{key}: {type(err).__name__}: {err}"
    return result, rec.end_op(), None


@dataclass
class PassResult:
    ops: int
    failed: int
    body_s: float  # summed op latencies, or the CLI call for the suite
    counters: dict
    notes: list[str]


class Suite:
    """The stock 20-experiment suite through the command line, as users run it.

    One op is one experiment: it starts when the suite calls
    ``generate_instance`` and ends when the next experiment starts or, for
    the last one, when the suite returns (so it includes the aggregate files).
    """

    name = "suite"
    unit = "experiments"
    work_per_op = 1
    op_span = "experiment.op"  # an experiment's own code is experiment-layer self time

    def __init__(self, inputs: str, seed: int, scratch: Path):
        self.master_seed = SUITE_MASTER_SEED[inputs]
        self.pins = pins()["suite"][str(self.master_seed)]
        self.scratch = scratch

    def setup(self) -> None:
        import seqbid.cli

        self.cli = seqbid.cli
        self.experiment = seqbid.experiment

    def run_pass(self, rec, index: int) -> PassResult:
        out = self.scratch / f"suite-{index}"
        shutil.rmtree(out, ignore_errors=True)
        exp, cli = self.experiment, self.cli
        generate, run_suite = exp.generate_instance, cli.run_experiment_suite

        started = itertools.count()

        def generate_hook(params):
            rec.begin_op(f"exp{next(started):02d}")
            return generate(params)

        def suite_hook(config):
            try:
                return run_suite(config)
            finally:
                rec.end_op()

        exp.generate_instance, cli.run_experiment_suite = generate_hook, suite_hook
        argv = ["experiment", "--config", "default", "--seed", str(self.master_seed),
                "--out", str(out)]
        notes: list[str] = []
        t0 = clock()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception as err:  # noqa: BLE001 - a crashed pass fails all its ops
            rc = f"raised {type(err).__name__}: {err}"
        finally:
            body = clock() - t0
            exp.generate_instance, cli.run_experiment_suite = generate, run_suite
        try:
            return self._check(out, rc, body, notes)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, rc, body: float, notes: list[str]) -> PassResult:
        n_ops = self.pins["experiments"]
        if rc != 0:
            notes.append(f"suite exit status {rc}")
            return PassResult(n_ops, n_ops, body, {}, notes)
        manifest = json.loads((out / "manifest.json").read_text())
        statuses = [e["status"] for e in manifest["experiments"]]
        failed = sum(s != "ok" for s in statuses)
        if failed:
            notes.append(f"manifest: {failed} experiments not ok")
        with open(out / "aggregate.csv", newline="") as fh:
            rows = {r[0]: [float(x) for x in r[1:]] for r in list(csv.reader(fh))[1:]}
        mismatched = [
            name for name, want in self.pins["aggregate"].items()
            if name not in rows or len(rows[name]) != len(want)
            or not all(close(a, b) for a, b in zip(rows[name], want))
        ]
        if mismatched or set(rows) != set(self.pins["aggregate"]):
            notes.append(f"aggregate.csv differs from the pinned values: {mismatched}")
            failed = len(statuses)
        tree = hashlib.sha256()
        tree_bytes = files = 0
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            tree.update(path.relative_to(out).as_posix().encode() + b"\0")
            tree.update(hashlib.sha256(data).digest())
            tree_bytes += len(data)
            files += 1
        grids = [name for name in rows if name.startswith("G")]
        counters = {
            "suite.tree_sha256": tree.hexdigest(),
            "suite.tree_bytes": tree_bytes,
            "suite.tree_files": files,
            "value_err": sum(rows[g][1] for g in grids) / len(grids),
            "policy_err": sum(rows[g][3] for g in grids) / len(grids),
            "experiment.failures": failed,
        }
        return PassResult(len(statuses), failed, body, counters, notes)

    def finish(self) -> dict:
        return {}


class Adaptive:
    """Vg1 and Vg2 solves at 15 knots on four stock-generator instances.

    One op is one ``solve_grid`` call; eight per pass.
    """

    name = "adaptive"
    unit = "solves"
    work_per_op = 1
    op_span = "bench.op"

    def __init__(self, inputs: str, seed: int, scratch: Path):
        self.seeds = INSTANCE_SEEDS[inputs]
        self.pins = pins()["adaptive"]

    def setup(self) -> None:
        from seqbid import continuous, experiment

        self.continuous = continuous
        self.strategies = adaptive_strategies()
        self.instances = {
            s: experiment.generate_instance(experiment.GeneratorParams(seed=s))
            for s in self.seeds
        }
        self.solutions: dict = {}

    def run_pass(self, rec, index: int) -> PassResult:
        failed, body, notes = 0, 0.0, []
        starts, knots = [], []
        for s, spec in self.instances.items():
            for tag, strategy in self.strategies:
                key = f"{s}/{tag}"
                sol, dt, err = timed(rec, key, self.continuous.solve_grid, spec, strategy)
                body += dt
                if err:
                    failed += 1
                    notes.append(err)
                    continue
                start = sol.values.value(0, 0, spec.endowment)
                if not close(start, self.pins[key]):
                    failed += 1
                    notes.append(f"{key}: start value {start!r} != pinned {self.pins[key]!r}")
                starts.append(start)
                knots.append(sol.state_count)
                self.solutions[key] = (spec, sol)
        counters = {"adaptive.start_values": starts, "adaptive.knots": knots}
        return PassResult(len(self.seeds) * len(self.strategies), failed, body,
                          counters, notes)

    def finish(self) -> dict:
        """Accuracy against the exact lattice solution, outside the timed body."""
        from seqbid import core, discrete, simulate

        gold = {}
        value, policy = [], []
        for key, (spec, sol) in sorted(self.solutions.items()):
            s = key.split("/")[0]
            if s not in gold:
                gold[s] = discrete.solve_discrete(core.to_discrete(spec))
            report = simulate.compare_solutions(gold[s], sol.values, spec)
            value.append(report.mean_value_err)
            policy.append(report.mean_policy_err)
        if not value:
            return {}
        return {"value_err": sum(value) / len(value),
                "policy_err": sum(policy) / len(policy)}


class Wide:
    """Eighteen resources in one bundle: almost every component is settled.

    Ops: the exact solve, exact evaluation of its policy, and a G15 grid solve.
    """

    name = "wide"
    unit = "solves"
    work_per_op = 1
    op_span = "bench.op"

    def __init__(self, inputs: str, seed: int, scratch: Path):
        self.pins = pins()["wide"]

    def setup(self) -> None:
        from seqbid import continuous, core, discrete

        self.continuous, self.discrete = continuous, discrete
        self.spec = wide_spec()
        self.lattice = core.to_discrete(self.spec)
        self.grid = continuous.UniformFixed(WIDE_GRID)

    def run_pass(self, rec, index: int) -> PassResult:
        import numpy as np

        failed, body, notes, counters = 0, 0.0, [], {}
        e = int(self.lattice.endowment)

        def op(key, fn, *args):
            nonlocal body, failed
            result, dt, err = timed(rec, key, fn, *args)
            body += dt
            if err:
                failed += 1
                notes.append(err)
            return result

        sol = op("solve_discrete", self.discrete.solve_discrete, self.lattice)
        if sol is not None:
            start, bid = sol.value(0, 0, e), sol.bid(0, 0, e)
            if not close(start, self.pins["discrete_start"]) or bid != self.pins["discrete_bid"]:
                failed += 1
                notes.append(f"discrete start {start!r}, bid {bid} differ from the pins")
            counters.update({
                "wide.discrete_start": start,
                "discrete.components": sum(len(v) for v in sol.stage_values),
                "discrete.settled": len(sol.settled),
                "discrete.states": sol.state_count,
            })
            values = op("evaluate_policy_exact", self.discrete.evaluate_policy_exact,
                        self.lattice, sol.policy())
            if values is not None:
                worst = max(
                    float(np.max(np.abs(
                        np.concatenate([values[t][m] for m in sol.stage_values[t]])
                        - np.concatenate(list(sol.stage_values[t].values()))
                    )))
                    for t in range(WIDE_N + 1)
                )
                if worst > 1e-9:
                    failed += 1
                    notes.append(f"exact policy evaluation differs from the solve by {worst!r}")
            del values
        else:
            failed += 1
            notes.append("evaluate_policy_exact skipped: no exact solution")
        del sol
        grid = op("solve_grid", self.continuous.solve_grid, self.spec, self.grid)
        if grid is not None:
            start = grid.values.value(0, 0, self.spec.endowment)
            if not close(start, self.pins["grid_start"]):
                failed += 1
                notes.append(f"G15 start value {start!r} != pinned {self.pins['grid_start']!r}")
            counters.update({
                "wide.grid_start": start,
                "continuous.knots": grid.state_count,
                "continuous.components": sum(len(c) for c in grid.values.components),
                "continuous.settled": len(grid.settled),
            })
        return PassResult(3, min(failed, 3), body, counters, notes)

    def finish(self) -> dict:
        return {}


class MonteCarlo:
    """50,000 rounds of the exact table policy, in 100 batches of 500.

    One op is one ``collect_rounds`` batch; no solver runs in the timed body.
    """

    name = "montecarlo"
    unit = "rounds"
    work_per_op = MC_ROUNDS_PER_BATCH
    op_span = "bench.op"

    def __init__(self, inputs: str, seed: int, scratch: Path):
        self.instance_seed = MC_INSTANCE_SEED[inputs]
        base = MC_BATCH_BASE[inputs] + seed * MC_SEED_STRIDE
        self.batch_seeds = range(base, base + MC_BATCHES)
        self.exact_pin = pins()["montecarlo"][str(self.instance_seed)]

    def setup(self) -> None:
        from seqbid import core, discrete, experiment, simulate

        self.simulate = simulate
        self.spec = core.to_discrete(experiment.generate_instance(
            experiment.GeneratorParams(seed=self.instance_seed)))
        self.gold = discrete.solve_discrete(self.spec)
        self.bidder = simulate.table_policy(self.gold)

    def run_pass(self, rec, index: int) -> PassResult:
        bidder = rec.wrap_bidder(self.bidder)
        utilities: list[float] = []
        failed, body, notes = 0, 0.0, []
        for batch in self.batch_seeds:
            traces, dt, err = timed(rec, f"batch{batch}", self.simulate.collect_rounds,
                                    self.spec, bidder, MC_ROUNDS_PER_BATCH, batch)
            body += dt
            if err:
                failed += 1
                notes.append(err)
                continue
            utilities.extend(tr.utility for tr in traces)
        exact = self.gold.value(0, 0, int(self.spec.endowment))
        if not close(exact, self.exact_pin):
            notes.append(f"exact start value {exact!r} != pinned {self.exact_pin!r}")
            failed = MC_BATCHES
        mean = stderr = float("nan")
        if utilities:
            mean, stderr = self.simulate.summarize_utilities(utilities)
            if not abs(mean - self.exact_pin) <= 4.0 * stderr:
                notes.append(f"pooled mean {mean:.6f} +- {stderr:.6f} is more than "
                             f"4 standard errors from {self.exact_pin:.6f}")
                failed = MC_BATCHES
        counters = {
            "montecarlo.rounds": len(utilities),
            "montecarlo.mean": mean,
            "montecarlo.stderr": stderr,
            "montecarlo.utilities_sha256": hashlib.sha256(
                struct.pack(f"{len(utilities)}d", *utilities)).hexdigest(),
        }
        return PassResult(MC_BATCHES, failed, body, counters, notes)

    def finish(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Suite, Adaptive, Wide, MonteCarlo)}
