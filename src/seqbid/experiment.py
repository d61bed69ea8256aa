"""Randomized benchmark suite: generate instances, solve, compare, report.

Each experiment draws one instance, solves its discretized copy exactly as the
gold standard, then runs every configured solver and scores it against the
gold standard on the integer endowment lattice.  Aggregates over experiments
land in one CSV shaped like a results table (one row per run, mean state
counts and mean/mean-max squared errors) plus per-stage error curves suitable
for plotting.

Everything is driven by one master seed: experiment i generates from a child
seed derived from (master_seed, i), so a rerun with the same configuration
reproduces every file byte for byte.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from math import inf, isfinite, isqrt, sqrt
from pathlib import Path

import numpy as np

# solve_grid and compare_solutions stay bound here: perfbench/spans.py patches them by name.
from .continuous import _MAXIMIZER, UniformFixed, Vg1, Vg2, error_bound, solve_grid, solve_grids
from .core import (
    _ENDOWMENT_SLACK,
    Bundle,
    MODE_CONTINUOUS,
    ProblemSpec,
    TruncatedGaussian,
    to_discrete,
)
from .discrete import _MAX_LATTICE_CELLS, DiscreteSolution, solve_discrete
from .io import (
    _read,
    _table,
    _untable,
    _write_csv,
    _write_json,
    save_spec,
    write_delta_ledger,
    write_discrete_solution,
    write_error_report,
    write_grid_solution,
)
from .pwl import PwlFunction, RefinementBudget
from .simulate import ErrorReport, StageErrors, compare_all, compare_solutions

log = logging.getLogger(__name__)
_MAX_DRAWS = 10_000  # most resources and bundles a generator draws per instance


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for random instance generation.

    Bundles draw their members from a pool of n_resources; resources that end
    up in no bundle are dropped and the rest renumbered, so the generated
    instance's stage count is the size of the union.  Sizes round a normal
    draw and clamp to [1, n_resources]; values clamp to stay positive.
    bid_var and value_var are variances, not deviations.
    """

    n_resources: int = 10
    n_bundles: int = 4
    bundle_size_mean: float = 3.0
    bundle_size_std: float = 1.0
    value_mean: float = 15.0
    value_var: float = 2.0
    bid_mean_range: tuple[float, float] = (3.0, 6.0)
    bid_var: float = 0.5
    endowment: float = 30.0
    residual_slope: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        means, cap = self.bid_mean_range, f"at least 1 and at most {_MAX_DRAWS:,}"
        for name, ok, rule in (
            ("n_resources", 1 <= self.n_resources <= _MAX_DRAWS, cap),
            ("n_bundles", 1 <= self.n_bundles <= _MAX_DRAWS, cap),
            ("bundle_size_mean", isfinite(self.bundle_size_mean), "finite"),
            ("bundle_size_std", 0 <= self.bundle_size_std < inf, "nonnegative and finite"),
            ("value_mean", isfinite(self.value_mean), "finite"),
            ("value_var", 0 <= self.value_var < inf, "nonnegative and finite"),
            ("bid_mean_range", len(means) == 2 and 0 <= means[1] - means[0] < inf,
             "a (low, high) pair with high - low finite"),
            ("bid_var", 0 < self.bid_var < inf, "positive and finite"),
            ("endowment", 0 < self.endowment < inf, "positive and finite"),
            ("residual_slope", 0 <= self.residual_slope < inf, "nonnegative and finite"),
        ):
            if not ok:
                raise ValueError(f"{name}: {getattr(self, name)!r} must be {rule}")


def generate_instance(params: GeneratorParams) -> ProblemSpec:
    """One random continuous-mode instance; same params give the same spec."""
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    sizes = np.clip(
        np.rint(rng.normal(params.bundle_size_mean, params.bundle_size_std,
                           params.n_bundles)),
        1, params.n_resources,
    ).astype(int)
    members = [
        np.sort(rng.choice(params.n_resources, size=s, replace=False) + 1)
        for s in sizes
    ]
    values = np.maximum(
        rng.normal(params.value_mean, sqrt(params.value_var), params.n_bundles),
        1e-6,
    )
    lo, hi = params.bid_mean_range
    bid_means = rng.uniform(lo, hi, params.n_resources)

    kept = sorted(set().union(*(set(m.tolist()) for m in members)))
    renumber = {old: new + 1 for new, old in enumerate(kept)}
    bundles = tuple(
        Bundle(frozenset(renumber[i] for i in mem.tolist()), float(v))
        for mem, v in zip(members, values)
    )
    dists = tuple(
        TruncatedGaussian(float(bid_means[old - 1]), sqrt(params.bid_var))
        for old in kept
    )
    return ProblemSpec(
        n=len(kept),
        bundles=bundles,
        endowment=float(params.endowment),
        residual=PwlFunction.linear(params.residual_slope, 0.0, params.endowment),
        distributions=dists,
        mode=MODE_CONTINUOUS,
    )


@dataclass(frozen=True)
class RunSpec:
    """One solver configuration inside a suite."""

    kind: str  # "discrete" | "fixed" | "vg1" | "vg2"
    g: int = 0
    max_knots: int = 0
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("discrete", "fixed", "vg1", "vg2"):
            raise ValueError(f"kind: {self.kind!r} is not one of discrete, fixed, vg1, vg2")
        self.strategy()  # refuses a bad g, max_knots or threshold, tagged with the field

    @property
    def name(self) -> str:
        if self.kind == "discrete":
            return "Discrete"
        if self.kind == "fixed":
            return f"G{self.g}"
        tag = f"{self.kind.upper()}-{self.max_knots}"
        return f"{tag}-{self.threshold:g}" if self.threshold else tag

    def strategy(self):
        """The grid strategy this run solves with; None for the discrete run."""
        if self.kind == "discrete":
            return None
        if self.kind == "fixed":
            return UniformFixed(self.g)
        budget = RefinementBudget(self.max_knots, self.threshold)
        return Vg1(budget) if self.kind == "vg1" else Vg2(budget)


def default_runs() -> tuple[RunSpec, ...]:
    return (
        RunSpec("discrete"),
        RunSpec("fixed", g=5),
        RunSpec("fixed", g=10),
        RunSpec("fixed", g=15),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    n_experiments: int = 20
    runs: tuple[RunSpec, ...] = field(default_factory=default_runs)
    output_dir: str = "suite-out"
    master_seed: int = 0
    generator: GeneratorParams = field(default_factory=GeneratorParams)

    def __post_init__(self) -> None:
        for name in ("n_experiments", "master_seed"):  # numpy seeds nonnegative ints only
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: {getattr(self, name)} must be nonnegative")
        e = self.generator.endowment
        if abs(e - round(e)) > _ENDOWMENT_SLACK or (round(e) + 1) ** 2 > _MAX_LATTICE_CELLS:
            raise ValueError(f"generator.endowment: {e!r} must be a whole number of at most "
                             f"{isqrt(_MAX_LATTICE_CELLS) - 1}, as every experiment solves "
                             "its instance's discrete twin exactly")
        for i, run in enumerate(self.runs):
            if run.name in (r.name for r in self.runs[:i]):
                raise ValueError(f"runs[{i}]: duplicate run name {run.name}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Config from config_to_dict's layout; a missing field keeps its default.

    Unknown keys are refused, but for a manifest's `experiments`. A `maximizer`
    table, which manifests of earlier versions hold, may only repeat the fixed
    settings. Every experiment derives its own generator seed.
    """
    fixed = _untable(_MAXIMIZER)
    for key, value in _read(_read(data, dict, "config").get("maximizer", {}), dict,
                            "maximizer").items():
        if key not in fixed or value != fixed[key]:
            raise ValueError(f"maximizer.{key}: {value!r} cannot be set; the bid maximizer's "
                             f"settings are fixed at {fixed}")
    return _table(ExperimentConfig, {k: v for k, v in data.items()
                                     if k not in ("maximizer", "experiments")}, "")


def config_to_dict(config: ExperimentConfig) -> dict:
    """The manifest's config fields; output_dir and generator.seed are left out."""
    return _untable(config, ("output_dir", "generator.seed"))


def derive_seed(master_seed: int, index: int) -> int:
    """Child seed for experiment `index`, stable across runs and platforms."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1)[0])


def _self_report(gold: DiscreteSolution) -> ErrorReport:
    """The gold standard compared against itself: zero everywhere."""
    per_stage = [StageErrors(t, 0.0, 0.0, 0.0, 0.0, len(bids) * (gold.endowment + 1))
                 for t, bids in enumerate(gold.stage_bids)]
    return ErrorReport(per_stage, 0.0, 0.0, 0.0, 0.0, gold.state_count)


@dataclass
class SuiteResult:
    output_dir: Path
    aggregate: dict[str, dict[str, float]]
    failures: list[int]


def run_experiment_suite(config: ExperimentConfig) -> SuiteResult:
    """Run every experiment and write all report files under the output dir.

    A solver failure aborts that experiment, is logged, and leaves the rest
    of the suite running; failed experiments are excluded from aggregates and
    recorded in the manifest.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Per run name, one (states, report, ledger) record per experiment that succeeded.
    records: dict[str, list[tuple]] = {r.name: [] for r in config.runs}
    manifest_experiments = []
    failures: list[int] = []

    for i in range(config.n_experiments):
        seed = derive_seed(config.master_seed, i)
        exp_dir = out / f"exp_{i:02d}"
        try:
            instance = generate_instance(replace(config.generator, seed=seed))
            twin = to_discrete(instance)
            gold = solve_discrete(twin)
            exp_dir.mkdir(exist_ok=True)
            save_spec(instance, exp_dir / "instance.json")
            grids = [run for run in config.runs if run.kind != "discrete"]
            sols = solve_grids(instance, [run.strategy() for run in grids])
            reports = compare_all(gold, [sol.values for sol in sols], instance)
            solved = dict(zip(grids, zip(sols, reports)))
            done = []  # counted in the aggregates only once every run has succeeded
            for run in config.runs:
                if run.kind == "discrete":
                    write_discrete_solution(gold, exp_dir / "Discrete_solution.csv")
                    states, report, ledger = gold.state_count, _self_report(gold), None
                else:
                    sol, report = solved[run]
                    write_grid_solution(sol, exp_dir / f"{run.name}_solution.csv")
                    write_delta_ledger(sol.ledger, exp_dir / f"{run.name}_ledger.csv")
                    states, ledger = sol.state_count, sol.ledger
                write_error_report(report, exp_dir / f"{run.name}_errors.csv")
                done.append((run.name, (float(states), report, ledger)))
            for name, record in done:
                records[name].append(record)
            manifest_experiments.append(
                {"index": i, "seed": seed, "n": instance.n, "status": "ok"}
            )
        except Exception as err:  # noqa: BLE001 - suite must survive bad draws
            log.exception("experiment %d failed", i)
            failures.append(i)
            manifest_experiments.append(
                {"index": i, "seed": seed, "n": None,
                 "status": f"error: {type(err).__name__}: {err}"}
            )

    # The four error fields of ErrorReport and StageErrors, averaged over rows.
    errors = [f.name for f in fields(StageErrors)][1:-1]

    def means(rows) -> list[float]:
        return [float(np.mean([getattr(r, k) for r in rows])) for k in errors]

    columns = ["states", "mean_sq_value_error", "mean_max_sq_value_error",
               "mean_sq_policy_error", "mean_max_sq_policy_error"]
    aggregate: dict[str, dict[str, float]] = {}
    stage_rows, bound_rows = [], []
    for name, recs in records.items():
        if not recs:
            continue
        states, reports, ledgers = zip(*recs)
        aggregate[name] = dict(zip(columns, [float(np.mean(states)), *means(reports)]))
        by_stage: dict[int, list[StageErrors]] = {}
        for s in (s for report in reports for s in report.per_stage if s.states):
            by_stage.setdefault(s.stage, []).append(s)
        stage_rows += ([name, stage, *means(reached), len(reached)]
                       for stage, reached in sorted(by_stage.items()))
        ledgers = [led for led in ledgers if led is not None]
        for t in range(max((led.n for led in ledgers), default=-1) + 1):
            with_stage = [led for led in ledgers if led.n >= t]
            bound_rows.append([name, t, float(np.mean([led.deltas[t] for led in with_stage])),
                               float(np.mean([error_bound(led, t) for led in with_stage]))])

    _write_csv(out / "aggregate.csv", ["run", *columns],
               ([name, *agg.values()] for name, agg in aggregate.items()))
    _write_csv(out / "per_stage_errors.csv", ["run", "stage", *errors, "experiments"], stage_rows)
    _write_csv(out / "bounds.csv", ["run", "stage", "mean_delta", "mean_cumulative_bound"],
               bound_rows)

    _write_json(out / "manifest.json",
                {**config_to_dict(config), "experiments": manifest_experiments})

    return SuiteResult(out, aggregate, failures)
