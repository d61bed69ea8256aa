"""File formats: problem specs as JSON, solutions and reports as CSV.

The JSON layout is the interchange format for the command-line tools:

    {
      "n": 2,
      "bundles": [{"members": [1, 2], "value": 10.0}],
      "endowment": 3,
      "residual": {"knots": [[0, 0], [3, 2.1]]}  |  {"linear_slope": 0.7},
      "distributions": [
        {"kind": "multinomial", "probs": [0.5, 0.5]},
        {"kind": "gaussian", "mean": 1.0, "std": 0.5}
      ],
      "mode": "discrete" | "continuous"
    }
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

import numpy as np

from .continuous import DeltaLedger, GridSolution, HybridValueFunction, error_bound
from .core import (
    Bundle,
    DiscreteMultinomial,
    ProblemSpec,
    TruncatedGaussian,
    ensure_valid,
)
from .discrete import DiscreteSolution, Settled
from .pwl import PwlFunction
from .simulate import ErrorReport

PathLike = Union[str, Path]


def spec_to_dict(spec: ProblemSpec) -> dict:
    dists = []
    for d in spec.distributions:
        if isinstance(d, DiscreteMultinomial):
            dists.append({"kind": "multinomial", "probs": list(d.probs)})
        else:
            dists.append({"kind": "gaussian", "mean": d.mean, "std": d.std})
    return {
        "n": spec.n,
        "bundles": [
            {"members": sorted(b.members), "value": b.value} for b in spec.bundles
        ],
        "endowment": spec.endowment,
        "residual": {"knots": [[x, y] for x, y in spec.residual.knots]},
        "distributions": dists,
        "mode": spec.mode,
    }


def _integer(value, field: str) -> int:
    """An integer-valued field; 1.5 is refused, not truncated to 1."""
    if not float(value).is_integer():
        raise ValueError(f"{field}: {value!r} is not an integer")
    return int(value)


def spec_from_dict(data: dict) -> ProblemSpec:
    try:
        n = _integer(data["n"], "n")
        endowment = float(data["endowment"])
        bundles = tuple(
            Bundle(frozenset(_integer(i, f"bundles[{j}].members") for i in b["members"]),
                   float(b["value"]))
            for j, b in enumerate(data["bundles"])
        )
        residual_data = data["residual"]
        if "knots" in residual_data:
            residual = PwlFunction.from_knots(
                (float(x), float(y)) for x, y in residual_data["knots"]
            )
        elif "linear_slope" in residual_data:
            residual = PwlFunction.linear(
                float(residual_data["linear_slope"]), 0.0, endowment
            )
        else:
            raise KeyError("residual needs 'knots' or 'linear_slope'")
        dists = []
        for i, d in enumerate(data["distributions"]):
            kind = d["kind"]
            if kind == "multinomial":
                dists.append(DiscreteMultinomial(tuple(float(p) for p in d["probs"])))
            elif kind == "gaussian":
                dists.append(TruncatedGaussian(float(d["mean"]), float(d["std"])))
            else:
                raise ValueError(f"distributions[{i}].kind: unknown kind {kind!r}")
        mode = str(data["mode"])
    except KeyError as err:
        raise ValueError(f"spec file missing field {err.args[0]!r}") from None
    return ProblemSpec(n, bundles, endowment, residual, tuple(dists), mode)


def load_spec(path: PathLike) -> ProblemSpec:
    with open(path) as fh:
        spec = spec_from_dict(json.load(fh))
    return ensure_valid(spec)


def save_spec(spec: ProblemSpec, path: PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_discrete_solution(
    sol: DiscreteSolution, path: PathLike
) -> None:
    """Full state dump: one row per (stage, holdings mask, endowment).

    Every mask below 2^t is written, settled ones from their closed form.
    """
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["stage", "holdings_mask", "endowment", "value", "bid", "settled"])
        for t in range(sol.n + 1):
            for mask in range(1 << t):
                values = sol.stage_values[t][mask]
                if t < sol.n:
                    bids = sol.stage_bids[t][mask]
                    flag = 1 if (t, mask) in sol.settled else 0
                else:
                    bids = np.zeros(sol.endowment + 1, dtype=np.int64)
                    flag = 1
                for d in range(sol.endowment + 1):
                    out.writerow([t, mask, d, float(values[d]), int(bids[d]), flag])


def read_discrete_solution(path: PathLike) -> DiscreteSolution:
    rows = []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            rows.append(
                (int(row["stage"]), int(row["holdings_mask"]), int(row["endowment"]),
                 float(row["value"]), int(row["bid"]), int(row["settled"]))
            )
    if not rows:
        raise ValueError(f"no solution rows in {path}")
    n = max(r[0] for r in rows)
    e = max(r[2] for r in rows)
    stage_values: list[dict[int, np.ndarray]] = [dict() for _ in range(n + 1)]
    stage_bids: list[dict[int, np.ndarray]] = [dict() for _ in range(n)]
    unsettled: set[tuple[int, int]] = set()
    for t, mask, d, value, bid, flag in rows:
        stage_values[t].setdefault(mask, np.zeros(e + 1))[d] = value
        if t < n:
            stage_bids[t].setdefault(mask, np.zeros(e + 1, dtype=np.int64))[d] = bid
            if not flag:
                unsettled.add((t, mask))
    return DiscreteSolution(n, e, stage_values, stage_bids, Settled(n, unsettled),
                            len(unsettled) * (e + 1))


def write_grid_solution(sol: GridSolution, path: PathLike) -> None:
    """Knot dump: one row per (stage, holdings mask, knot), every mask below 2^t."""
    v = sol.values
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["stage", "holdings_mask", "endowment", "value", "bid"])
        for t in range(v.n + 1):
            for mask in range(1 << t):
                comp = v.components[t][mask]
                bids = sol.knot_bids.get((t, mask))
                for j, (x, y) in enumerate(comp.knots):
                    bid = float(bids[j]) if bids is not None else 0.0
                    out.writerow([t, mask, x, y, bid])


def read_grid_solution(path: PathLike) -> tuple[HybridValueFunction, dict]:
    knots: dict[tuple[int, int], list[tuple[float, float]]] = {}
    bids: dict[tuple[int, int], list[float]] = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            key = (int(row["stage"]), int(row["holdings_mask"]))
            knots.setdefault(key, []).append(
                (float(row["endowment"]), float(row["value"]))
            )
            bids.setdefault(key, []).append(float(row["bid"]))
    if not knots:
        raise ValueError(f"no solution rows in {path}")
    n = max(t for t, _ in knots)
    components: list[dict[int, PwlFunction]] = [dict() for _ in range(n + 1)]
    knot_bids = {}
    for (t, mask), pairs in knots.items():
        components[t][mask] = PwlFunction.from_knots(sorted(pairs))
        knot_bids[(t, mask)] = np.array(bids[(t, mask)])
    m = components[0][0].domain[1] if components[0] else max(
        comp.domain[1] for layer in components for comp in layer.values()
    )
    return HybridValueFunction(components, m), knot_bids


def write_delta_ledger(ledger: DeltaLedger, path: PathLike) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["stage", "delta", "cumulative_bound"])
        for t, delta in enumerate(ledger.deltas):
            out.writerow([t, delta, error_bound(ledger, t)])


def write_error_report(report: ErrorReport, path: PathLike) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(
            ["stage", "mean_value_err", "max_value_err",
             "mean_policy_err", "max_policy_err", "states"]
        )
        for s in report.per_stage:
            out.writerow(
                [s.stage, s.mean_value_err, s.max_value_err,
                 s.mean_policy_err, s.max_policy_err, s.states]
            )
        out.writerow(
            ["all", report.mean_value_err, report.max_value_err,
             report.mean_policy_err, report.max_policy_err, report.states]
        )
