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
import sys
from dataclasses import fields
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .continuous import DeltaLedger, GridSolution, _closed_form, _grid_solution, error_bound
from .core import (
    _ENDOWMENT_SLACK,
    Bundle,
    DiscreteMultinomial,
    ProblemSpec,
    TruncatedGaussian,
)
from .discrete import DiscreteSolution, _lattice, _solution
from .pwl import PwlFunction
from .simulate import ErrorReport, StageErrors

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


def _number(value, field: str) -> float:
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:  # int to float compare
        raise ValueError(f"{field}: a {value.bit_length()}-bit integer is beyond the float range")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field}: {value!r} is not a number") from None


def _integer(value, field: str) -> int:
    """An integer-valued field, an int or read as a number ("9.0" is 9); 1.5 is refused."""
    if not _number(value, field).is_integer():
        raise ValueError(f"{field}: {value!r} is not an integer")
    return int(value) if isinstance(value, int) else int(float(value))


def _typed(value, kind: type, field: str):
    """value if it is a kind (dict: a table, list: a list), else a ValueError naming field."""
    if not isinstance(value, kind):
        raise ValueError(f"{field}: {value!r} is not a {'table' if kind is dict else 'list'}")
    return value


def spec_from_dict(data: dict) -> ProblemSpec:
    """The spec of spec_to_dict's layout; a field missing, of the wrong type or not a
    number where one belongs is refused, tagged with its path: distributions[0].mean."""
    try:
        n = _integer(_typed(data, dict, "spec")["n"], "n")
        endowment = _number(data["endowment"], "endowment")
        bundles = []
        for j, b in enumerate(_typed(data["bundles"], list, "bundles")):
            where = f"bundles[{j}]"
            members = _typed(_typed(b, dict, where)["members"], list, f"{where}.members")
            bundles.append(Bundle(frozenset(_integer(i, f"{where}.members") for i in members),
                                  _number(b["value"], f"{where}.value")))
        residual_data = _typed(data["residual"], dict, "residual")
        if "knots" in residual_data:
            where = "residual.knots"
            residual = PwlFunction.from_knots(
                [_number(v, f"{where}[{k}]") for v in _typed(xy, list, f"{where}[{k}]")]
                for k, xy in enumerate(_typed(residual_data["knots"], list, where)))
        elif "linear_slope" in residual_data:
            residual = PwlFunction.linear(
                _number(residual_data["linear_slope"], "residual.linear_slope"), 0.0, endowment)
        else:
            raise KeyError("residual needs 'knots' or 'linear_slope'")
        dists = []
        for i, d in enumerate(_typed(data["distributions"], list, "distributions")):
            where = f"distributions[{i}]"
            kind = _typed(d, dict, where)["kind"]
            if kind == "multinomial":
                probs = _typed(d["probs"], list, f"{where}.probs")
                dists.append(DiscreteMultinomial([_number(p, f"{where}.probs") for p in probs]))
            elif kind == "gaussian":
                dists.append(TruncatedGaussian(_number(d["mean"], f"{where}.mean"),
                                               _number(d["std"], f"{where}.std")))
            else:
                raise ValueError(f"{where}.kind: unknown kind {kind!r}")
        mode = str(data["mode"])
    except KeyError as err:
        raise ValueError(f"spec file missing field {err.args[0]!r}") from None
    return ProblemSpec(n, tuple(bundles), endowment, residual, tuple(dists), mode)


def load_spec(path: PathLike) -> ProblemSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def save_spec(spec: ProblemSpec, path: PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: PathLike, header: list[str], rows: Iterable) -> None:
    """A CSV file of one header row, then `rows`."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


_DISCRETE_HEADER = ["stage", "holdings_mask", "endowment", "value", "bid", "settled"]
_GRID_HEADER = _DISCRETE_HEADER[:-1]


def _write_blocks(path: PathLike, header: list[str], layers: list[dict], block) -> None:
    """_write_csv's bytes (repr for floats, str for ints, \r\n line ends) for header, then
    per stage t and ascending mask of layers[t] the lines rows() each after "t,mask,", with
    key, rows = block(t, mask, layers[t][mask]): each distinct key's rows formatted once."""
    lines: dict = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, layer in enumerate(layers):
            for mask in sorted(layer):
                key, rows = block(t, mask, layer[mask])
                body = lines[key] if key in lines else lines.setdefault(key, rows())
                fh.write(f"{t},{mask}," + f"\r\n{t},{mask},".join(body) + "\r\n")


def write_discrete_solution(sol: DiscreteSolution, path: PathLike) -> None:
    """One row per (stage, holdings mask, endowment) of each stored component: every
    unsettled one with its bids, and the settled and terminal ones the sweep reached,
    flagged settled and bidding 0; each distinct block of values and bids formatted once."""

    def block(t, mask, values):
        bids = sol.stage_bids[t].get(mask) if t < sol.n else None
        return (values.tobytes(), bids is None or bids.tobytes()), lambda: [
            f"{d},{v!r},{z},{int(bids is None)}" for d, (v, z) in
            enumerate(zip(values.tolist(), repeat(0) if bids is None else bids.tolist()))]

    _write_blocks(path, _DISCRETE_HEADER, sol.stage_values, block)


def _components(path: PathLike, spec: ProblemSpec, header: list[str]) -> dict:
    """A solution file's rows by (stage, mask) component, each row without its
    stage and mask, once every stage and mask is checked against spec and every
    unsettled component's two successors are found in the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        groups: dict[tuple[int, int], list] = {}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                                 f"not {len(header)}")
            groups.setdefault((int(row[0]), int(row[1])), []).append(row[2:])
    if (0, 0) not in groups:
        raise ValueError(f"{path}: no rows for stage 0, holdings_mask 0")
    for t, mask in groups:
        if not 0 <= t <= spec.n:
            raise ValueError(f"{path}: stage {t} is outside the spec's 0..{spec.n}")
        if not 0 <= mask < 1 << t:
            raise ValueError(f"{path}: holdings_mask {mask} at stage {t} is not below 2^{t}")
        for succ in () if spec.settled(t, mask) else (mask, mask | 1 << t):
            if (t + 1, succ) not in groups:
                raise ValueError(f"{path}: no rows for stage {t + 1}, holdings_mask {succ}, "
                                 f"a successor of unsettled stage {t}, holdings_mask {mask}")
    return groups


def read_discrete_solution(path: PathLike, spec: ProblemSpec) -> DiscreteSolution:
    """The solution a file of write_discrete_solution stores, for the discrete spec
    it solves; every mask the file leaves out answers in closed form."""
    e, closed_form, _ = _lattice(spec, "read_discrete_solution")
    n = spec.n
    values: list[dict] = [dict() for _ in range(n + 1)]
    bids: list[dict] = [dict() for _ in range(n)]
    for (t, mask), rows in _components(path, spec, _DISCRETE_HEADER).items():
        if [int(row[0]) for row in rows] != list(range(e + 1)):
            raise ValueError(f"{path}: endowment rows of stage {t}, holdings_mask {mask} "
                             f"are not the spec's 0..{e}")
        is_settled = spec.settled(t, mask)
        if any(int(row[3]) != is_settled for row in rows):
            raise ValueError(f"{path}: settled flag of stage {t}, holdings_mask {mask} "
                             f"is not the spec's {int(is_settled)}")
        values[t][mask] = np.array([float(row[1]) for row in rows])
        if not is_settled:
            bids[t][mask] = np.array([int(row[2]) for row in rows], dtype=np.int64)
    return _solution(n, e, closed_form, values, bids)


def write_grid_solution(sol: GridSolution, path: PathLike) -> None:
    """One row per (stage, holdings mask, knot) of each stored component, bid 0 at settled
    and terminal ones; each distinct block of knots, values and bids formatted once."""

    def block(t, mask, c):
        bids = sol.knot_bids.get((t, mask))
        return (c._ax.tobytes(), c._ay.tobytes(), bids is None or bids.tobytes()), lambda: [
            f"{x!r},{y!r},{z!r}" for x, y, z in
            zip(c.xs, c.ys, repeat(0.0) if bids is None else bids.tolist())]

    _write_blocks(path, _GRID_HEADER, sol.values.components, block)


def read_grid_solution(path: PathLike, spec: ProblemSpec) -> GridSolution:
    """The solution a file of write_grid_solution stores, for the continuous spec
    it solves; every mask the file leaves out answers in closed form."""
    closed_form = _closed_form(spec, "read_grid_solution")
    layers: list[dict] = [dict() for _ in range(spec.n + 1)]
    knot_bids = {}
    for (t, mask), rows in _components(path, spec, _GRID_HEADER).items():
        comp = PwlFunction.from_knots((float(x), float(y)) for x, y, _ in rows)
        lo, hi = comp.domain
        if abs(lo) > _ENDOWMENT_SLACK or abs(hi - spec.endowment) > _ENDOWMENT_SLACK:
            raise ValueError(f"{path}: endowment knots of stage {t}, holdings_mask {mask} "
                             f"span [{lo}, {hi}], not the spec's [0, {spec.endowment}]")
        layers[t][mask] = comp
        if not spec.settled(t, mask):
            knot_bids[t, mask] = np.array([float(row[2]) for row in rows])
    return _grid_solution(spec, closed_form, layers, knot_bids)


def write_delta_ledger(ledger: DeltaLedger, path: PathLike) -> None:
    _write_csv(path, ["stage", "delta", "cumulative_bound"],
               ([t, delta, error_bound(ledger, t)] for t, delta in enumerate(ledger.deltas)))


def write_error_report(report: ErrorReport, path: PathLike) -> None:
    names = [f.name for f in fields(StageErrors)]
    _write_csv(path, names, [*map(attrgetter(*names), report.per_stage),
                             ["all", *attrgetter(*names[1:])(report)]])
