"""File formats: problem specs as JSON, solutions and reports as CSV.

The JSON layout is the interchange format for the command-line tools:

    {"n": 2, "bundles": [{"members": [1, 2], "value": 10.0}], "endowment": 3,
     "residual": {"knots": [[0, 0], [3, 2.1]]}  |  {"linear_slope": 0.7},
     "distributions": [{"kind": "multinomial", "probs": [0.5, 0.5]},
                       {"kind": "gaussian", "mean": 1.0, "std": 0.5}],
     "mode": "discrete" | "continuous"}

One reader, _read and _table, reads spec files and suite configs (config_from_dict), each
value as its field's type hint says; its inverse, _untable, writes them. An unknown or
missing key, a value of the wrong type and a constructor's refusal raise a ValueError that
starts with the field's path: distributions[0].std: -1.0 must be positive and finite.
Solution CSV fields are read alike, must be finite, and are tagged path: line N, column.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import suppress
from dataclasses import MISSING, fields, is_dataclass
from decimal import Decimal
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Union, get_args, get_origin, get_type_hints

import numpy as np

from .continuous import DeltaLedger, GridSolution, _closed_form, _grid_solution, error_bound
from .core import (
    _ENDOWMENT_SLACK,
    Bundle,
    DiscreteMultinomial,
    ProblemSpec,
    TruncatedGaussian,
    _tagged,
)
from .discrete import DiscreteSolution, _lattice, _solution
from .pwl import PwlFunction
from .simulate import ErrorReport, StageErrors

PathLike = Union[str, Path]
_LAWS = {"multinomial": DiscreteMultinomial, "gaussian": TruncatedGaussian}
_KIND_OF = {law: kind for kind, law in _LAWS.items()}
_KINDS = {int: "an integer", float: "a number", str: "a string", dict: "a table", list: "a list"}


def spec_to_dict(spec: ProblemSpec) -> dict:
    return _untable(spec, residual=lambda r: {"knots": list(map(list, r.knots))},
                    distributions=lambda laws: [{"kind": _KIND_OF[type(d)], **_untable(d)}
                                                for d in laws])


def _read(value, kind, field: str):
    """value read as kind: an int or float (9, 9.0 and "9.0" alike, never a bool), a str,
    dict (a table) or list, a tuple (a pair if tuple[float, float]) or frozenset of one kind
    from a list, or a dataclass from a table; else a ValueError "field: ...". A collection's
    entries are tagged field if numbers, else field[i]."""
    if kind in (int, float) and type(value) in (int, float, str):
        if type(value) is int and not abs(value) <= sys.float_info.max:  # exact int compare
            raise ValueError(f"{field}: {_shown(value)} is beyond the float range")
        with suppress(ValueError):
            number = float(value)
            if kind is float or number.is_integer():  # Decimal: exact above 2**53 too
                return number if kind is float else int(Decimal(value))
    elif kind in (str, dict, list) and isinstance(value, kind):
        return value
    elif is_dataclass(kind):
        return _table(kind, _read(value, dict, field), field)
    pair = (args := get_args(kind)) == (float, float)
    if args and isinstance(value, list) and (len(value) == 2 or not pair):
        return get_origin(kind)(_read(v, args[0], field if args[0] in _KINDS else f"{field}[{i}]")
                                for i, v in enumerate(value))
    raise ValueError(f"{field}: {_shown(value)} is not "
                     f"{'a pair of numbers' if pair else 'a list' if args else _KINDS[kind]}")


def _shown(value) -> str:
    """repr(value) for a refusal, or "a N-bit integer" for an int of more than 64 bits."""
    big = type(value) is int and value.bit_length() > 64
    return f"a {value.bit_length()}-bit integer" if big else repr(value)


def _table(cls, data: dict, field: str, **readers):
    """A cls of data's entries for its fields, each read as its type hint says (by _read,
    or by readers[name]); an unknown key, a missing one without a default and a ValueError
    of the constructor are refused, tagged with their path below field."""
    hints, at = get_type_hints(cls), f"{field}." if field else ""
    if unknown := [key for key in data if key not in hints]:
        raise ValueError(f"{at}{unknown[0]}: unknown setting; known: {', '.join(hints)}")
    if missing := [f.name for f in fields(cls)
                   if f.name not in data and f.default is f.default_factory is MISSING]:
        raise ValueError(f"{at}{missing[0]}: missing")
    read = {k: readers.get(k, _read)(v, hints[k], at + k) for k, v in data.items()}
    return _tagged(at, cls, **read)


def _untable(obj, skip=(), **writers) -> dict:
    """obj as the table _table reads: a tuple as a list, a frozenset sorted, a dataclass as a
    table and field name as writers[name] says; skip's fields, table.name if nested, left out."""
    def write(value, name):
        if name in writers:
            return writers[name](value)
        if is_dataclass(value):
            return _untable(value, [s.split(".", 1)[1] for s in skip if s.startswith(f"{name}.")])
        if isinstance(value, frozenset):
            return sorted(value)
        return [write(v, name) for v in value] if isinstance(value, tuple) else value

    return {f.name: write(getattr(obj, f.name), f.name)
            for f in fields(obj) if f.name not in skip}


def spec_from_dict(data: dict) -> ProblemSpec:
    """The spec of spec_to_dict's layout; a key unknown or missing, a value of the wrong
    type and a constructor's refusal are tagged with their path: distributions[0].std."""
    def residual(value, _, field):
        table = _read(value, dict, field)
        if list(table) == ["knots"]:
            knots = _read(table["knots"], tuple[tuple[float, float], ...], f"{field}.knots")
        elif list(table) == ["linear_slope"]:
            slope = _read(table["linear_slope"], float, f"{field}.linear_slope")
            knots = [(x, slope * x) for x in (0.0, _read(data["endowment"], float, "endowment"))]
        else:
            raise ValueError(f"{field}: needs one key, knots or linear_slope, not {list(table)}")
        return _tagged(f"{field}.", PwlFunction.from_knots, knots)

    def law(value, field):
        table = _read(value, dict, field)
        if (kind := table.get("kind")) not in tuple(_LAWS):
            raise ValueError(f"{field}.kind: {kind!r} is not one of {', '.join(_LAWS)}")
        return _table(_LAWS[kind], {k: v for k, v in table.items() if k != "kind"}, field)

    return _table(ProblemSpec, _read(data, dict, "spec"), "", residual=residual,
                  distributions=lambda value, _, field: tuple(
                      law(v, f"{field}[{i}]") for i, v in enumerate(_read(value, list, field))))


def load_spec(path: PathLike) -> ProblemSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def save_spec(spec: ProblemSpec, path: PathLike) -> None:
    _write_json(path, spec_to_dict(spec))


def _write_json(path: PathLike, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: PathLike, header: list[str], rows: Iterable) -> None:
    """A CSV file of one header row, then `rows`."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


# A solution file's columns, each with the kind its fields are read as.
_DISCRETE_COLUMNS = {"stage": int, "holdings_mask": int, "endowment": int, "value": float,
                     "bid": int, "settled": int}
_GRID_COLUMNS = {"stage": int, "holdings_mask": int, "endowment": float, "value": float,
                 "bid": float}


def _write_blocks(path: PathLike, columns: dict, layers: list[dict], block) -> None:
    """_write_csv's bytes (repr for floats, str for ints, \r\n line ends) for columns, then
    per stage t and ascending mask of layers[t] the lines rows() each after "t,mask,", with
    key, rows = block(t, mask, layers[t][mask]): each distinct key's rows formatted once."""
    lines: dict = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
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

    _write_blocks(path, _DISCRETE_COLUMNS, sol.stage_values, block)


def _components(path: PathLike, spec: ProblemSpec, columns: dict) -> dict:
    """A solution file's rows by (stage, mask) component, each read as columns says and
    without its stage and mask, once every stage and mask is checked against spec and
    every unsettled component's two successors are found in the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        groups: dict[tuple[int, int], list] = {}
        kinds = list(columns.values())
        for row in reader:
            try:  # bare int and float: where they give finite values, _read gives the same
                cells = [kind(text) for kind, text in zip(kinds, row)]
                fast = len(row) == len(columns) and all(map(math.isfinite, cells))
            except (ValueError, OverflowError):
                fast = False
            if not fast:
                at = f"{path}: line {reader.line_num}"
                if len(row) != len(columns):
                    raise ValueError(f"{at} has {len(row)} fields, not {len(columns)}")
                names = [f"{at}, {column}" for column in columns]
                cells = list(map(_read, row, kinds, names))
                for name, text, value in zip(names, row, cells):
                    if not math.isfinite(value):
                        raise ValueError(f"{name}: {text!r} is not finite")
            t, mask, *rest = cells
            groups.setdefault((t, mask), []).append(rest)
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
    for (t, mask), rows in _components(path, spec, _DISCRETE_COLUMNS).items():
        if [row[0] for row in rows] != list(range(e + 1)):
            raise ValueError(f"{path}: endowment rows of stage {t}, holdings_mask {mask} "
                             f"are not the spec's 0..{e}")
        is_settled = spec.settled(t, mask)
        if any(row[3] != is_settled for row in rows):
            raise ValueError(f"{path}: settled flag of stage {t}, holdings_mask {mask} "
                             f"is not the spec's {int(is_settled)}")
        if any(not 0 <= row[2] <= row[0] for row in rows):
            raise ValueError(f"{path}: a bid of stage {t}, holdings_mask {mask} is outside 0..d")
        values[t][mask] = np.array([row[1] for row in rows])
        if not is_settled:
            bids[t][mask] = np.array([row[2] for row in rows], dtype=np.int64)
    return _solution(n, e, closed_form, values, bids)


def write_grid_solution(sol: GridSolution, path: PathLike) -> None:
    """One row per (stage, holdings mask, knot) of each stored component, bid 0 at settled
    and terminal ones; each distinct block of knots, values and bids formatted once."""

    def block(t, mask, c):
        bids = sol.knot_bids.get((t, mask))
        return (c._ax.tobytes(), c._ay.tobytes(), bids is None or bids.tobytes()), lambda: [
            f"{x!r},{y!r},{z!r}" for x, y, z in
            zip(c.xs, c.ys, repeat(0.0) if bids is None else bids.tolist())]

    _write_blocks(path, _GRID_COLUMNS, sol.values.components, block)


def read_grid_solution(path: PathLike, spec: ProblemSpec) -> GridSolution:
    """The solution a file of write_grid_solution stores, for the continuous spec
    it solves; every mask the file leaves out answers in closed form."""
    closed_form = _closed_form(spec, "read_grid_solution")
    layers: list[dict] = [dict() for _ in range(spec.n + 1)]
    knot_bids = {}
    for (t, mask), rows in _components(path, spec, _GRID_COLUMNS).items():
        comp = _tagged(f"{path}: stage {t}, holdings_mask {mask}, ", PwlFunction.from_knots,
                       [(x, y) for x, y, _ in rows])
        lo, hi = comp.domain
        if abs(lo) > _ENDOWMENT_SLACK or abs(hi - spec.endowment) > _ENDOWMENT_SLACK:
            raise ValueError(f"{path}: endowment knots of stage {t}, holdings_mask {mask} "
                             f"span [{lo}, {hi}], not the spec's [0, {spec.endowment}]")
        layers[t][mask] = comp
        if not spec.settled(t, mask):
            knot_bids[t, mask] = np.array([row[2] for row in rows])
    return _grid_solution(spec, closed_form, layers, knot_bids)


def write_delta_ledger(ledger: DeltaLedger, path: PathLike) -> None:
    _write_csv(path, ["stage", "delta", "cumulative_bound"],
               ([t, delta, error_bound(ledger, t)] for t, delta in enumerate(ledger.deltas)))


def write_error_report(report: ErrorReport, path: PathLike) -> None:
    names = [f.name for f in fields(StageErrors)]
    _write_csv(path, names, [*map(attrgetter(*names), report.per_stage),
                             ["all", *attrgetter(*names[1:])(report)]])
