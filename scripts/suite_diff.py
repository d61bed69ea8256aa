#!/usr/bin/env python3
"""Numeric diff of two suite output trees (`seqbid experiment --out`).

For every CSV file present in both trees it reports, per column, how many
cells changed, the largest absolute change, the largest relative change
|new - old| / max(|old|, |new|), and how many numeric values rose and fell;
rows are paired by position, and a change in row count is reported too.
JSON files such as manifest.json are compared as parsed JSON, other files as
bytes, and files present on one side only are listed.

Prints one line per differing file (indented lines per changed column) and
a last line, `identical` or `trees differ`.  Exits 0 when the two trees are
byte-identical, 1 otherwise:

    python3 scripts/suite_diff.py OLD NEW
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _files(root: Path) -> dict[str, Path]:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def _number(cell: str):
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _csv_diff(old: Path, new: Path) -> dict:
    """Per column of a CSV pair: changed cells, largest absolute and relative change, and
    how many numeric values rose and fell, over the rows both files have."""
    with open(old, newline="") as f:
        old_rows = list(csv.reader(f))
    with open(new, newline="") as f:
        new_rows = list(csv.reader(f))
    old_head, new_head = (old_rows or [[]])[0], (new_rows or [[]])[0]
    out: dict = {"rows": [max(len(rows) - 1, 0) for rows in (old_rows, new_rows)],
                 "columns": {}}
    out["only_old_columns"] = [c for c in old_head if c not in new_head]
    out["only_new_columns"] = [c for c in new_head if c not in old_head]
    for name in (c for c in old_head if c in new_head):
        i, j = old_head.index(name), new_head.index(name)
        col = {"changed": 0, "max_abs": 0.0, "max_rel": 0.0, "rose": 0, "fell": 0}
        for a_row, b_row in zip(old_rows[1:], new_rows[1:]):
            a, b = a_row[i], b_row[j]
            if a == b:
                continue
            col["changed"] += 1
            x, y = _number(a), _number(b)
            if x is None or y is None or x == y:
                continue
            col["rose" if y > x else "fell"] += 1
            col["max_abs"] = max(col["max_abs"], abs(y - x))
            col["max_rel"] = max(col["max_rel"], abs(y - x) / max(abs(x), abs(y)))
        if col["changed"]:
            out["columns"][name] = col
    return out


def _json_paths(a, b, path: str = "") -> list[str]:
    """The paths at which two parsed JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in sorted(set(a) | set(b), key=str)
                for p in (_json_paths(a.get(k), b.get(k), f"{path}/{k}")
                          if k in a and k in b else [f"{path}/{k}"])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for k, (x, y) in enumerate(zip(a, b)) for p in _json_paths(x, y, f"{path}/{k}")]
    return [] if a == b else [path or "/"]


def suite_diff(old: Path, new: Path) -> dict:
    """Everything that differs between two trees; "identical" is True only when every file
    is on both sides with the same bytes."""
    a, b = _files(old), _files(new)
    report: dict = {"only_old": sorted(set(a) - set(b)), "only_new": sorted(set(b) - set(a)),
                    "files": {}}
    for name in sorted(set(a) & set(b)):
        if a[name].read_bytes() == b[name].read_bytes():
            continue
        if name.endswith(".csv"):
            report["files"][name] = _csv_diff(a[name], b[name])
        elif name.endswith(".json"):
            paths = _json_paths(json.loads(a[name].read_text()), json.loads(b[name].read_text()))
            report["files"][name] = {"json_paths": paths}
        else:
            report["files"][name] = {"bytes": "differ"}
    report["identical"] = not (report["only_old"] or report["only_new"] or report["files"])
    return report


def _print(report: dict) -> None:
    for side in ("only_old", "only_new"):
        for name in report[side]:
            print(f"{name}: {side.replace('_', ' in ')} tree")
    for name, diff in report["files"].items():
        if "rows" in diff:
            old_n, new_n = diff["rows"]
            same_cells = (old_n == new_n and not diff["columns"]
                          and not diff["only_old_columns"] and not diff["only_new_columns"])
            print(f"{name}:" + (f" rows {old_n} -> {new_n}" if old_n != new_n else "")
                  + (" bytes differ, cells equal" if same_cells else ""))
            for side in ("only_old_columns", "only_new_columns"):
                if diff[side]:
                    print(f"  {side.replace('_', ' ')}: {', '.join(diff[side])}")
            for col, c in diff["columns"].items():
                print(f"  {col}: {c['changed']} cells changed, max |change| {c['max_abs']:.3g}, "
                      f"max relative {c['max_rel']:.3g}, {c['rose']} rose, {c['fell']} fell")
        elif "json_paths" in diff:
            paths = diff["json_paths"]
            print(f"{name}: " + (f"differs at {', '.join(paths)}" if paths
                                 else "equal as JSON, bytes differ"))
        else:
            print(f"{name}: bytes differ")
    print("identical" if report["identical"] else "trees differ")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path, help="the suite tree to compare from")
    p.add_argument("new", type=Path, help="the suite tree to compare to")
    args = p.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            p.error(f"{root} is not a directory")
    report = suite_diff(args.old, args.new)
    _print(report)
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
