"""Smoke tests for the command-line scripts under scripts/."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_refinement_prints_its_table(capsys):
    assert load_script("compare_refinement").main(["--budgets", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.startswith("run "))
    for column in ("states", "certified bound", "max |dV| lattice", "rel mean sq err"):
        assert column in header
    rows = [line.split()[0] for line in lines[lines.index(header) + 2:] if line.strip()]
    assert rows == ["G3", "VG1-3", "VG2-3"]
