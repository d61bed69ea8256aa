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


def suite_tree(root: Path) -> Path:
    """A two-experiment stand-in for a suite output tree."""
    (root / "exp_00").mkdir(parents=True)
    (root / "aggregate.csv").write_text("run,states,mean_sq_value_error\nG5,494.5,0.25\n")
    (root / "exp_00" / "G5_errors.csv").write_text(
        "stage,mean_value_err,states\n0,4.666722655652852,31\n1,4.162406051656391,62\n")
    (root / "manifest.json").write_text('{"experiments": [{"index": 0, "status": "ok"}]}\n')
    return root


def test_suite_diff_of_a_tree_against_itself_reports_nothing(tmp_path, capsys):
    tree = suite_tree(tmp_path / "old")
    assert load_script("suite_diff").main([str(tree), str(tree)]) == 0
    assert capsys.readouterr().out == "identical\n"


def test_suite_diff_reports_one_raised_cell_as_one_rise(tmp_path, capsys):
    old, new = suite_tree(tmp_path / "old"), suite_tree(tmp_path / "new")
    errors = new / "exp_00" / "G5_errors.csv"
    raised = repr(4.162406051656391 + 1e-9)
    errors.write_text(errors.read_text().replace("4.162406051656391", raised))
    assert load_script("suite_diff").main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "exp_00/G5_errors.csv:",
        "  mean_value_err: 1 cells changed, max |change| 1e-09, max relative 2.4e-10, "
        "1 rose, 0 fell",
        "trees differ"]


def test_suite_diff_names_files_rows_and_manifest_fields(tmp_path, capsys):
    old, new = suite_tree(tmp_path / "old"), suite_tree(tmp_path / "new")
    (old / "bounds.csv").write_text("run,stage\n")
    with open(new / "aggregate.csv", "a") as f:
        f.write("G10,600.0,0.125\n")
    (new / "manifest.json").write_text('{"experiments": [{"status": "failed", "index": 0}]}')
    errors = new / "exp_00" / "G5_errors.csv"
    errors.write_text(errors.read_text().replace("\n", "\r\n"))
    assert load_script("suite_diff").main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "bounds.csv: only in old tree",
        "aggregate.csv: rows 1 -> 2",
        "exp_00/G5_errors.csv: bytes differ, cells equal",
        "manifest.json: differs at /experiments/0/status",
        "trees differ"]
