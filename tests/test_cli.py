"""End-to-end runs of the three command-line subcommands."""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import fields, replace

import pytest

from oracles import reference_rounds, rounds_csv_bytes, seventy_resources, table_bid
from seqbid.cli import build_parser, main, parse_grid_strategy
from seqbid.continuous import UniformFixed, Vg1, Vg2
from seqbid.core import TruncatedGaussian, to_discrete
from seqbid.discrete import solve_discrete
from seqbid.experiment import ExperimentConfig, RunSpec, config_to_dict
from seqbid.io import read_discrete_solution, save_spec, spec_to_dict
from seqbid.pwl import PwlFunction
from seqbid.simulate import constant_bid_policy


@pytest.fixture
def t2_file(t2, tmp_path):
    path = tmp_path / "t2.json"
    save_spec(t2, path)
    return path


@pytest.fixture
def c1_file(c1, tmp_path):
    path = tmp_path / "c1.json"
    save_spec(c1, path)
    return path


class TestParseGridStrategy:
    def test_fixed(self):
        strat = parse_grid_strategy("fixed:5")
        assert isinstance(strat, UniformFixed) and strat.g == 5

    def test_vg1(self):
        strat = parse_grid_strategy("vg1:15,0.01")
        assert isinstance(strat, Vg1)
        assert strat.budget.max_knots == 15
        assert strat.budget.threshold == 0.01

    def test_vg2_default_threshold(self):
        strat = parse_grid_strategy("vg2:40")
        assert isinstance(strat, Vg2)
        assert strat.budget.max_knots == 40
        assert strat.budget.threshold == 0.0

    @pytest.mark.parametrize("text, fields", [
        ("fixed:5", {"g": 5}), ("vg1:15,0.01", {"max_knots": 15, "threshold": 0.01}),
        ("vg2:40", {"max_knots": 40, "threshold": 0.0})])
    def test_sets_only_its_kinds_fields(self, text, fields, monkeypatch):
        built = []
        monkeypatch.setattr("seqbid.cli.RunSpec", lambda kind, **kw: built.append(kw) or
                            RunSpec(kind, **kw))
        parse_grid_strategy(text)
        assert built == [fields]

    @pytest.mark.parametrize("text", ["nope:3", "fixed:x", "vg1:", "fixed:"])
    def test_malformed(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid_strategy(text)

    def test_nan_threshold_is_an_argument_error(self, c1_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(c1_file), "--mode", "grid", "--grid", "vg1:15,nan",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert ("bad grid spec 'vg1:15,nan': threshold: nan must be nonnegative"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("grid, field", [("fixed:1000000000", "g"),
                                             ("vg1:1000000000,0", "max_knots"),
                                             ("vg2:10002", "max_knots")])
    def test_knots_above_the_limit_are_an_argument_error(self, c1_file, tmp_path, capsys,
                                                         monkeypatch, grid, field):
        # The solver is replaced, so a grid that got through would fail here instead
        # of placing up to 1e9 knots per component.
        monkeypatch.setattr("seqbid.cli.solve_grid", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(c1_file), "--mode", "grid", "--grid", grid,
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"bad grid spec {grid!r}: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def must_not_run(*args, **kwargs):
    raise AssertionError("an input this large must be refused before any solve")


class TestSolveCommand:
    def test_discrete_solution_round_trips(self, t2, t2_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", str(t2_file), "--mode", "discrete",
                     "--out", str(out)]) == 0
        assert "start value 7.35" in capsys.readouterr().out
        back = read_discrete_solution(out / "solution.csv", t2)
        direct = solve_discrete(t2)
        assert back.value(0, 0, 3) == pytest.approx(direct.value(0, 0, 3), abs=1e-12)
        assert back.bid(0, 0, 3) == direct.bid(0, 0, 3)

    def test_discrete_mode_discretizes_continuous_specs(self, c1, c1_file, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", str(c1_file), "--mode", "discrete",
                     "--out", str(out)]) == 0
        back = read_discrete_solution(out / "solution.csv", to_discrete(c1))
        direct = solve_discrete(to_discrete(c1))
        assert back.value(0, 0, 2) == pytest.approx(direct.value(0, 0, 2), abs=1e-12)

    def test_grid_solution_and_ledger(self, c1_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", str(c1_file), "--mode", "grid",
                     "--grid", "fixed:3", "--out", str(out)]) == 0
        assert "error bound" in capsys.readouterr().out
        with open(out / "ledger.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["stage"] for row in rows] == ["0", "1"]
        assert float(rows[0]["cumulative_bound"]) == pytest.approx(5.241749, abs=1e-4)
        assert float(rows[1]["cumulative_bound"]) == 0.0
        with open(out / "solution.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["stage", "holdings_mask", "endowment", "value", "bid"]

    def test_grid_mode_rejects_discrete_specs(self, t2_file, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(t2_file), "--mode", "grid", "--out", str(out)])
        assert exc.value.code == 2
        assert "continuous" in capsys.readouterr().err

    def test_lattice_limit_is_bad_input(self, tmp_path, capsys):
        # The solver refuses an endowment above its limit before allocating anything.
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({
            "n": 1, "bundles": [{"members": [1], "value": 50.0}], "endowment": 5000,
            "residual": {"linear_slope": 0.7}, "mode": "discrete",
            "distributions": [{"kind": "multinomial", "probs": [0.5, 0.5]}]}))
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(spec), "--mode", "discrete", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: endowment: 5,000 is above the lattice limit of 4,000\n")
        assert not (tmp_path / "out").exists()

    def test_billion_endowment_refused_by_solve_and_simulate(self, t2_file, tmp_path, capsys):
        # Both read the spec, then refuse it before any array over 0..e exists: the lattice
        # tables of endowment 10^9 would take 7.45 GiB.
        out = tmp_path / "solved"
        main(["solve", str(t2_file), "--mode", "discrete", "--out", str(out)])
        spec = tmp_path / "billion.json"
        spec.write_text(json.dumps({
            "n": 2, "bundles": [{"members": [1, 2], "value": 10.0}], "endowment": 10**9,
            "residual": {"linear_slope": 0.7}, "mode": "discrete",
            "distributions": [{"kind": "multinomial", "probs": [0.5, 0.5]}] * 2}))
        capsys.readouterr()
        for argv in (["solve", str(spec), "--mode", "discrete", "--out", str(tmp_path / "out")],
                     ["simulate", str(spec), "--policy", str(out / "solution.csv")]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err == (
                "error: endowment: 1,000,000,000 is above the lattice limit of 4,000\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["discrete", "grid"])
    def test_component_limit_is_bad_input(self, c2, tmp_path, capsys, monkeypatch, mode):
        # c2's sweep reaches (0, 0), two stage-1 and four stage-2 components.
        from seqbid import discrete

        monkeypatch.setattr(discrete, "_MAX_COMPONENTS", 6)
        spec = tmp_path / "c2.json"
        save_spec(c2, spec)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(spec), "--mode", mode, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: n: the solve reaches 7 components by stage 2, above the limit of 6\n")
        assert not (tmp_path / "out").exists()

    def test_discretization_limit_is_bad_input(self, c1, tmp_path, capsys, monkeypatch):
        # A Gaussian that needs more levels than the limit is refused before any is built.
        from seqbid import core

        monkeypatch.setattr(core, "_MAX_LEVELS", 3)
        spec = tmp_path / "c.json"
        save_spec(c1, spec)  # mean 1, std 0.5: levels 0..3, one too many
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(spec), "--mode", "discrete", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: distributions[0].mean: 1.0 with std")
        assert not (tmp_path / "out").exists()

    def test_fractional_endowment_in_discrete_mode(self, c1, tmp_path, capsys):
        spec = tmp_path / "c.json"
        save_spec(replace(c1, endowment=2.5, residual=PwlFunction.linear(0.7, 0.0, 2.5)), spec)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(spec), "--mode", "discrete", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.update(n=None), "n: None is not an integer"),
        (lambda data: data.update(bundles=[5]), "bundles[0]: 5 is not a table"),
        (lambda data: [data], "spec: [{"),
        (lambda data: data["distributions"][0].update(mean="x"),
         "distributions[0].mean: 'x' is not a number"),
        (lambda data: data.update(n=10**9),
         "invalid problem spec:\n  n: 999,999,999 resources appear in no bundle (2, 3, 4, ...)"),
        (lambda data: data.update(n=10**400), "n: a 1329-bit integer is beyond the float range"),
    ])
    def test_malformed_spec_file_is_bad_input(self, c1, tmp_path, capsys, edit, message):
        data = spec_to_dict(c1)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(edit(data) or data))
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(spec), "--mode", "grid", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("spec, edit, mode, problem", [
        ("c1", lambda data: data.update(n=0, distributions=[]), "grid",
         "n: must be at least 1, got 0"),
        ("c1", lambda data: data.update(bundles=[]), "grid",
         "bundles: at least one bundle is required"),
        ("c1", lambda data: data.update(mode="sealed"), "grid", "mode: unknown mode 'sealed'"),
        ("t2", lambda data: data.update(endowment=2.5, residual={"linear_slope": 0.7}),
         "discrete", "endowment: discrete mode needs an integer endowment, got 2.5"),
    ])
    def test_invalid_problem_spec_is_bad_input(self, request, tmp_path, capsys, spec, edit,
                                               mode, problem):
        data = spec_to_dict(request.getfixturevalue(spec))
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(path), "--mode", mode, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid problem spec:\n") and f"\n  {problem}\n" in err
        assert not (tmp_path / "out").exists()

    def test_gaussian_with_no_level_above_zero_solves_discretely(self, c1, tmp_path, capsys):
        # mean -3, std 0.707: ceil(mean + 4 std) = 0 and P(w > 0) = 1.1e-5, so the
        # discrete twin's high bid is 0 for sure and bidding 1 wins.
        spec = replace(c1, distributions=(TruncatedGaussian(-3.0, 0.707),))
        save_spec(spec, tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["solve", str(tmp_path / "c.json"), "--mode", "discrete",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(", bid 1\n")
        back = read_discrete_solution(out / "solution.csv", to_discrete(spec))
        assert back.value(0, 0, 2) == pytest.approx(10.0 + 0.7)

    def test_missing_spec_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["solve", str(tmp_path / "nope.json"), "--mode", "discrete",
                  "--out", str(tmp_path / "out")])


class TestSimulateCommand:
    def test_discrete_policy(self, t2_file, tmp_path, capsys):
        out = tmp_path / "solved"
        main(["solve", str(t2_file), "--mode", "discrete", "--out", str(out)])
        rounds_dir = tmp_path / "rounds"
        rc = main(["simulate", str(t2_file), "--policy", str(out / "solution.csv"),
                   "--rounds", "500", "--seed", "3", "--out", str(rounds_dir)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "mean utility" in text
        with open(rounds_dir / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 500
        mean = sum(float(r["utility"]) for r in rows) / len(rows)
        assert abs(mean - 7.35) < 0.5

    def test_rounds_csv_is_the_reference_bytes(self, t2, t2_file, tmp_path):
        out = tmp_path / "solved"
        main(["solve", str(t2_file), "--mode", "discrete", "--out", str(out)])
        main(["simulate", str(t2_file), "--policy", str(out / "solution.csv"),
              "--rounds", "500", "--seed", "3", "--out", str(tmp_path / "rounds")])
        expect = rounds_csv_bytes(reference_rounds(t2, table_bid(solve_discrete(t2)), 500, 3))
        assert (tmp_path / "rounds" / "rounds.csv").read_bytes() == expect

    def test_holdings_masks_beyond_64_bits(self, tmp_path, monkeypatch):
        # No policy file of seventy_resources() can be solved for: every round bids min(1, d).
        spec = seventy_resources()
        save_spec(spec, tmp_path / "spec.json")
        (tmp_path / "solution.csv").write_text("stage,holdings_mask,endowment,value,bid,settled\n")
        monkeypatch.setattr("seqbid.cli.read_discrete_solution", lambda path, spec: None)
        monkeypatch.setattr("seqbid.cli.table_policy", lambda _: constant_bid_policy(1.0))
        main(["simulate", str(tmp_path / "spec.json"), "--policy", str(tmp_path / "solution.csv"),
              "--rounds", "300", "--seed", "4", "--out", str(tmp_path / "rounds")])
        written = (tmp_path / "rounds" / "rounds.csv").read_bytes()
        assert written == rounds_csv_bytes(
            reference_rounds(spec, lambda t, held, d: min(1.0, d), 300, 4))
        assert max(int(line.split(b",")[3]) for line in written.splitlines()[1:]) >= 2**69

    def test_grid_policy(self, c1_file, tmp_path, capsys):
        out = tmp_path / "solved"
        main(["solve", str(c1_file), "--mode", "grid", "--grid", "fixed:5",
              "--out", str(out)])
        rc = main(["simulate", str(c1_file), "--policy", str(out / "solution.csv"),
                   "--rounds", "200", "--seed", "1"])
        assert rc == 0
        assert "mean utility" in capsys.readouterr().out

    def test_grid_policy_needs_continuous_spec(self, t2_file, c1_file, tmp_path,
                                               capsys):
        out = tmp_path / "solved"
        main(["solve", str(c1_file), "--mode", "grid", "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(t2_file), "--policy", str(out / "solution.csv"),
                  "--rounds", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("endowment", [3, 5])
    def test_solution_of_another_spec_refused(self, t2_file, tmp_path, capsys, endowment):
        out = tmp_path / "solved"
        main(["solve", str(t2_file), "--mode", "discrete", "--out", str(out)])
        one = tmp_path / "one.json"
        one.write_text(json.dumps({
            "n": 1, "bundles": [{"members": [1], "value": 50.0}], "endowment": endowment,
            "residual": {"linear_slope": 0.7}, "mode": "discrete",
            "distributions": [{"kind": "multinomial", "probs": [0.1, 0.2, 0.3, 0.4]}]}))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(one), "--policy", str(out / "solution.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "solution.csv" in err and "stage 2" in err

    def test_missing_policy_file(self, t2_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(t2_file), "--policy", str(tmp_path / "missing.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_rounds_is_bad_input(self, t2_file, tmp_path, capsys):
        out = tmp_path / "solved"
        main(["solve", str(t2_file), "--mode", "discrete", "--out", str(out)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(t2_file), "--policy", str(out / "solution.csv"),
                  "--rounds", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: need at least one round\n"

    def test_rounds_above_the_limit_are_bad_input(self, t2_file, tmp_path, capsys,
                                                  monkeypatch):
        from seqbid import simulate

        out = tmp_path / "solved"
        main(["solve", str(t2_file), "--mode", "discrete", "--out", str(out)])
        capsys.readouterr()
        monkeypatch.setattr(simulate, "_MAX_CELLS", 1000)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(t2_file), "--policy", str(out / "solution.csv"),
                  "--rounds", "1000000000000000"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: rounds: 1,000,000,000,000,000 rounds of 2 auctions count "
            "6,000,000,000,000,000 cells (n + 4 a round), above the limit of 1,000\n")


class TestExperimentCommand:
    def test_tiny_config_runs(self, tmp_path, capsys):
        cfg = {
            "n_experiments": 1,
            "master_seed": 5,
            "runs": [{"kind": "discrete"}, {"kind": "fixed", "g": 5}],
            "generator": {"n_resources": 4, "n_bundles": 2, "endowment": 6.0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "suite"
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert "Discrete" in capsys.readouterr().out
        assert (out / "aggregate.csv").is_file()

    def test_seed_override_changes_manifest(self, tmp_path):
        cfg = {
            "n_experiments": 1,
            "runs": [{"kind": "discrete"}],
            "generator": {"n_resources": 3, "n_bundles": 1, "endowment": 4.0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "suite"
        assert main(["experiment", "--config", str(cfg_path), "--seed", "77",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 77

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["experiment", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "bad experiment config" in capsys.readouterr().err

    def test_non_integral_count_is_a_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_experiments": 2.7}))
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: bad experiment config: n_experiments: 2.7 is not an integer\n")
        assert not (tmp_path / "x").exists()

    def test_huge_lattice_is_a_bad_config(self, tmp_path, capsys, monkeypatch):
        # The maximizer's settings are fixed: the config has no `maximizer` table.
        monkeypatch.setattr("seqbid.cli.run_experiment_suite", must_not_run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"maximizer": {"samples_per_segment": 10**9}}))
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad experiment config: "
                                                  "maximizer: unknown setting; known: ")

    @pytest.mark.parametrize("cfg, message", [
        ({"runs": [{"kind": "fixed", "g": 10**9}]}, "runs[0].g: 1000000000 must be between"),
        ({"runs": [{"kind": "vg1", "max_knots": 10**9}]}, "runs[0].max_knots: 1000000000 must"),
        ({"generator": {"endowment": 30.5}}, "generator.endowment: 30.5 must be a whole number"),
        ({"generator": {"endowment": 5000}}, "generator.endowment: 5000.0 must be a whole"),
        # Each of these used to load, then fail every experiment or allocate without bound.
        ({"generator": {"value_var": math.inf}},
         "generator.value_var: inf must be nonnegative and finite"),
        ({"generator": {"bid_var": math.inf}},
         "generator.bid_var: inf must be positive and finite"),
        ({"generator": {"residual_slope": math.inf}},
         "generator.residual_slope: inf must be nonnegative and finite"),
        ({"generator": {"bid_mean_range": [3, math.inf]}},
         "generator.bid_mean_range: (3.0, inf) must be a (low, high) pair with high - low finite"),
        ({"generator": {"n_resources": 10_001}},
         "generator.n_resources: 10001 must be at least 1 and at most 10,000"),
        ({"generator": {"n_bundles": 10**300}},
         "generator.n_bundles: a 997-bit integer must be at least 1 and at most 10,000\n"),
        ({"generator": {"bid_mean_range": [-50, -40]}},
         "generator.bid_mean_range: a high of -40.0 leaves P(w > 0) = 0 < 1e-06 at bid_var 0.5\n"),
    ])
    def test_config_every_experiment_fails_on_is_refused(self, tmp_path, capsys, monkeypatch,
                                                         cfg, message):
        monkeypatch.setattr("seqbid.cli.run_experiment_suite", must_not_run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_experiments": 1, **cfg}))
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: bad experiment config: {message}")
        assert not (tmp_path / "x").exists()

    def test_suite_whose_every_experiment_fails(self, tmp_path, capsys):
        # Means drawn from [-45, -3] at std 0.71 leave P(w > 0) at 0 for nearly every
        # resource, so every generated instance is refused at the law of its first resource.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n_experiments": 2, "runs": [{"kind": "discrete"}, {"kind": "fixed", "g": 5}],
            "generator": {"n_resources": 3, "n_bundles": 1, "endowment": 4,
                          "bid_mean_range": [-45, -3]}}))
        out = tmp_path / "suite"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"suite written to {out}\n"
        assert captured.err.endswith("  failed experiments: [0, 1]\n")
        assert (out / "aggregate.csv").read_bytes() == (
            b"run,states,mean_sq_value_error,mean_max_sq_value_error,mean_sq_policy_error,"
            b"mean_max_sq_policy_error\r\n")
        statuses = [e["status"] for e in json.loads((out / "manifest.json").read_text())
                    ["experiments"]]
        assert len(statuses) == 2
        for status in statuses:
            assert re.fullmatch(r"error: ValueError: distributions\[0\]\.mean: -\d+\.\d+ with "
                                r"std 0\.7071067811865476 leaves P\(w > 0\) = 0, below 1e-06",
                                status), status

    @pytest.mark.parametrize("cfg, message", [
        ({"generator": {"endowmnet": 5}}, "generator.endowmnet: unknown setting"),
        ({"generator": [1]}, "generator: [1] is not a table"),
        ({"n_experimnets": 3}, "n_experimnets: unknown setting"),
        ({"runs": ["fixed"]}, "runs[0]: 'fixed' is not a table"),
        ({"runs": {"kind": "fixed"}}, "runs: {'kind': 'fixed'} is not a list"),
    ])
    def test_misspelled_or_misshapen_config_is_refused(self, tmp_path, capsys, monkeypatch,
                                                       cfg, message):
        monkeypatch.setattr("seqbid.cli.run_experiment_suite", must_not_run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: bad experiment config: {message}")

    @pytest.mark.parametrize("cfg, message", [
        ({"generator": {"bid_mean_range": 5}},
         "generator.bid_mean_range: 5 is not a pair of numbers"),
        ({"runs": [{"kind": "vg1", "max_knots": 5, "threshold": None}]},
         "runs[0].threshold: None is not a number"),
        ({"generator": {"endowment": "abc"}}, "generator.endowment: 'abc' is not a number"),
        ({"master_seed": 10**400}, "master_seed: a 1329-bit integer is beyond the float range"),
    ])
    def test_config_value_of_the_wrong_type_is_refused(self, tmp_path, capsys, monkeypatch,
                                                       cfg, message):
        monkeypatch.setattr("seqbid.cli.run_experiment_suite", must_not_run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: bad experiment config: {message}\n"

    @pytest.mark.parametrize("threshold", ["-1", "NaN"])
    def test_bad_threshold_is_a_bad_config(self, tmp_path, capsys, threshold):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"runs": [{"kind": "vg1", "max_knots": 5, "threshold": %s}]}'
                            % threshold)
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: bad experiment config: runs[0].threshold: {float(threshold)} "
            "must be nonnegative\n")
        assert not (tmp_path / "x").exists()


class TestSeedArgument:
    @pytest.mark.parametrize("argv", [
        ["simulate", "spec.json", "--policy", "solution.csv", "--seed", "-1"],
        ["experiment", "--config", "default", "--seed", "-1"],
        ["experiment", "--config", "default", "--seed", "1.5"],
    ])
    def test_seed_must_be_a_nonnegative_integer(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("seqbid.cli.run_experiment_suite", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: {argv[-1]!r} is not a nonnegative integer" in err

    def test_negative_master_seed_is_a_bad_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("seqbid.cli.run_experiment_suite", must_not_run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"master_seed": -1}))
        rc = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: bad experiment config: master_seed: -1 must be nonnegative\n")

    def test_nan_in_a_grid_policy_is_bad_input(self, c1_file, tmp_path, capsys):
        out = tmp_path / "solved"
        main(["solve", str(c1_file), "--mode", "grid", "--grid", "fixed:3", "--out", str(out)])
        with open(out / "solution.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][3] = "nan"
        with open(out / "solution.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(c1_file), "--policy", str(out / "solution.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("solution.csv: line 3, value: 'nan' is not finite\n")


class TestOptionSurface:
    def test_settable_values_are_pinned(self):
        # Every option of `seqbid solve` and every field a suite config sets and its
        # manifest records: a setting cannot come back without changing this test.
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        solve = sub.choices["solve"]
        assert sorted(a.dest for a in solve._actions) == ["grid", "help", "mode", "out", "spec"]
        assert [f.name for f in fields(ExperimentConfig)] == [
            "n_experiments", "runs", "output_dir", "master_seed", "generator"]
        data = config_to_dict(ExperimentConfig())
        assert sorted(data) == ["generator", "master_seed", "n_experiments", "runs"]
        assert sorted(data["runs"][0]) == ["g", "kind", "max_knots", "threshold"]
        assert sorted(data["generator"]) == [
            "bid_mean_range", "bid_var", "bundle_size_mean", "bundle_size_std", "endowment",
            "n_bundles", "n_resources", "residual_slope", "value_mean", "value_var"]
