"""Instance generator and the randomized benchmark suite."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace

import pytest

from seqbid.core import TruncatedGaussian, ensure_valid, validate_problem
from seqbid.experiment import (
    ExperimentConfig,
    GeneratorParams,
    RunSpec,
    config_from_dict,
    config_to_dict,
    default_runs,
    derive_seed,
    generate_instance,
    run_experiment_suite,
)
from seqbid.io import spec_to_dict

TINY = ExperimentConfig(
    n_experiments=2,
    runs=(RunSpec("discrete"), RunSpec("fixed", g=5)),
    master_seed=9,
    generator=GeneratorParams(n_resources=5, n_bundles=2, endowment=8.0),
)


class TestGenerator:
    def test_deterministic(self):
        p = GeneratorParams(seed=4)
        assert spec_to_dict(generate_instance(p)) == spec_to_dict(generate_instance(p))

    def test_instances_are_valid(self):
        for seed in range(20):
            spec = generate_instance(GeneratorParams(seed=seed))
            assert validate_problem(spec) == []

    def test_default_shape(self):
        spec = generate_instance(GeneratorParams(seed=1))
        assert 1 <= spec.n <= 10
        assert 1 <= len(spec.bundles) <= 4
        assert spec.endowment == 30.0
        assert spec.residual(30.0) == pytest.approx(21.0)
        for dist in spec.distributions:
            assert isinstance(dist, TruncatedGaussian)
            assert 3.0 <= dist.mean < 6.0
            assert dist.std == pytest.approx(math.sqrt(0.5))

    def test_kept_resources_are_renumbered(self):
        for seed in range(12):
            spec = generate_instance(GeneratorParams(seed=seed))
            union = set().union(*(b.members for b in spec.bundles))
            assert union == set(range(1, spec.n + 1))

    def test_sizes_clamp_to_at_least_one(self):
        spec = generate_instance(
            GeneratorParams(bundle_size_mean=-5.0, bundle_size_std=0.1, seed=0)
        )
        assert all(len(b.members) == 1 for b in spec.bundles)

    def test_values_stay_positive(self):
        spec = generate_instance(
            GeneratorParams(value_mean=-50.0, value_var=1.0, seed=0)
        )
        assert all(b.value > 0 for b in spec.bundles)


class TestSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(42, i) for i in range(50)}
        assert len(seeds) == 50


class TestRunSpec:
    def test_names(self):
        assert RunSpec("discrete").name == "Discrete"
        assert RunSpec("fixed", g=5).name == "G5"
        assert RunSpec("vg1", max_knots=15).name == "VG1-15"
        assert RunSpec("vg2", max_knots=15, threshold=0.01).name == "VG2-15-0.01"

    def test_default_runs(self):
        assert [r.name for r in default_runs()] == ["Discrete", "G5", "G10", "G15"]

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec("bogus")
        with pytest.raises(ValueError):
            RunSpec("fixed", g=1)
        with pytest.raises(ValueError):
            RunSpec("vg1", max_knots=1)


class TestConfigDict:
    def test_round_trip(self):
        cfg = replace(TINY, runs=TINY.runs + (RunSpec("vg2", max_knots=9, threshold=0.1),))
        data = config_to_dict(cfg)
        back = config_from_dict(json.loads(json.dumps(data)))
        assert config_to_dict(back) == data

    @pytest.mark.parametrize("data, message", [
        ({"n_experiments": 2.7}, "n_experiments: 2.7 is not an integer"),
        ({"runs": [{"kind": "fixed", "g": 10.9}]}, r"runs\[0\]\.g: 10\.9 is not an integer"),
        ({"master_seed": 1.5}, "master_seed: 1.5 is not an integer"),
        ({"generator": {"n_resources": 4.5}}, "generator.n_resources: 4.5 is not an integer"),
    ])
    def test_non_integral_int_fields_refused(self, data, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({"runs": [{"kind": "vg1", "max_knots": 5, "threshold": -1}]},
         r"runs\[0\]\.threshold: -1\.0 must be nonnegative"),
        ({"runs": [{"kind": "discrete"}, {"kind": "vg2", "max_knots": 5, "threshold": math.nan}]},
         r"runs\[1\]\.threshold: nan must be nonnegative"),
        ({"runs": [{"kind": "fixed", "g": 5}, {"kind": "fixed", "g": 5}]},
         r"runs\[1\]: duplicate run name G5"),
        ({"n_experiments": -1}, "n_experiments: -1 must be nonnegative"),
        ({"generator": {"n_resources": 0}}, "generator.n_resources: 0 must be at least 1"),
        ({"generator": {"n_bundles": 0}}, "generator.n_bundles: 0 must be at least 1"),
        ({"generator": {"bid_var": 0}}, "generator.bid_var: 0.0 must be positive"),
        ({"generator": {"bid_var": -1}}, "generator.bid_var: -1.0 must be positive"),
        ({"generator": {"value_var": -1}}, "generator.value_var: -1.0 must be nonnegative"),
        ({"generator": {"bundle_size_std": -0.5}}, "generator.bundle_size_std: -0.5 must be"),
        ({"generator": {"bid_mean_range": [6, 3]}}, r"generator.bid_mean_range: \(6.0, 3.0\) must"),
        # numpy's uniform draw raises OverflowError for an infinite high - low.
        ({"generator": {"bid_mean_range": [3, math.inf]}}, "generator.bid_mean_range: .* must "
                                                           "be a .* pair with high - low finite"),
        ({"generator": {"bid_mean_range": [-math.inf, 3]}}, "generator.bid_mean_range: .* must"),
        ({"generator": {"bid_mean_range": [math.nan, 3]}}, "generator.bid_mean_range: .* must"),
        ({"generator": {"bid_mean_range": [-1e308, 1e308]}}, "generator.bid_mean_range: .* must"),
        ({"generator": {"endowment": 0}}, "generator.endowment: 0.0 must be positive"),
        ({"generator": {"endowment": -1}}, "generator.endowment: -1.0 must be positive"),
        ({"generator": {"residual_slope": -0.1}}, "generator.residual_slope: -0.1 must be"),
        ({"runs": [{"kind": "fixed", "g": 10**9}]},
         r"runs\[0\]\.g: 1000000000 must be between 2 and 10,001$"),
        ({"runs": [{"kind": "vg2", "max_knots": 10_002, "threshold": 0.01}]},
         r"runs\[0\]\.max_knots: 10002 must be between 2 and 10,001$"),
        ({"runs": [{"kind": "bogus"}]}, r"runs\[0\]\.kind: 'bogus' is not one of"),
        # The suite solves every instance's discrete twin: a fractional endowment fails
        # in to_discrete, one above 4,000 at solve_discrete's lattice limit.
        ({"generator": {"endowment": 30.5}},
         "generator.endowment: 30.5 must be a whole number of at most 4000"),
        ({"generator": {"endowment": 5000}},
         "generator.endowment: 5000.0 must be a whole number of at most 4000"),
    ])
    def test_values_every_experiment_would_fail_on_are_refused(self, data, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({"generator": {"endowmnet": 5}}, r"generator\.endowmnet: unknown setting; known: "),
        ({"generator": [1]}, r"generator: \[1\] is not a table"),
        ({"n_experimnets": 3}, r"n_experimnets: unknown setting; known: n_experiments"),
        ({"runs": ["fixed"]}, r"runs\[0\]: 'fixed' is not a table"),
        ({"runs": {"kind": "fixed"}}, r"runs: \{'kind': 'fixed'\} is not a list$"),
        ({"runs": [{"kind": "fixed", "g": 5, "gg": 3}]}, r"runs\[0\]\.gg: unknown setting"),
        ({"runs": [{"g": 5}]}, r"runs\[0\]\.kind: missing"),
        ([1], r"config: \[1\] is not a table"),
    ])
    def test_unknown_keys_and_tables_of_the_wrong_shape_refused(self, data, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            config_from_dict(data)

    @pytest.mark.parametrize("data, field", [
        ({"master_seed": 10**400}, "master_seed"),
        ({"runs": [{"kind": "fixed", "g": -10**400}]}, "runs[0].g"),
        ({"generator": {"endowment": 10**400}}, "generator.endowment"),
        ({"generator": {"bid_mean_range": [3, 10**400]}}, "generator.bid_mean_range"),
    ])
    def test_int_beyond_the_float_range_refused(self, data, field):
        # float() of such an int raises OverflowError; the reader refuses it, tagged.
        with pytest.raises(ValueError) as err:
            config_from_dict(data)
        assert str(err.value).startswith(f"{field}: ")

    @pytest.mark.parametrize("data, message", [
        ({"generator": {"bid_mean_range": 5}},
         "generator.bid_mean_range: 5 is not a pair of numbers"),
        ({"generator": {"bid_mean_range": ["a", "b"]}},
         "generator.bid_mean_range: 'a' is not a number"),
        ({"runs": [{"kind": "vg1", "max_knots": 5, "threshold": None}]},
         "runs[0].threshold: None is not a number"),
        ({"generator": {"endowment": "abc"}}, "generator.endowment: 'abc' is not a number"),
        ({"n_experiments": None}, "n_experiments: None is not an integer"),
        ({"runs": [{"kind": "fixed", "g": "five"}]}, "runs[0].g: 'five' is not an integer"),
    ])
    def test_values_of_the_wrong_type_refused(self, data, message):
        with pytest.raises(ValueError) as err:
            config_from_dict(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("data, message", [
        ({"n_experiments": True}, "n_experiments: True is not an integer"),
        ({"runs": [{"kind": "fixed", "g": True}]}, "runs[0].g: True is not an integer"),
        ({"generator": {"bid_var": False}}, "generator.bid_var: False is not a number"),
        ({"generator": {"bid_mean_range": [True, 2]}},
         "generator.bid_mean_range: True is not a number"),
    ])
    def test_booleans_are_not_numbers(self, data, message):
        # JSON true used to load as 1: {"n_experiments": true} ran one experiment.
        with pytest.raises(ValueError) as err:
            config_from_dict(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["n_resources", "n_bundles"])
    def test_draw_counts_are_capped(self, name):
        # generate_instance draws arrays of these lengths before any solve.
        from seqbid.experiment import _MAX_DRAWS

        assert getattr(GeneratorParams(**{name: _MAX_DRAWS}), name) == _MAX_DRAWS
        for count in (_MAX_DRAWS + 1, 10**300):
            with pytest.raises(ValueError, match=f"^generator.{name}: {count} must be at least "
                                                 f"1 and at most {_MAX_DRAWS:,}$"):
                config_from_dict({"generator": {name: count}})

    @pytest.mark.parametrize("name", ["bundle_size_mean", "bundle_size_std", "value_mean",
                                      "value_var", "bid_var", "endowment", "residual_slope"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_every_float_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^generator.{name}: {value} must be "):
            config_from_dict({"generator": {name: value}})

    def test_negative_master_seed_refused(self):
        # numpy seeds nonnegative integers only; a negative seed used to end in an
        # untagged SeedSequence traceback once the suite ran.
        with pytest.raises(ValueError, match="^master_seed: -1 must be nonnegative$"):
            config_from_dict({"master_seed": -1})
        with pytest.raises(ValueError, match="^master_seed: -2 must be nonnegative$"):
            replace(TINY, master_seed=-2)

    def test_a_pair_is_read_as_numbers(self):
        pair = config_from_dict({"generator": {"bid_mean_range": [3, 6]}}).generator.bid_mean_range
        assert pair == (3.0, 6.0) and all(type(v) is float for v in pair)

    def test_the_largest_exact_endowment_is_accepted(self):
        assert config_from_dict({"generator": {"endowment": 4000}}).generator.endowment == 4000.0

    def test_endowment_refused_in_code_too(self):
        with pytest.raises(ValueError, match="generator.endowment: 2.5 must be a whole number"):
            replace(TINY, generator=GeneratorParams(endowment=2.5))

    def test_manifest_of_earlier_versions_loads(self):
        # Written by a version whose config still had a `maximizer` table, holding
        # the settings the bid maximizer now fixes.
        manifest = json.loads("""{
          "experiments": [{"index": 0, "n": 4, "seed": 1, "status": "ok"}],
          "generator": {"bid_mean_range": [3.0, 6.0], "bid_var": 0.5, "bundle_size_mean": 3.0,
                        "bundle_size_std": 1.0, "endowment": 8.0, "n_bundles": 2,
                        "n_resources": 5, "residual_slope": 0.7, "value_mean": 15.0,
                        "value_var": 2.0},
          "master_seed": 9,
          "maximizer": {"refine_tolerance": 0.0001, "samples_per_segment": 32},
          "n_experiments": 2,
          "runs": [{"g": 0, "kind": "discrete", "max_knots": 0, "threshold": 0.0},
                   {"g": 5, "kind": "fixed", "max_knots": 0, "threshold": 0.0}]
        }""")
        assert config_from_dict(manifest) == TINY
        del manifest["maximizer"]["refine_tolerance"]
        assert config_from_dict(manifest) == TINY

    @pytest.mark.parametrize("block, message", [
        ({"samples_per_segment": 64}, r"maximizer\.samples_per_segment: 64 cannot be set"),
        ({"samples_per_segment": 32, "refine_tolerance": 1e-6},
         r"maximizer\.refine_tolerance: 1e-06 cannot be set"),
        ({"refine_tolerance": math.nan}, r"maximizer\.refine_tolerance: nan cannot be set"),
        ({"tolerance": 1e-4}, r"maximizer\.tolerance: 0\.0001 cannot be set"),
        ([32, 1e-4], r"maximizer: \[32, 0\.0001\] is not a table"),
    ])
    def test_maximizer_settings_other_than_the_fixed_ones_refused(self, block, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            config_from_dict({"maximizer": block})

    def test_duplicate_run_names_refused_in_code_too(self):
        with pytest.raises(ValueError, match=r"runs\[2\]: duplicate run name G5"):
            replace(TINY, runs=TINY.runs + (RunSpec("fixed", g=5),))

    def test_integral_floats_load_as_ints(self):
        cfg = config_from_dict({"n_experiments": 3.0, "runs": [{"kind": "fixed", "g": 10.0}]})
        assert cfg.n_experiments == 3 and type(cfg.n_experiments) is int
        assert cfg.runs[0].name == "G10"

    def test_defaults_fill_missing_fields(self):
        cfg = config_from_dict({"n_experiments": 3})
        assert cfg.n_experiments == 3
        assert [r.name for r in cfg.runs] == ["Discrete", "G5", "G10", "G15"]
        assert cfg.generator.endowment == 30.0


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_suite")
    cfg = replace(TINY, output_dir=str(out / "run"))
    return cfg, run_experiment_suite(cfg)


class TestSuite:
    def test_no_failures(self, suite):
        _, result = suite
        assert result.failures == []

    def test_report_files_exist(self, suite):
        _, result = suite
        out = result.output_dir
        for name in ("aggregate.csv", "per_stage_errors.csv", "bounds.csv",
                     "manifest.json"):
            assert (out / name).is_file()
        for i in range(2):
            exp = out / f"exp_{i:02d}"
            assert (exp / "instance.json").is_file()
            assert (exp / "Discrete_solution.csv").is_file()
            assert (exp / "G5_solution.csv").is_file()
            assert (exp / "G5_ledger.csv").is_file()
            assert (exp / "G5_errors.csv").is_file()

    def test_gold_standard_scores_zero_against_itself(self, suite):
        _, result = suite
        with open(result.output_dir / "aggregate.csv") as fh:
            rows = {row["run"]: row for row in csv.DictReader(fh)}
        assert set(rows) == {"Discrete", "G5"}
        for col in ("mean_sq_value_error", "mean_max_sq_value_error",
                    "mean_sq_policy_error", "mean_max_sq_policy_error"):
            assert float(rows["Discrete"][col]) == 0.0
            assert float(rows["G5"][col]) >= 0.0

    def test_aggregate_matches_result_object(self, suite):
        _, result = suite
        with open(result.output_dir / "aggregate.csv") as fh:
            rows = {row["run"]: row for row in csv.DictReader(fh)}
        for name, agg in result.aggregate.items():
            for key, val in agg.items():
                assert float(rows[name][key]) == pytest.approx(val)

    def test_manifest_records_config_and_experiments(self, suite):
        cfg, result = suite
        with open(result.output_dir / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["n_experiments"] == 2
        assert manifest["master_seed"] == 9
        assert [e["status"] for e in manifest["experiments"]] == ["ok", "ok"]
        assert "output_dir" not in manifest
        recovered = config_from_dict(manifest)
        assert recovered.generator == replace(cfg.generator, seed=0)

    def test_instances_load_back(self, suite):
        from seqbid.io import load_spec

        _, result = suite
        for i in range(2):
            spec = load_spec(result.output_dir / f"exp_{i:02d}" / "instance.json")
            assert ensure_valid(spec) is spec

    def test_rerun_is_byte_identical(self, suite, tmp_path):
        cfg, result = suite
        again = run_experiment_suite(replace(cfg, output_dir=str(tmp_path / "again")))
        for rel in ("aggregate.csv", "per_stage_errors.csv", "bounds.csv",
                    "manifest.json", "exp_00/instance.json",
                    "exp_00/G5_solution.csv", "exp_00/G5_errors.csv"):
            a = (result.output_dir / rel).read_bytes()
            b = (again.output_dir / rel).read_bytes()
            assert a == b, rel


def csv_rows(path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_high_bids_below_every_level_solve(tmp_path):
    # Means in [-3, -2.9] at std 0.707: every discrete twin has the one level 0.
    config = replace(TINY, n_experiments=1, output_dir=str(tmp_path / "suite"),
                     generator=replace(TINY.generator, bid_mean_range=(-3.0, -2.9)))
    assert run_experiment_suite(config).failures == []


class TestFailedExperiment:
    def test_left_out_of_every_aggregate(self, tmp_path, monkeypatch):
        from seqbid import experiment
        from seqbid.continuous import UniformFixed

        solve_grids, g10_calls = experiment.solve_grids, []

        def failing_second_g10(spec, strategies):
            if UniformFixed(10) in strategies:
                g10_calls.append(spec)
                if len(g10_calls) == 2:
                    raise RuntimeError("injected failure")
            return solve_grids(spec, strategies)

        monkeypatch.setattr(experiment, "solve_grids", failing_second_g10)
        out = tmp_path / "suite"
        result = run_experiment_suite(ExperimentConfig(n_experiments=3, master_seed=42,
                                                       output_dir=str(out)))
        assert result.failures == [1]
        names = [run.name for run in default_runs()]
        stage0 = {r["run"]: r for r in csv_rows(out / "per_stage_errors.csv") if r["stage"] == "0"}
        assert {name: stage0[name]["experiments"] for name in names} == dict.fromkeys(names, "2")
        aggregate = {r["run"]: r for r in csv_rows(out / "aggregate.csv")}
        bounds = {(r["run"], r["stage"]): r for r in csv_rows(out / "bounds.csv")}
        for name in names:
            ok = [csv_rows(out / f"exp_{i:02d}" / f"{name}_errors.csv")[-1] for i in (0, 2)]
            assert float(aggregate[name]["mean_sq_value_error"]) == pytest.approx(
                sum(float(r["mean_value_err"]) for r in ok) / 2, rel=1e-12, abs=0.0)
            if name == "Discrete":
                assert float(aggregate[name]["states"]) == sum(int(r["states"]) for r in ok) / 2
                continue
            deltas = [float(csv_rows(out / f"exp_{i:02d}" / f"{name}_ledger.csv")[0]["delta"])
                      for i in (0, 2)]
            assert float(bounds[name, "0"]["mean_delta"]) == pytest.approx(
                sum(deltas) / 2, rel=1e-12, abs=0.0)
