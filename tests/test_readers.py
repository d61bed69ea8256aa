"""Mutation fuzz of the spec and config readers, directly and through the command line.

Each example takes a valid spec or config dict and replaces, deletes or appends one
or two of its nodes. The mutant must load, or be refused with a ValueError whose
message (each listed line, for an invalid problem spec) starts with a field path;
`seqbid solve` and `seqbid experiment` on its JSON file exit 0 or 2 accordingly.

Random valid specs and configs, written and read back through JSON, come back equal.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
from dataclasses import replace
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from seqbid import cli
from seqbid.core import Bundle, DiscreteMultinomial, ProblemSpec, TruncatedGaussian
from seqbid.experiment import (
    ExperimentConfig,
    GeneratorParams,
    RunSpec,
    SuiteResult,
    _MAX_DRAWS,
    config_from_dict,
    config_to_dict,
)
from seqbid.io import spec_from_dict, spec_to_dict
from seqbid.pwl import MAX_KNOTS, PwlFunction

T2 = ProblemSpec(2, (Bundle(frozenset({1, 2}), 10.0), Bundle(frozenset({2}), 4.0)), 3.0,
                 PwlFunction.linear(0.7, 0.0, 3.0), (DiscreteMultinomial((0.5, 0.5)),) * 2,
                 "discrete")
C2 = ProblemSpec(2, T2.bundles, 3.0, PwlFunction.from_knots([(0, 0), (1, 0.5), (3, 2.1)]),
                 (TruncatedGaussian(1.0, 0.5), TruncatedGaussian(2.0, 0.7)), "continuous")
SPECS = [spec_to_dict(T2), spec_to_dict(C2),
         {**spec_to_dict(T2), "residual": {"linear_slope": 0.7}}]
CONFIGS = [
    config_to_dict(ExperimentConfig()),
    {**config_to_dict(ExperimentConfig(
        n_experiments=2, master_seed=9,
        runs=(RunSpec("vg1", max_knots=9), RunSpec("vg2", max_knots=5, threshold=0.1)),
        generator=GeneratorParams(n_resources=5, bid_mean_range=(1.0, 2.0)))),
     "experiments": []},
    {"runs": [{"kind": "fixed", "g": 5}], "generator": {"endowment": 8}},
]

KEYS = sorted({key for tree in SPECS + CONFIGS for key in json.dumps(tree).split('"')[1::2]
               if re.fullmatch(r"[a-z_]+", key)})
keys = st.sampled_from(KEYS) | st.from_regex(r"[a-z_]{1,6}", fullmatch=True)
leaves = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
          | st.sampled_from([10**400, 2**63, "9.0", "x", "nan", *KEYS]))
values = st.recursive(leaves, lambda kids: st.lists(kids, max_size=3)
                      | st.dictionaries(keys, kids, max_size=3), max_leaves=6)
# A field path, then ": ": n, runs[0].g, distributions[1].probs, residual.knots[2].
PATH = re.compile(r"[a-z_]+(\[\d+\])*(\.[a-z_]+(\[\d+\])*)*: ")


def nodes(tree, at=()):
    """The path of every node of a JSON tree, the root's () first."""
    yield at
    if isinstance(tree, (dict, list)):
        for key, child in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from nodes(child, at + (key,))


@st.composite
def mutants(draw, bases):
    base = draw(st.sampled_from(range(len(bases))))
    tree = copy.deepcopy(bases[base])
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.sampled_from(list(nodes(tree))))
        node = reduce(getitem, at, tree)
        op = draw(st.sampled_from(["replace", "delete", "append"]))
        if op == "append" and isinstance(node, dict):
            node[draw(keys)] = draw(values)
        elif op == "append" and isinstance(node, list):
            node.append(draw(values))
        elif not at:
            tree = draw(values)
        elif op == "delete":
            del reduce(getitem, at[:-1], tree)[at[-1]]
        else:
            reduce(getitem, at[:-1], tree)[at[-1]] = draw(values)
    # n stays small, as a spec's n counts the resources a solve would sweep.
    assume(not isinstance(tree, dict) or type(tree.get("n")) is not int or tree["n"] <= 64)
    return base, tree


def loads(read, tree) -> bool:
    """True if read(tree) loads; a refusal must tag every problem with its field path."""
    try:
        read(tree)
    except ValueError as err:
        message = str(err)
        head, _, problems = message.partition("\n  ")
        lines = problems.split("\n  ") if head == "invalid problem spec:" else [message]
        assert all(PATH.match(line) for line in lines), message
        return False
    return True


def exit_status(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as stop:
            return stop.code


def solved(*args):
    raise SystemExit(0)  # the spec loaded: a solve would start here


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("mutants")


fuzz = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz
@given(mutant=mutants(SPECS))
def test_spec_mutants_load_or_are_refused_with_a_field_path(scratch, mutant, monkeypatch):
    base, tree = mutant
    loaded = loads(spec_from_dict, tree)
    path = scratch / "spec.json"
    path.write_text(json.dumps(tree))
    monkeypatch.setattr(cli, "solve_discrete", solved)
    monkeypatch.setattr(cli, "solve_grid", solved)
    mode = "discrete" if SPECS[base]["mode"] == "discrete" else "grid"
    argv = ["solve", str(path), "--mode", mode, "--out", str(scratch / "out")]
    assert exit_status(argv) == (0 if loaded else 2)


@fuzz
@given(mutant=mutants(CONFIGS))
def test_config_mutants_load_or_are_refused_with_a_field_path(scratch, mutant, monkeypatch):
    _, tree = mutant
    loaded = loads(config_from_dict, tree)
    path = scratch / "config.json"
    path.write_text(json.dumps(tree))
    monkeypatch.setattr(cli, "run_experiment_suite",
                        lambda config: SuiteResult(Path(config.output_dir), {}, []))
    argv = ["experiment", "--config", str(path), "--out", str(scratch / "suite")]
    assert exit_status(argv) == (0 if loaded else 2)


def test_the_bases_load():
    for tree in SPECS:
        assert loads(spec_from_dict, tree)
    for tree in CONFIGS:
        assert loads(config_from_dict, tree)


@st.composite
def specs(draw) -> ProblemSpec:
    """A valid discrete or continuous spec of 1 to 4 resources, its floats at full precision."""
    n, discrete = draw(st.integers(1, 4)), draw(st.booleans())
    members = [frozenset(range(1, n + 1)),  # every resource in some bundle
               *draw(st.lists(st.frozensets(st.integers(1, n), min_size=1), max_size=3))]
    bundles = tuple(Bundle(m, draw(st.floats(1e-300, 1e300))) for m in members)
    e = float(draw(st.integers(1, 50))) if discrete else draw(st.floats(1e-3, 1e6))
    xs = sorted(draw(st.sets(st.floats(0.0, e, exclude_min=True, exclude_max=True),
                             max_size=3)))
    ys = [0.0]
    for _ in xs + [e]:
        ys.append(ys[-1] + draw(st.floats(0.0, 1e6)))
    if discrete:
        weights = [draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)) for _ in range(n)]
        assume(all(sum(w) > 0 for w in weights))
        laws = tuple(DiscreteMultinomial(tuple(x / sum(w) for x in w)) for w in weights)
    else:
        stds = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
        laws = tuple(TruncatedGaussian(draw(st.floats(-4.5, 20.0)) * std, std) for std in stds)
    return ProblemSpec(n, bundles, e, PwlFunction((0.0, *xs, e), tuple(ys)), laws,
                       "discrete" if discrete else "continuous")


runs = (st.builds(RunSpec, st.just("discrete"))
        | st.builds(RunSpec, st.just("fixed"), g=st.integers(2, MAX_KNOTS))
        | st.builds(RunSpec, st.sampled_from(["vg1", "vg2"]),
                    max_knots=st.integers(2, MAX_KNOTS), threshold=st.floats(0.0, 1e300)))
finite = st.floats(allow_nan=False, allow_infinity=False)
generators = st.builds(
    GeneratorParams, n_resources=st.integers(1, _MAX_DRAWS), n_bundles=st.integers(1, _MAX_DRAWS),
    bundle_size_mean=finite, bundle_size_std=st.floats(0.0, 1e300), value_mean=finite,
    value_var=st.floats(0.0, 1e300),
    # A high of 0 or more: a high whose P(w > 0) is below 1e-6 is refused.
    bid_mean_range=st.tuples(st.floats(-1e300, 1e300), st.floats(0.0, 1e300)).map(
        lambda pair: tuple(sorted(pair))),
    bid_var=st.floats(0.0, 1e300, exclude_min=True), endowment=st.integers(1, 4000).map(float),
    residual_slope=st.floats(0.0, 1e300), seed=st.integers(0, 2**64))
configs = st.builds(
    ExperimentConfig, n_experiments=st.integers(0, 10**6),
    runs=st.lists(runs, max_size=5, unique_by=lambda run: run.name).map(tuple),
    output_dir=st.text(), master_seed=st.integers(0, 2**128), generator=generators)


def through_json(data: dict) -> dict:
    return json.loads(json.dumps(data))


@given(specs())
@settings(max_examples=200, deadline=None)
def test_a_written_spec_reads_back_equal(spec):
    assert spec_from_dict(through_json(spec_to_dict(spec))) == spec


@given(configs)
@settings(max_examples=200, deadline=None)
def test_a_written_config_reads_back_equal_but_for_what_it_leaves_out(config):
    # config_to_dict leaves out the output directory and the generator's seed.
    want = replace(config, output_dir=ExperimentConfig().output_dir,
                   generator=replace(config.generator, seed=GeneratorParams().seed))
    assert config_from_dict(through_json(config_to_dict(config))) == want
