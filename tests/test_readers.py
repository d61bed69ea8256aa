"""Mutation fuzz of the spec and config readers, directly and through the command line.

Each example takes a valid spec or config dict and replaces, deletes or appends one
or two of its nodes. The mutant must load, or be refused with a ValueError whose
message (each listed line, for an invalid problem spec) starts with a field path;
`seqbid solve` and `seqbid experiment` on its JSON file exit 0 or 2 accordingly.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
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
    config_from_dict,
    config_to_dict,
)
from seqbid.io import spec_from_dict, spec_to_dict
from seqbid.pwl import PwlFunction

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
     "maximizer": {"refine_tolerance": 0.0001, "samples_per_segment": 32}, "experiments": []},
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
