"""Shared fixtures: hand-sized named instances and the stock benchmark suite."""

from __future__ import annotations

import pytest

from seqbid.core import (
    Bundle,
    DiscreteMultinomial,
    MODE_CONTINUOUS,
    MODE_DISCRETE,
    ProblemSpec,
    TruncatedGaussian,
)
from seqbid.pwl import PwlFunction


def coin() -> DiscreteMultinomial:
    return DiscreteMultinomial((0.5, 0.5))


@pytest.fixture
def t1() -> ProblemSpec:
    """One resource worth 10, endowment 2, fair-coin high bid on {0, 1}."""
    return ProblemSpec(
        n=1,
        bundles=(Bundle(frozenset({1}), 10.0),),
        endowment=2.0,
        residual=PwlFunction.linear(0.7, 0.0, 2.0),
        distributions=(coin(),),
        mode=MODE_DISCRETE,
    )


@pytest.fixture
def t2() -> ProblemSpec:
    """Two resources: the pair is worth 10, resource 2 alone 4; endowment 3."""
    return ProblemSpec(
        n=2,
        bundles=(Bundle(frozenset({1, 2}), 10.0), Bundle(frozenset({2}), 4.0)),
        endowment=3.0,
        residual=PwlFunction.linear(0.7, 0.0, 3.0),
        distributions=(coin(), coin()),
        mode=MODE_DISCRETE,
    )


@pytest.fixture
def c1() -> ProblemSpec:
    """Continuous twin of t1 with a truncated-normal high bid."""
    return ProblemSpec(
        n=1,
        bundles=(Bundle(frozenset({1}), 10.0),),
        endowment=2.0,
        residual=PwlFunction.linear(0.7, 0.0, 2.0),
        distributions=(TruncatedGaussian(1.0, 0.5),),
        mode=MODE_CONTINUOUS,
    )


@pytest.fixture
def c2() -> ProblemSpec:
    """Continuous twin of t2 with truncated-normal high bids."""
    return ProblemSpec(
        n=2,
        bundles=(Bundle(frozenset({1, 2}), 10.0), Bundle(frozenset({2}), 4.0)),
        endowment=3.0,
        residual=PwlFunction.linear(0.7, 0.0, 3.0),
        distributions=(TruncatedGaussian(1.0, 0.5),) * 2,
        mode=MODE_CONTINUOUS,
    )


@pytest.fixture(scope="session")
def default_suite_pair(tmp_path_factory):
    """Two command-line runs of the stock suite with seed 42.

    Shared by the trend and determinism checks so the heavy work happens once.
    Returns the two output directories and the total wall-clock seconds.
    """
    import time

    from seqbid.cli import main

    dirs = []
    start = time.perf_counter()
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"suite_{tag}") / "out"
        rc = main(
            ["experiment", "--config", "default", "--seed", "42", "--out", str(out)]
        )
        assert rc == 0
        dirs.append(out)
    return dirs[0], dirs[1], time.perf_counter() - start
