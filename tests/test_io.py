"""Solution files: which rows they hold, what reading them back gives, what they refuse."""

from __future__ import annotations

import csv
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SOLUTION_HEADERS, csv_bytes, discrete_solution_rows, grid_solution_rows
from seqbid.continuous import (
    DeltaLedger,
    GridSolution,
    HybridValueFunction,
    UniformFixed,
    Vg1,
    Vg2,
    solve_grid,
)
from seqbid.core import (
    Bundle,
    DiscreteMultinomial,
    MODE_CONTINUOUS,
    MODE_DISCRETE,
    ProblemSpec,
    TruncatedGaussian,
    to_discrete,
)
from seqbid.discrete import DiscreteSolution, solve_discrete
from seqbid.experiment import GeneratorParams, generate_instance
from seqbid.io import (
    read_discrete_solution,
    read_grid_solution,
    write_discrete_solution,
    write_grid_solution,
)
from seqbid.pwl import PwlFunction, RefinementBudget


def every_mask(n: int):
    return [(t, mask) for t in range(n + 1) for mask in range(1 << t)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def data_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def assert_same_discrete(back, sol):
    assert (back.n, back.endowment, back.state_count) == (sol.n, sol.endowment, sol.state_count)
    assert back.settled == sol.settled
    for t, mask in every_mask(sol.n):
        assert same_bits(back.stage_values[t][mask], sol.stage_values[t][mask])
        if t < sol.n:
            assert same_bits(back.stage_bids[t][mask], sol.stage_bids[t][mask])
            assert ((t, mask) in back.settled) == ((t, mask) in sol.settled)


def assert_same_grid(back, sol):
    assert back.values.m == sol.values.m
    assert back.state_count == sol.state_count and back.settled == sol.settled
    assert back.ledger.deltas == sol.ledger.deltas
    assert back.knot_bids.keys() == sol.knot_bids.keys()
    for key, zs in sol.knot_bids.items():
        assert same_bits(back.knot_bids[key], zs)
    for t, mask in every_mask(sol.values.n):
        got, want = back.values.components[t][mask], sol.values.components[t][mask]
        assert same_bits(got.xs, want.xs) and same_bits(got.ys, want.ys)


def one_bundle(n: int) -> ProblemSpec:
    """n resources in one bundle worth 100, endowment 2, the wide benchmark's Gaussians."""
    return ProblemSpec(
        n=n,
        bundles=(Bundle(frozenset(range(1, n + 1)), 100.0),),
        endowment=2.0,
        residual=PwlFunction.linear(0.7, 0.0, 2.0),
        distributions=tuple(TruncatedGaussian(0.2 + 0.05 * (t % 5), 0.3) for t in range(n)),
        mode=MODE_CONTINUOUS,
    )


def one_auction(endowment: float) -> ProblemSpec:
    return ProblemSpec(
        n=1,
        bundles=(Bundle(frozenset({1}), 50.0),),
        endowment=endowment,
        residual=PwlFunction.linear(0.7, 0.0, endowment),
        distributions=(DiscreteMultinomial((0.1, 0.2, 0.3, 0.4)),),
        mode=MODE_DISCRETE,
    )


def continuous_twin(spec: ProblemSpec) -> ProblemSpec:
    return replace(spec, mode=MODE_CONTINUOUS,
                   distributions=tuple(TruncatedGaussian(1.0, 0.5) for _ in range(spec.n)))


@pytest.fixture(scope="module")
def instance_1000():
    return generate_instance(GeneratorParams(seed=1000))


class TestStoredRows:
    def test_one_bundle_files_hold_only_stored_components(self, tmp_path):
        spec = one_bundle(16)
        exact = solve_discrete(to_discrete(spec))
        write_discrete_solution(exact, tmp_path / "discrete.csv")
        # stage 0's start, the live and the just-lost mask at stages 1..16
        assert len(data_rows(tmp_path / "discrete.csv")) == 33 * 3
        grid = solve_grid(spec, UniformFixed(15))
        write_grid_solution(grid, tmp_path / "grid.csv")
        # 16 unsettled components of 15 knots, 17 settled or terminal ones of 2
        assert len(data_rows(tmp_path / "grid.csv")) == 16 * 15 + 17 * 2

    def test_rows_ascend_and_flag_the_settled(self, t2, tmp_path):
        sol = solve_discrete(t2)
        write_discrete_solution(sol, tmp_path / "s.csv")
        rows = [tuple(int(x) for x in (r[0], r[1], r[2], r[5]))
                for r in data_rows(tmp_path / "s.csv")]
        assert [r[:3] for r in rows] == sorted(r[:3] for r in rows)
        for t, mask, _, flag in rows:
            assert flag == int(t == sol.n or (t, mask) in sol.settled)


class TestRoundTrip:
    """read(write(sol), spec) is the solver's answer at every mask of every stage."""

    def test_discrete(self, t2, c1, instance_1000, tmp_path):
        for spec in (t2, to_discrete(c1), to_discrete(instance_1000)):
            sol = solve_discrete(spec)
            write_discrete_solution(sol, tmp_path / "s.csv")
            back = read_discrete_solution(tmp_path / "s.csv", spec)
            assert [set(layer) for layer in back.stage_values] == \
                [set(layer) for layer in sol.stage_values]
            assert_same_discrete(back, sol)

    def test_grid(self, c1, instance_1000, tmp_path):
        budget = RefinementBudget(9, 0.01)
        for spec, strategy in ((c1, UniformFixed(4)), (c1, Vg1(budget)),
                               (instance_1000, UniformFixed(15))):
            sol = solve_grid(spec, strategy)
            write_grid_solution(sol, tmp_path / "g.csv")
            back = read_grid_solution(tmp_path / "g.csv", spec)
            assert [set(layer) for layer in back.values.components] == \
                [set(layer) for layer in sol.values.components]
            assert_same_grid(back, sol)


def write_every_mask_discrete(sol, path):
    """The earlier discrete format: every mask below 2^t, settled ones in closed form."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["stage", "holdings_mask", "endowment", "value", "bid", "settled"])
        for t, mask in every_mask(sol.n):
            values = sol.stage_values[t][mask]
            bids = sol.stage_bids[t][mask] if t < sol.n else np.zeros(sol.endowment + 1, int)
            flag = 1 if t == sol.n or (t, mask) in sol.settled else 0
            for d in range(sol.endowment + 1):
                out.writerow([t, mask, d, float(values[d]), int(bids[d]), flag])


def write_every_mask_grid(sol, path):
    """The earlier grid format: every mask below 2^t, bid 0 at settled knots."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["stage", "holdings_mask", "endowment", "value", "bid"])
        for t, mask in every_mask(sol.values.n):
            bids = sol.knot_bids.get((t, mask))
            for j, (x, y) in enumerate(sol.values.components[t][mask].knots):
                out.writerow([t, mask, x, y, float(bids[j]) if bids is not None else 0.0])


class TestEveryMaskFiles:
    """Files that list every mask still read to the solution they came from."""

    def test_discrete(self, t2, instance_1000, tmp_path):
        for spec in (t2, to_discrete(instance_1000)):
            sol = solve_discrete(spec)
            write_every_mask_discrete(sol, tmp_path / "s.csv")
            assert_same_discrete(read_discrete_solution(tmp_path / "s.csv", spec), sol)

    def test_grid(self, c1, instance_1000, tmp_path):
        for spec in (c1, instance_1000):
            sol = solve_grid(spec, UniformFixed(5))
            write_every_mask_grid(sol, tmp_path / "g.csv")
            assert_same_grid(read_grid_solution(tmp_path / "g.csv", spec), sol)


class TestSpecMismatch:
    """A file is refused, naming the file and the field, unless it fits the spec."""

    @pytest.fixture
    def t2_file(self, t2, tmp_path):
        path = tmp_path / "t2.csv"
        write_discrete_solution(solve_discrete(t2), path)
        return path

    def refused(self, read, path, spec, field):
        with pytest.raises(ValueError, match=field) as err:
            read(path, spec)
        assert str(path) in str(err.value)

    def test_stage_beyond_the_spec(self, t2_file):
        self.refused(read_discrete_solution, t2_file, one_auction(3.0), "stage 2")

    def test_endowments_other_than_the_spec(self, t2, t2_file):
        self.refused(read_discrete_solution, t2_file, one_auction(5.0), "endowment")
        small = replace(t2, endowment=2.0, residual=PwlFunction.linear(0.7, 0.0, 2.0))
        self.refused(read_discrete_solution, t2_file, small, "endowment")

    def test_mask_not_below_2_to_the_stage(self, t2, t2_file):
        with open(t2_file, "a", newline="") as fh:
            fh.write("1,2,0,0.0,0,1\n")
        self.refused(read_discrete_solution, t2_file, t2, "holdings_mask 2")

    def test_settled_flag_other_than_the_spec(self, t2, t2_file):
        # without the bundle {2}, losing auction 1 settles (1, 0), which t2 leaves open
        pair_only = replace(t2, bundles=t2.bundles[:1])
        self.refused(read_discrete_solution, t2_file, pair_only, "settled")

    def test_grid_knot_domain_and_stages(self, c1, t2, tmp_path):
        path = tmp_path / "c1.csv"
        write_grid_solution(solve_grid(c1, UniformFixed(4)), path)
        wider = replace(c1, endowment=3.0, residual=PwlFunction.linear(0.7, 0.0, 3.0))
        self.refused(read_grid_solution, path, wider, "endowment")
        two = continuous_twin(t2)
        write_grid_solution(solve_grid(two, UniformFixed(4)), path)
        self.refused(read_grid_solution, path, c1, "stage 2")

    def drop_component(self, path, t, mask):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(r for r in rows if r[:2] != [str(t), str(mask)])

    def test_missing_successor_discrete(self, t2, t2_file):
        # (1, 0) is the lose successor of (0, 0); read from its closed form it
        # would give value(1, 0, 3) = 2.1 instead of 4.7
        self.drop_component(t2_file, 1, 0)
        self.refused(read_discrete_solution, t2_file, t2, "stage 1, holdings_mask 0, "
                     "a successor of unsettled stage 0, holdings_mask 0")

    def test_missing_successor_grid(self, t2, tmp_path):
        two = continuous_twin(t2)
        path = tmp_path / "two.csv"
        write_grid_solution(solve_grid(two, UniformFixed(4)), path)
        self.drop_component(path, 2, 0b11)
        self.refused(read_grid_solution, path, two, "stage 2, holdings_mask 3, "
                     "a successor of unsettled stage 1, holdings_mask 1")

    def test_no_start_component(self, t2, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("stage,holdings_mask,endowment,value,bid,settled\n")
        self.refused(read_discrete_solution, path, t2, "stage 0, holdings_mask 0")

    @staticmethod
    def set_field(path, line, column, text):
        """Write text into one field of a CSV file, at 1-based line and column index."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[line - 1][column] = text
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize("column, text, message", [
        (3, "abc", "line 3, value: 'abc' is not a number"),
        (2, "1.5", "line 3, endowment: '1.5' is not an integer"),
        (4, "0.0", None),  # an integral bid reads as an int
        (4, "True", "line 3, bid: 'True' is not an integer"),
        (3, "nan", "line 3, value: 'nan' is not finite"),
        (3, "-inf", "line 3, value: '-inf' is not finite"),
        (0, "", "line 3, stage: '' is not an integer"),
        (4, "2", "a bid of stage 0, holdings_mask 0 is outside 0..d"),  # d = 1 on line 3
        (4, str(10**23), "a bid of stage 0, holdings_mask 0 is outside 0..d"),
    ])
    def test_discrete_fields_are_read_as_finite_numbers(self, t2, t2_file, column, text,
                                                         message):
        self.set_field(t2_file, 3, column, text)
        if message is None:
            assert_same_discrete(read_discrete_solution(t2_file, t2), solve_discrete(t2))
        else:
            self.refused(read_discrete_solution, t2_file, t2, re.escape(message))

    @pytest.mark.parametrize("column, text, message", [
        (3, "x", "line 3, value: 'x' is not a number"),
        (2, "inf", "line 3, endowment: 'inf' is not finite"),
        (3, "nan", "line 3, value: 'nan' is not finite"),
        (4, "NaN", "line 3, bid: 'NaN' is not finite"),
        (1, "0.5", "line 3, holdings_mask: '0.5' is not an integer"),
        (2, "0.0", "stage 0, holdings_mask 0, knots: abscissae must be strictly increasing"),
    ])
    def test_grid_fields_are_read_as_finite_numbers(self, c1, tmp_path, column, text, message):
        # Before this was refused, a NaN knot value read back silently and the greedy
        # policy of `seqbid simulate` bid 0 wherever its interpolation met the NaN.
        path = tmp_path / "c1.csv"
        write_grid_solution(solve_grid(c1, UniformFixed(4)), path)
        self.set_field(path, 3, column, text)
        self.refused(read_grid_solution, path, c1, re.escape(message))

    def test_short_row(self, t2, t2_file):
        with open(t2_file, "a", newline="") as fh:
            fh.write("2,3,0,7.0\n")
        self.refused(read_discrete_solution, t2_file, t2, "line 30 has 4 fields")


# Floats whose repr is easy to get wrong: a signed zero, an exponent form either
# way, a sum that is not 0.3 and the smallest subnormal.
TRICKY = (-0.0, 1e-07, 1e16, 0.1 + 0.2, 5e-324)
numbers = st.sampled_from(TRICKY) | st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bytes")


def assert_csv_writer_bytes(sol, path):
    """The writer's file is the one csv.writer writes from the oracle's rows."""
    if isinstance(sol, GridSolution):
        write_grid_solution(sol, path)
        want = csv_bytes(SOLUTION_HEADERS["grid"], grid_solution_rows(sol))
    else:
        write_discrete_solution(sol, path)
        want = csv_bytes(SOLUTION_HEADERS["discrete"], discrete_solution_rows(sol))
    assert path.read_bytes() == want


@st.composite
def hand_built_discrete(draw):
    """Components that share a few value vectors and bid vectors, so blocks repeat
    and also differ in their bids only, or in being settled only (all-zero bids)."""
    n, e = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    vector = st.lists(numbers, min_size=e + 1, max_size=e + 1).map(np.array)
    values = draw(st.lists(vector, min_size=1, max_size=3))
    bid = st.lists(st.integers(0, e), min_size=e + 1, max_size=e + 1)
    bids = [np.zeros(e + 1, np.int64)] + [np.array(z, np.int64)
                                          for z in draw(st.lists(bid, max_size=2))]
    stage_values = [{m: draw(st.sampled_from(values)) for m in range(1 << t)}
                    for t in range(n + 1)]
    stage_bids = [{m: draw(st.sampled_from(bids)) for m in range(1 << t) if draw(st.booleans())}
                  for t in range(n)]
    return DiscreteSolution(n, e, stage_values, stage_bids, frozenset(), 0)


@st.composite
def hand_built_grid(draw):
    """Components that share a few knot, value and bid tuples of one length."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    tuples = st.lists(numbers, min_size=k, max_size=k).map(tuple)
    xs = draw(st.lists(st.lists(numbers, min_size=k, max_size=k, unique=True)
                       .map(lambda x: tuple(sorted(x))), min_size=1, max_size=2))
    ys = draw(st.lists(tuples, min_size=1, max_size=2))
    curves = [PwlFunction(x, y) for x in xs for y in ys]
    bids = [np.array(z) for z in draw(st.lists(tuples, min_size=1, max_size=2))]
    components = [{m: draw(st.sampled_from(curves)) for m in range(1 << t)} for t in range(n + 1)]
    knot_bids = {(t, m): draw(st.sampled_from(bids))
                 for t in range(n) for m in range(1 << t) if draw(st.booleans())}
    return GridSolution(HybridValueFunction(components, 1.0), DeltaLedger([0.0] * (n + 1)), 0,
                        knot_bids, frozenset())


class TestWriterBytes:
    """The writers format each distinct component block once; their files are
    csv.writer's, byte for byte: repr for floats, str for ints, CRLF line ends."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), vg2=st.booleans())
    def test_generator_instances_and_their_round_trip(self, out_dir, seed, vg2):
        spec = generate_instance(GeneratorParams(seed=seed))
        twin = to_discrete(spec)
        exact = solve_discrete(twin)
        grid = solve_grid(spec, Vg2(RefinementBudget(9, 0.01)) if vg2 else UniformFixed(5))
        assert_csv_writer_bytes(exact, out_dir / "discrete.csv")
        assert_same_discrete(read_discrete_solution(out_dir / "discrete.csv", twin), exact)
        assert_csv_writer_bytes(grid, out_dir / "grid.csv")
        assert_same_grid(read_grid_solution(out_dir / "grid.csv", spec), grid)

    @settings(max_examples=60, deadline=None)
    @given(sol=hand_built_discrete() | hand_built_grid())
    def test_hand_built_solutions(self, out_dir, sol):
        assert_csv_writer_bytes(sol, out_dir / "hand.csv")

    def test_tricky_floats_in_blocks_that_differ_by_one_field(self, tmp_path):
        # Stages 0 and 1 repeat one value vector: unsettled with zero bids, settled,
        # and unsettled with other bids; stage 2's differs from it in the sign of a
        # zero only.  The grid curves differ from the first in the sign of a zero or
        # in one knot.
        same = np.array(TRICKY)
        other_zero = np.array([0.0, *TRICKY[1:]])
        values = [{0: same}, {0: same, 1: same}, {m: other_zero for m in range(4)}]
        bids = [{0: np.zeros(5, np.int64)}, {1: np.array([0, 1, 2, 3, 4])}]
        sol = DiscreteSolution(2, 4, values, bids, frozenset(), 0)
        assert_csv_writer_bytes(sol, tmp_path / "discrete.csv")
        assert (tmp_path / "discrete.csv").read_bytes().splitlines()[1:3] == [
            b"0,0,0,-0.0,0,0", b"0,0,1,1e-07,0,0"]
        curve = PwlFunction((0.0, 1e-07, 0.1 + 0.2, 1e16), (-0.0, 5e-324, 0.1 + 0.2, 1e16))
        twins = [PwlFunction(curve.xs, (0.0,) + curve.ys[1:]),
                 PwlFunction(curve.xs[:-1] + (2e16,), curve.ys)]
        knot_bids = {(0, 0): np.array([0.0, -0.0, 1e-07, 5e-324])}
        grid = GridSolution(HybridValueFunction([{0: curve}, {0: curve, 1: twins[0]},
                                                 {0: curve, 1: twins[1]}], 1.0),
                            DeltaLedger([0.0, 0.0, 0.0]), 0, knot_bids, frozenset())
        assert_csv_writer_bytes(grid, tmp_path / "grid.csv")
