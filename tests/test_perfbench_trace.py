"""The benchmark tracer (perfbench/spans.py) patches seqbid's entry points by
name; a rename under src must fail here, not only under `run.py --trace 1`."""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_patched_layer_records_a_span(c1, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    from seqbid import continuous, core, discrete, experiment, simulate
    from seqbid.pwl import RefinementBudget

    tracer = Tracer("guard.op")
    tracer.install()
    try:
        layers = set(tracer.names) - {"guard.op"}
        # Every call goes through the module attribute the tracer patched.
        g5 = continuous.solve_grid(c1, continuous.UniformFixed(5))
        continuous.solve_grid(c1, continuous.Vg1(RefinementBudget(5, 0.0)))
        twin = core.to_discrete(c1)
        exact = discrete.solve_discrete(twin)
        simulate.compare_solutions(exact, g5.values, c1)
        discrete.evaluate_policy_exact(twin, exact.policy())
        bidder = tracer.wrap_bidder(simulate.table_policy(exact))
        traces = simulate.collect_rounds(twin, bidder, 10, seed=0)
        simulate.simulate_round(twin, bidder, 0)
        experiment.generate_instance(experiment.GeneratorParams(n_resources=3, n_bundles=1))
        experiment.save_spec(c1, tmp_path / "c1.json")
        last, counts = tracer.mark()
        _, by_name = tracer.layer_metrics(0, last, counts)
    finally:
        tracer.uninstall()
    assert {"core.validate", "continuous.maximize", "pwl.refine", "simulate.round"} <= layers
    assert sorted(layers - set(by_name)) == []
    # One bidder call per (stage, holdings) of the batch, and one per stage of the lone round.
    groups = {(t, tuple(tr.won[:t])) for tr in traces for t in range(twin.n)}
    assert by_name["simulate.bidder"]["calls"] == len(groups) + twin.n
    assert by_name["simulate.round"]["calls"] == 1
    assert counts["discrete.policy_calls"] > 0
    assert continuous.solve_grid.__module__ == "seqbid.continuous"  # patches undone


def test_every_maximizer_win_probability_is_traced(monkeypatch):
    # compare_solutions stacks pairs of every stage, each under its own distribution;
    # each element ndtr sees must have passed through the traced win_probability_vec.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    import numpy as np
    import scipy.special

    from seqbid import continuous, core, discrete, simulate
    from seqbid.experiment import GeneratorParams, generate_instance
    from seqbid.pwl import RefinementBudget

    # G15 curves share their knots (the shared scan), Vg2 curves do not (the per-cell scan).
    spec = generate_instance(GeneratorParams(seed=1000))
    exact = discrete.solve_discrete(core.to_discrete(spec))
    grids = [continuous.solve_grid(spec, strategy) for strategy in
             (continuous.UniformFixed(15), continuous.Vg2(RefinementBudget(15, 0.01)))]
    assert len(set(spec.distributions)) == spec.n > 1
    seen = []

    def counted(x, _ndtr=core.ndtr):
        seen.append(np.size(x))
        return _ndtr(x)

    # Wherever seqbid reads ndtr from: core, any other module, or scipy at call time.
    for module in [scipy.special, *(m for name, m in sys.modules.items()
                                     if name.startswith("seqbid") and "ndtr" in vars(m))]:
        monkeypatch.setattr(module, "ndtr", counted)
    tracer = Tracer("guard.op")
    tracer.install()
    try:
        for grid in grids:
            simulate.compare_solutions(exact, grid.values, spec)
        _, counts = tracer.mark()
    finally:
        tracer.uninstall()
    assert counts["core.winprob_elems"] == sum(seen) > 0
