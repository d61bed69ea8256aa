"""Op clock and span tracer, applied to seqbid from outside the package.

``OpClock`` is all the instrumentation of an untraced run: it stamps op
boundaries and times the reference kernel beside each op.
``Tracer`` is the traced run: it patches each layer's entry points where the
callers look them up, records one span per wrapped call (name, start, end,
parent span, op id) in flat arrays, and derives the per-layer metrics when
the run ends.  Nothing under ``src/seqbid`` is edited.

Layer ``X_s`` metrics are inclusive wall time of that layer's spans; metrics
named ``*_self_s`` subtract the time covered by child spans.  Everything is
reported per pass, i.e. per execution of the workload's op list.
"""

from __future__ import annotations

import os
import time
from array import array

from speed import reference_s

clock = time.perf_counter

# Layer quantities that have no entry point outside the package to wrap.
NOT_MEASURED = {
    "continuous.polish_iterations": "the golden-section polish loops inside one "
                                    "_maximize_batch call",
    "continuous.scan_vs_polish_s": "the candidate scan and the polish are one "
                                   "_maximize_batch call",
    "per-stage solver times": "the stage loops run inside solve_discrete and solve_grid",
}


class OpClock:
    """Op latencies by op key, each with the reference kernel's time around it.

    The key names the op's input, so repetitions of one op in later passes
    can be compared with each other.  The kernel (``speed.reference_s``) runs
    just before the op's clock starts and just after it stops; ``end_op``
    returns the op's own latency.
    """

    def __init__(self):
        self.latencies: list[tuple[str, float, float]] = []  # key, seconds, kernel s
        self._t0: float | None = None
        self._key = ""
        self._ref0 = 0.0

    def begin_op(self, key: str) -> None:
        if self._t0 is not None:
            self.end_op()
        self._key = key
        self._ref0 = reference_s()
        self._t0 = clock()

    def end_op(self) -> float:
        if self._t0 is None:
            return 0.0
        dt = clock() - self._t0
        self._t0 = None
        self.latencies.append((self._key, dt, 0.5 * (self._ref0 + reference_s())))
        return dt

    def wrap_bidder(self, bidder):
        return bidder


class Tracer(OpClock):
    """Span recorder plus the patches that feed it."""

    def __init__(self, op_name: str):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.depth: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self._op_nid = self._id(op_name)
        self._op_span = -1
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.end)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.depth[nid] += 1
        self.start.append(clock())
        return i

    def _close(self, i: int, nid: int) -> None:
        self.end[i] = clock()
        self.stack.pop()
        self.depth[nid] -= 1

    def begin_op(self, key: str) -> None:
        if self._op_span >= 0:
            self.end_op()
        super().begin_op(key)
        self.op_id += 1
        self._op_span = self._open(self._op_nid)

    def end_op(self) -> float:
        if self._op_span >= 0:
            self._close(self._op_span, self._op_nid)
            self._op_span = -1
        return super().end_op()

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs outside the span.

        Repeats ``_open``/``_close`` inline: on ``montecarlo`` this wrapper
        runs a million times a pass.
        """
        nid = self._id(name)
        start, end, parent, names, ops = (self.start.append, self.end, self.parent.append,
                                          self.name.append, self.op.append)
        stack, depth = self.stack, self.depth

        def traced(*args, **kwargs):
            i = len(end)
            parent(stack[-1])
            names(nid)
            ops(self.op_id)
            end.append(0.0)
            stack.append(i)
            depth[nid] += 1
            start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                depth[nid] -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_bidder(self, bidder):
        return self.span("simulate.bidder", bidder)

    # -- patches -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_span(self, owners, attr: str, name: str, after=None) -> None:
        original = getattr(owners[0], attr)
        traced = self.span(name, original, after)
        for owner in owners:
            self._patch(owner, attr, traced)

    def install(self) -> None:
        """Patch every traced entry point; ``uninstall`` undoes it."""
        import numpy as np
        from seqbid import continuous, core, discrete, experiment
        from seqbid import io as sio
        from seqbid import pwl, simulate

        add = self.add
        compare_id = self._id("simulate.compare")

        # core: win probabilities, sampling, validation
        for cls in (core.TruncatedGaussian, core.DiscreteMultinomial):
            self._patch_span([cls], "win_probability_vec", "core.winprob",
                             lambda a, r: add("core.winprob_elems", np.size(a[1])))
            self._patch_span([cls], "win_probability", "core.winprob",
                             lambda a, r: add("core.winprob_elems"))
            self._patch_span([cls], "sample", "core.sample")
        validating = [m for m in (core, continuous, discrete, simulate, experiment, sio)
                      if "ensure_valid" in m.__dict__]
        self._patch_span(validating, "ensure_valid", "core.validate")

        # pwl: interpolation and the refiners (evaluate callbacks are child spans)
        self._patch_span([pwl.PwlFunction], "__call__", "pwl.eval",
                         lambda a, r: add("pwl.eval_elems"))
        self._patch_span([pwl.PwlFunction], "values", "pwl.eval",
                         lambda a, r: add("pwl.eval_elems", np.size(a[1])))
        for attr in ("vg1_refine", "vg2_refine"):
            refine = self.span("pwl.refine", getattr(continuous, attr),
                               lambda a, r: add("pwl.knots_placed", len(r.xs)))

            def with_traced_evaluate(evaluate, *rest, _refine=refine, **kw):
                return _refine(self.span("pwl.evaluate", evaluate), *rest, **kw)

            self._patch(continuous, attr, with_traced_evaluate)

        # discrete: exact solve, exact policy evaluation, policy lookups
        def discrete_counts(a, sol):
            add("discrete.components", sum(len(v) for v in sol.stage_values))
            add("discrete.settled", len(sol.settled))
            add("discrete.states", sol.state_count)

        self._patch_span([discrete, experiment], "solve_discrete", "discrete.solve",
                         discrete_counts)
        self._patch_span([discrete], "evaluate_policy_exact", "discrete.eval_exact")
        policy = discrete.DiscreteSolution.policy

        def counted_policy(sol):
            # Counted, not spanned: the evaluator looks the policy up once per
            # state, millions of times on `wide`.
            bidder = policy(sol)
            counts = self.counts

            def counted(t, mask, d):
                counts["discrete.policy_calls"] = counts.get("discrete.policy_calls", 0) + 1
                return bidder(t, mask, d)

            return counted

        self._patch(discrete.DiscreteSolution, "policy", counted_policy)

        # continuous: grid solve and the bid maximizer
        error_bound = continuous.error_bound

        def grid_counts(a, sol):
            add("continuous.knots", sol.state_count)
            add("continuous.components", sum(len(c) for c in sol.values.components))
            add("continuous.settled", len(sol.settled))
            add("continuous.start_bound_sum", error_bound(sol.ledger, 0))

        self._patch_span([continuous, experiment], "solve_grid", "continuous.solve",
                         grid_counts)

        def maximize_counts(a, r):
            # Candidate cells by the definition fixed at this benchmark's
            # introduction, so the count stays comparable across commits.
            win, ds, cfg = a[0], a[3], a[4]
            rows = np.size(ds)
            knots = len(win.xs)
            add("continuous.maximize_rows", rows)
            add("continuous.candidate_cells",
                rows * (knots + cfg.samples_per_segment * min(max(knots - 1, 1), 8) + 2))
            if self.depth[compare_id]:
                add("simulate.compare_rows", rows)

        self._patch_span([continuous, simulate], "_maximize_batch", "continuous.maximize",
                         maximize_counts)

        # simulate: lattice comparison and rounds (the bidder is wrapped by the workload)
        self._patch_span([experiment, simulate], "compare_solutions", "simulate.compare")
        self._patch_span([simulate], "simulate_round", "simulate.round")

        # experiment: instance generation (the suite's failures come from its manifest)
        self._patch_span([experiment], "generate_instance", "experiment.generate")

        # io: every report writer the suite calls
        for attr in ("save_spec", "write_discrete_solution", "write_grid_solution",
                     "write_delta_ledger", "write_error_report"):
            self._patch_span([experiment], attr, "io.write",
                             lambda a, r: add("io.bytes_written", os.path.getsize(a[1])))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Span index at a pass boundary, and the counters since the last mark.

        The counters start again from zero, so a float counter is summed the
        same way in every pass: a difference of running totals would round
        differently from pass to pass.
        """
        counts = dict(self.counts)
        self.counts.clear()
        return len(self.end), counts

    def layer_metrics(self, first: int, last: int, counts: dict) -> tuple[dict, dict]:
        """Per-layer metrics of spans first..last-1, and calls and times by span name."""
        import numpy as np

        # Slicing copies, so no buffer of the growing arrays stays exported.
        start = np.frombuffer(self.start[first:last], dtype=float)
        end = np.frombuffer(self.end[first:last], dtype=float)
        parent = np.frombuffer(self.parent[first:last], dtype=np.int64) - first
        name = np.frombuffer(self.name[first:last], dtype=np.int64)
        dur = end - start
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)

        def nid(n):
            return self._ids.get(n, -1)

        def c(n):
            return int(calls[nid(n)]) if nid(n) >= 0 else 0

        def t_incl(n):
            return float(incl[nid(n)]) if nid(n) >= 0 else 0.0

        def t_self(n):
            return float(own[nid(n)]) if nid(n) >= 0 else 0.0

        ops = name == self._op_nid
        coverage = child[ops] / np.maximum(dur[ops], 1e-12)
        rows = counts.get("continuous.maximize_rows", 0)
        solves = c("continuous.solve")
        return {
            "core.winprob_elems": counts.get("core.winprob_elems", 0),
            "core.winprob_s": t_incl("core.winprob"),
            "core.sample_calls": c("core.sample"),
            "core.sample_s": t_incl("core.sample"),
            "core.validate_calls": c("core.validate"),
            "core.validate_s": t_incl("core.validate"),
            "pwl.refine_calls": c("pwl.refine"),
            "pwl.knots_placed": counts.get("pwl.knots_placed", 0),
            "pwl.refine_self_s": t_self("pwl.refine"),
            "pwl.eval_elems": counts.get("pwl.eval_elems", 0),
            "discrete.solve_s": t_incl("discrete.solve"),
            "discrete.eval_exact_s": t_incl("discrete.eval_exact"),
            "discrete.policy_calls": counts.get("discrete.policy_calls", 0),
            "discrete.components": counts.get("discrete.components", 0),
            "discrete.settled": counts.get("discrete.settled", 0),
            "discrete.states": counts.get("discrete.states", 0),
            "continuous.solve_s": t_incl("continuous.solve"),
            "continuous.maximize_calls": c("continuous.maximize"),
            "continuous.maximize_rows": rows,
            "continuous.rows_per_call": rows / max(c("continuous.maximize"), 1),
            "continuous.candidate_cells": counts.get("continuous.candidate_cells", 0),
            "continuous.maximize_s": t_incl("continuous.maximize"),
            "continuous.knots": counts.get("continuous.knots", 0),
            "continuous.components": counts.get("continuous.components", 0),
            "continuous.settled": counts.get("continuous.settled", 0),
            "continuous.start_bound":
                counts.get("continuous.start_bound_sum", 0.0) / max(solves, 1),
            "simulate.compare_s": t_incl("simulate.compare"),
            "simulate.compare_rows": counts.get("simulate.compare_rows", 0),
            "simulate.rounds": c("simulate.round"),
            "simulate.round_self_s": t_self("simulate.round"),
            "simulate.bidder_calls": c("simulate.bidder"),
            "simulate.bidder_s": t_incl("simulate.bidder"),
            "experiment.generate_s": t_incl("experiment.generate"),
            "experiment.self_s": t_self("experiment.op"),
            "experiment.failures": counts.get("experiment.failures", 0),
            "io.write_s": t_incl("io.write"),
            "io.bytes_written": counts.get("io.bytes_written", 0),
            "io.files_written": c("io.write"),
            "trace.spans": int(len(dur)),
            "trace.coverage_min": float(coverage.min()) if len(coverage) else 1.0,
        }, {
            n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names) if calls[i]
        }

    def save(self, path) -> None:
        """Write every span to an .npz file: names[name[i]] is span i's name."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float),
                 parent=np.array(self.parent, dtype=np.int64),
                 name=np.array(self.name, dtype=np.int64),
                 op=np.array(self.op, dtype=np.int64))
