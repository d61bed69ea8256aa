#!/usr/bin/env python3
"""seqbid benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload suite|adaptive|wide|montecarlo \\
        [--seed N] [--seconds S] [--trace 0|1] [--inputs default|held-out]

Run from anywhere inside a checkout that holds ``src/seqbid``.  The run sets
up the workload (timed as ``setup_s``, median of several set-ups, the others
in child processes), then repeats whole passes of the workload's op list for
about ``--seconds``, checking every pass's outputs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes, and reports the per-layer metrics; its
spans are saved under ``.perfbench-out/trace/``.  Every run appends a record
with provenance, all metrics and the deterministic counters to
``.perfbench-out/results.jsonl``, and fails its self-check if the counters
differ from an earlier run of the same sources, workload, inputs and seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

clock = time.perf_counter


def cap_threads() -> dict[str, str]:
    """Cap numeric thread pools at the usable CPU count, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources: one commit, one digest."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("seqbid/*.py"), *HERE.glob("*.py"), HERE / "pins.json"]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def setup_reference() -> float:
    """Median of 5 reference-kernel timings, taken right after a set-up."""
    return statistics.median(speed.reference_s() for _ in range(5))


def probe_setup(args) -> tuple[float, float]:
    """Set-up time and reference-kernel time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--inputs", args.inputs, "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["ref_s"])


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(wl, seconds: float, traced: bool):
    """Whole passes for about `seconds`: another pass starts only if one as
    long as the last would end by the deadline.  With tracing, one untraced
    pass comes first and at least one traced pass follows."""
    from spans import OpClock, Tracer

    plain = OpClock()
    passes = []  # (PassResult, layer metrics or None, spans by name or None)
    deadline = clock() + seconds
    while True:
        t0 = clock()
        passes.append((wl.run_pass(plain, len(passes)), None, None))
        wall = clock() - t0
        if traced or clock() + wall > deadline:
            break
    if not traced:
        return passes, plain, None
    tracer = Tracer(wl.op_span)
    tracer.install()
    try:
        while len(passes) < 2 or clock() + wall <= deadline:
            first, _ = tracer.mark()
            cpu0, wall0 = cpu_seconds(), clock()
            result = wl.run_pass(tracer, len(passes))
            cpu, wall = cpu_seconds() - cpu0, clock() - wall0
            last, counts = tracer.mark()
            layer, by_name = tracer.layer_metrics(first, last, counts)
            layer.update({k: v for k, v in result.counters.items() if k in layer})
            layer["proc.cpu_s"] = cpu
            layer["proc.wall_s"] = wall
            passes.append((result, layer, by_name))
    finally:
        tracer.uninstall()
    return passes, plain, tracer


def is_timing(name: str) -> bool:
    """Per-layer metrics that vary run to run; all others must repeat exactly."""
    return name.endswith("_s") or name in ("trace.overhead_frac", "trace.coverage_min")


def self_check(key: str, counters: dict) -> list[str]:
    """Compare deterministic counters with earlier runs of the same key; record new ones."""
    store_path = OUT / "counters.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    seen = store.setdefault(key, {})
    problems = [f"{k}: {v!r} here, {seen[k]!r} in an earlier run"
                for k, v in counters.items() if k in seen and seen[k] != v]
    if not problems:
        seen.update(counters)
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(store_path)
    return problems


def end_to_end(wl, plain, passes, setups, failed: int, attempted: int, counters: dict):
    """Contract metrics, and the same run under each workload's own metric names.

    Every timing is rescaled to the reference kernel's fast-state speed (see
    speed.py): seconds × REF_SECONDS / kernel seconds.  An op's latency is the
    median over its repetitions in the run; rate and percentiles are taken
    over the distinct ops of one pass.  The plain figures are kept beside
    them as ``raw_*``.
    """
    by_op: dict[str, list[float]] = {}
    for key, dt, ref in plain.latencies:
        by_op.setdefault(key, []).append(dt * speed.REF_SECONDS / ref)
    per_op = sorted(statistics.median(v) for v in by_op.values())
    n = len(plain.latencies)
    untraced = [r for r, layer, _ in passes if layer is None]
    e2e = {
        "setup_s": (statistics.median(s * speed.REF_SECONDS / r for s, r in setups),
                    "s", len(setups)),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s", n),
        "op_p50_s": (statistics.median(per_op), "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    named = {
        f"{wl.unit}_per_s": (e2e["ops_per_s"][0] * wl.work_per_op, "1/s", n),
        "op_p50_s": e2e["op_p50_s"],
    }
    if len(per_op) >= 100:  # at least 10 ops beyond the 90th percentile
        named["op_p90_s"] = (statistics.quantiles(per_op, n=10)[-1], "s", n)
    named.update({
        "peak_rss_mb": e2e["peak_rss_mb"],
        "failed_frac": (failed / attempted, "ratio", attempted),
        "setup_s": e2e["setup_s"],
        "raw_ops_per_s": (sum(r.ops for r in untraced) / sum(r.body_s for r in untraced),
                          "1/s", n),
        "raw_op_p50_s": (statistics.median(dt for _, dt, _ in plain.latencies), "s", n),
        "raw_setup_s": (statistics.median(s for s, _ in setups), "s", len(setups)),
        "host_slowdown": (statistics.median(r for _, _, r in plain.latencies)
                          / speed.REF_SECONDS, "ratio", n),
    })
    named.update({k: (counters[k], "1", 1) for k in ("value_err", "policy_err")
                  if k in counters})
    return e2e, named, {k: statistics.median(v) for k, v in by_op.items()}


def per_layer(passes, notes: list[str], counters: dict) -> tuple[dict, int]:
    """Per-layer metrics over the traced passes: mean times, exact counts."""
    traced = [layer for _, layer, _ in passes if layer is not None]
    metrics, disagree = {}, 0
    for name in traced[0]:
        values = [layer[name] for layer in traced]
        if is_timing(name):
            metrics[name] = statistics.mean(values)
            continue
        if any(v != values[0] for v in values):
            notes.append(f"traced passes disagree on {name}: {values}")
            disagree += 1
        metrics[name] = counters[name] = values[0]
    untraced_body = next(r.body_s for r, layer, _ in passes if layer is None)
    metrics["trace.overhead_frac"] = statistics.median(
        r.body_s for r, layer, _ in passes if layer is not None) / untraced_body - 1.0
    return metrics, disagree


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("suite", "adaptive", "wide", "montecarlo"))
    p.add_argument("--seed", type=int, default=0,
                   help="replicate seed; only montecarlo draws from it (its batch seeds)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure whole passes for about this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs", choices=("default", "held-out"), default="default",
                   help="held-out: the input set a performance claim must also hold on")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    if not (SRC / "seqbid" / "__init__.py").is_file():
        print(f"perfbench: no seqbid sources at {SRC}", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import NOT_MEASURED

    scratch = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.inputs, args.seed, scratch)
    t0 = clock()
    wl.setup()
    setups = [(clock() - t0, setup_reference())]
    import numpy
    import scipy
    import seqbid

    if Path(seqbid.__file__).resolve().parent != SRC / "seqbid":
        print(f"perfbench: imported seqbid from {seqbid.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setups[0][0], "ref_s": setups[0][1]}))
        return 0
    setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    scratch.mkdir(parents=True, exist_ok=True)
    try:
        passes, plain, tracer = measure(wl, args.seconds, bool(args.trace))
        extra = wl.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r.ops for r, _, _ in passes)
    failed = sum(r.failed for r, _, _ in passes)
    notes = [n for r, _, _ in passes for n in r.notes]
    reference = passes[0][0].counters
    for i, (r, _, _) in enumerate(passes[1:], start=1):
        if r.counters != reference:
            diff = sorted(k for k in set(r.counters) | set(reference)
                          if r.counters.get(k) != reference.get(k))
            notes.append(f"pass {i} outputs differ from pass 0: {diff}")
            failed += r.ops - r.failed
    counters = dict(reference, **extra)

    layer_metrics, by_name = {}, None
    if tracer is not None:
        layer_metrics, disagree = per_layer(passes, notes, counters)
        failed = min(failed + disagree, attempted)
        by_name = passes[-1][2]
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / "trace" / f"{wl.name}-{args.inputs}-seed{args.seed}.npz")

    digest = source_digest()
    problems = self_check(f"{digest}/{wl.name}/{args.inputs}/seed{args.seed}", counters)
    if problems:
        notes += [f"self-check: {m}" for m in problems]
        failed = attempted
    correct = failed == 0
    e2e, named, op_latency = end_to_end(wl, plain, passes, setups, failed, attempted,
                                        counters)
    reps = len(plain.latencies) // len(op_latency)

    provenance = {
        "commit": git_commit(),
        "source_sha256": digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": caps,
        "machine": platform.machine(),
    }
    record = {
        "workload": wl.name, "inputs": args.inputs, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "passes": len(passes),
        "correct": correct, "attempted": attempted, "failed": failed,
        "provenance": provenance,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "latency_by_op": op_latency,
        "setup_samples_s": setups,
        "workload_metrics": {k: {"value": v, "unit": u, "samples": n}
                             for k, (v, u, n) in named.items()},
        "per_layer": layer_metrics,
        "spans_by_name": by_name,
        "not_measured": NOT_MEASURED if tracer is not None else None,
        "counters": counters,
        "notes": notes,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"perfbench {wl.name} inputs={args.inputs} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} ops={attempted} failed={failed} "
          f"(timings: median of {reps} repetitions of each of {len(op_latency)} ops)")
    print("  provenance: " + " ".join(f"{k}={v}" for k, v in provenance.items()
                                      if k != "thread_caps")
          + " threads=" + ",".join(f"{k}={v}" for k, v in caps.items()))
    for name, (value, unit, samples) in named.items():
        print(f"  {name:<20} {value:>14.6g} {unit:<6} (n={samples})")
    for name, value in layer_metrics.items():
        print(f"  {name:<28} {value:>16.6g}")
    for note in notes:
        print(f"  note: {note}")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {m["name"]: {"value": layer_metrics[m["name"]], "unit": m["unit"]}
                   for m in benchmark["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in benchmark["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
