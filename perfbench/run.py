#!/usr/bin/env python3
"""Benchmark of the postselect package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout; without it the benchmark exits with code 2 and prints no
result.  A run repeats the workload's round of operations for about
``--seconds`` (it starts no round that would end later, once 40 analytic
evaluation calls were made), checks every result outside the timed region,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` untraced rounds fill the first half of the run and traced
rounds the second, and the metrics are the per-layer ones, including the
tracing overhead.  ``--smoke`` runs one round at a tiny size.  BLAS threads
and the simulator's worker threads are pinned to 1; the line
before the result records the environment, the seed and the failure counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("panels_smoothed", "general_qmc", "unsmoothed_engine", "oracle_sim")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2  # fresh interpreters timing set-up, besides this process
MIN_EVALS = 40  # analytic evaluation calls per run, at the least
EVAL_CALLS, EVAL_REPEAT_S = 5, 0.02  # calls of one evaluation per round; see run_round

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "evals_per_s": "1/s",
    "eval_ms_p50": "ms", "eval_ms_p75": "ms", "sim_reps_per_s": "1/s",
    "peak_rss_mb": "MB", "pass_frac": "ratio",
}


def pin_environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    os.environ.update(PINNED_ENV)
    # One simulator thread: with two, a simulation waits for the slower of two
    # CPUs shared with other tenants, and sim_reps_per_s spread by 9-12%.
    os.environ["POSTSEL_THREADS"] = "1"
    return {**PINNED_ENV, "POSTSEL_THREADS": os.environ["POSTSEL_THREADS"], "nproc": nproc}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at a tiny size")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- rounds ---------------------------------------------------------------------------


class Round:
    """Per-operation timings and check outcomes of one pass over a workload."""

    def __init__(self, op_wall, op_cpu, evals, checks, failures):
        self.op_wall = op_wall  # wall seconds of each call, per operation
        self.op_cpu = op_cpu  # process CPU seconds of each call, per operation
        self.evals = evals  # analytic evaluation calls made
        self.checks = checks
        self.failures = failures


def run_round(ops, W, tracer=None) -> Round:
    """One pass over the operations, then their checks.

    Untraced, an evaluation is called again, up to EVAL_CALLS times, until
    its calls took EVAL_REPEAT_S: a short evaluation gets several timed calls
    for each one of a long evaluation.  Every call is timed; the last call's
    result is checked.  Traced rounds call every operation
    once, so the layer counts of a round do not depend on timing.
    """
    state: dict = {}
    outcomes, op_wall, op_cpu = [], [], []
    evals = 0
    for op in ops:
        repeats = EVAL_CALLS if tracer is None and op.kind == "eval" else 1
        wall, cpu, spent = [], [], 0.0
        for call in range(repeats):
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                if tracer is not None and op.span is not None:
                    result = tracer.timed(op.span, op.fn, state)
                else:
                    result = op.fn(state)
                error = None
            except Exception:  # a failed operation is counted, never retried
                result, error = None, traceback.format_exc()
            dt, dt_cpu = time.perf_counter() - start, time.process_time() - cpu_start
            wall.append(dt)
            cpu.append(dt_cpu)
            spent += dt
            if error or spent >= EVAL_REPEAT_S:
                break
        if op.kind == "eval":
            evals += call + 1
        op_wall.append(wall)
        op_cpu.append(cpu)
        outcomes.append((result, error))

    # checks run outside the timed region
    checks, failures = [], []
    for op, (result, error) in zip(ops, outcomes):
        if error is None:
            try:
                check = op.check(result, state)
            except Exception:
                check, error = W.Check(ok=False), traceback.format_exc()
        else:
            check = W.Check(ok=False)
        if not check.ok:
            failures.append(op.name)
            if error:
                print(f"{op.name} raised:\n{error}", file=sys.stderr)
        checks.append(check)
    return Round(op_wall, op_cpu, evals, checks, failures)


# -- metrics ------------------------------------------------------------------------------


def typical(rounds, series: str) -> list[float]:
    """Each operation's median call across the run's rounds.

    On a shared host the speed of a call swings by up to 1.8x from one
    millisecond to the next, and whether a fast spell long enough for a
    given call comes up within a run is chance: over ten consecutive
    24-second windows, the fastest call of each of three evaluations ranged
    over 1.5-1.8x, while the quartiles of their window medians lay 4-5%
    apart.  Rounds are short, and short evaluations are called
    several times in a round, so that every operation repeats many times in
    a run.
    """
    per_op = zip(*(getattr(r, series) for r in rounds))
    return [statistics.median(t for calls in op for t in calls) for op in per_op]


def end_to_end(ops, rounds, setup_samples, attempted, failed) -> dict:
    op_wall = typical(rounds, "op_wall")
    lat = [dt for op, dt in zip(ops, op_wall) if op.kind == "eval"]
    sims = [(op.reps, dt) for op, dt in zip(ops, op_wall) if op.kind == "sim"]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(op_wall),
        "cpu_s": sum(typical(rounds, "op_cpu")),
        "evals_per_s": len(lat) / sum(lat),
        "eval_ms_p50": 1e3 * statistics.median(lat),
        "eval_ms_p75": 1e3 * statistics.quantiles(lat, n=4)[2],
        "sim_reps_per_s": sum(r for r, _ in sims) / sum(dt for _, dt in sims),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_sources() -> dict:
    """Per-layer metric name -> (unit, tracer table, key), in BENCHMARK.json order.

    Metrics taken from the checks instead of the tracer have no table.
    """
    from tracing import COUNTS, ENGINE_METHODS, TRACED_FUNCTIONS

    out = {}
    for mod, attrs in TRACED_FUNCTIONS.items():
        for attr in attrs:
            span = f"{mod}.{attr}"
            if span == "kernels.gaussian_region_prob":
                for path in ("point", "quad1d", "qmc"):
                    out[f"{span}.calls.{path}"] = ("count", "calls", f"{span}.{path}")
                    out[f"{span}.self_s.{path}"] = ("s", "self_s", f"{span}.{path}")
            elif span == "montecarlo.write_report_csv":
                out[f"{span}.self_s"] = ("s", "self_s", span)
            else:
                out[f"{span}.calls"] = ("count", "calls", span)
                out[f"{span}.self_s"] = ("s", "self_s", span)
    for attr in ENGINE_METHODS:
        out[f"mixture.{attr}.calls"] = ("count", "calls", f"mixture.{attr}")
        out[f"mixture.{attr}.self_s"] = ("s", "self_s", f"mixture.{attr}")
    out.update({key: (unit, "counts", key) for key, unit in COUNTS.items()})
    out["cli.curves.s"] = ("s", "total_s", "cli.curves")
    out["cli.selection-probs.s"] = ("s", "total_s", "cli.selection-probs")
    out["cli.csv_bytes"] = ("B", None, None)
    out["accuracy.max_abs_err.quad1d"] = ("1", None, None)
    out["accuracy.max_abs_err.qmc"] = ("1", None, None)
    out["accuracy.err_est_exceeded"] = ("count", None, None)
    out["accuracy.nonconverged"] = ("count", None, None)
    out["trace.overhead_s"] = ("s", None, None)
    return out


def per_layer(tracer, traced, untraced) -> dict:
    """Per-round layer totals of the traced rounds, plus accuracy and overhead.

    The overhead is the traced round minus the untraced one, each the sum of
    its operations' median calls.
    """
    n = len(traced)
    checks = [c for r in traced for c in r.checks]
    values = {
        "cli.csv_bytes": sum(c.csv_bytes for c in checks) / n,
        "accuracy.err_est_exceeded": sum(c.err_est_exceeded for c in checks) / n,
        "accuracy.nonconverged": sum(c.nonconverged for c in checks) / n,
        "trace.overhead_s": sum(typical(traced, "op_wall")) - sum(typical(untraced, "op_wall")),
    }
    for path in ("quad1d", "qmc"):
        values[f"accuracy.max_abs_err.{path}"] = max(
            (c.abs_err for c in checks if c.path == path), default=0.0)
    out = {}
    for name, (unit, table, key) in layer_sources().items():
        value = values[name] if table is None else getattr(tracer, table).get(key, 0) / n
        out[name] = {"value": value, "unit": unit}
    return out


# -- main -----------------------------------------------------------------------------------


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    env = pin_environment()
    if not (ROOT / "src" / "postselect" / "__init__.py").is_file():
        print(f"postselect sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import workloads as W

    problems = W.setup(args.workload, args.seed)
    setup_own = time.perf_counter() - start
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_own}))
        return 0
    setup_samples = [setup_own]
    if not (args.smoke or args.trace):
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]

    import numpy
    import scipy

    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        ops = W.build(args.workload, problems, args.seed, W.load_refs(), args.smoke, tmpdir)
        begin = time.perf_counter()

        def repeat(until: float, tracer=None, min_evals: int = 0) -> list[Round]:
            """Rounds until another of average length would end ``until`` s after begin."""
            rounds, start = [], time.perf_counter()
            while True:
                rounds.append(run_round(ops, W, tracer))
                if args.smoke:
                    return rounds
                now = time.perf_counter()
                evals = sum(r.evals for r in rounds)
                if evals >= min_evals and now + (now - start) / len(rounds) > begin + until:
                    return rounds

        if args.trace:
            # untraced rounds for the first half of the run, traced ones after
            untraced = repeat(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                rounds = repeat(args.seconds, tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}.csv")
        else:
            rounds = repeat(args.seconds, min_evals=MIN_EVALS)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    every_round = rounds + untraced if args.trace else rounds
    attempted = sum(len(r.checks) for r in every_round)
    failed = sum(len(r.failures) for r in every_round)
    if args.trace:
        metrics = per_layer(tracer, rounds, untraced)
    else:
        metrics = end_to_end(ops, rounds, setup_samples, attempted, failed)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "rounds": len(rounds), "ops_per_round": len(ops),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": sorted({f for r in every_round for f in r.failures}),
        "setup_samples_s": setup_samples,
        "env": {**env, "python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
