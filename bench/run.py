"""Benchmark of dicirculant, run from the root of a checkout:

    python3 bench/run.py --workload survey --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

--workload is survey, spec-eval, ds-search, or all (each workload in its
own process, one after another).  --trace 0 reports the end-to-end
metrics; --trace 1 the per-layer ones, from spans recorded around calls
into the package and written to .bench_out/.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

The package is imported from src/ of the same checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import refspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("survey", "spec-eval", "ds-search")
# Fresh processes timed per run for setup_s: one import varies by more
# than a tenth between processes.
SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="build the workload's inputs, print 'ready' and exit "
                             "(used to time setup_s)")
    return parser.parse_args(argv)


def load_workloads():
    """The workloads module, with dicirculant imported from this checkout."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dicirculant
    if Path(dicirculant.__file__).resolve().parent != SRC / "dicirculant":
        raise ImportError(f"dicirculant imported from {dicirculant.__file__}")
    import workloads
    return workloads


def time_setup(args):
    """Median, over SETUP_SAMPLES fresh processes, of the time from process
    start until the workload's inputs are built, less the speed samples
    each process took meanwhile and scaled by them (see probe_setup)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            report = proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        factor, stolen_s = map(float, report.split())
        samples.append((ready - start - stolen_s) * factor)
    return statistics.median(samples)


def probe_setup(args):
    """Import the package and build the workload's inputs under a speed
    sampler, print 'ready', then the scale factor and the seconds the
    samples took."""
    with refspeed.Timer() as timer, timer.op():
        load_workloads().WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    print(timer.factor, timer.stolen_s)
    return 0


def run_pass(work, index, on_sample=None):
    gc.collect()
    with refspeed.Timer(on_sample) as timer:
        work.run_pass(index, timer)
    return timer


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, mod):
    setup_s = time_setup(args)
    work = mod.WORKLOADS[args.workload](args.seed)
    work.prepare()
    ops = len(run_pass(work, 0).times)  # warm-up
    pass_times, op_times = [], []
    start = perf_counter()
    index = 1
    while not pass_times or perf_counter() - start < args.seconds:
        times = run_pass(work, index).times
        pass_times.append(sum(times))
        op_times += times
        index += 1
    ops += len(op_times)
    work.finish()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write(f"{args.workload}: {len(pass_times)} timed passes, "
                     f"{len(op_times)} timed operations{tail_note(op_times)}\n")
    return work, ops, {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(pass_times), "s"),
        "op_p50_ms": metric(statistics.median(op_times) * 1e3, "ms"),
        "peak_rss_mb": metric(rss_kib / 1024, "MB"),
    }


def tail_note(samples):
    """The highest of p99/p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[q - 1]
            return f"; op p{q} {value * 1e3:.3f} ms"
    return ""


def per_layer(args, mod):
    from tracer import LAYER_NAMES, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with refspeed.Timer(tracer.exclude) as setup_timer, setup_timer.op():
            work = mod.WORKLOADS[args.workload](args.seed)
    finally:
        tracer.uninstall()
    setup_calls, setup_ns = tracer.snapshot()
    work.prepare()
    ops = len(run_pass(work, 0).times)  # warm-up
    plain, traced, deltas = [], [], []
    start = perf_counter()
    index = 1
    # Untraced and traced passes alternate, so drift hits both alike.
    while not traced or perf_counter() - start < args.seconds:
        if index % 2:
            timer = run_pass(work, index)
            plain.append(sum(timer.times))
        else:
            before_calls, before_ns = tracer.snapshot()
            tracer.pass_index = index
            tracer.install()
            try:
                timer = run_pass(work, index, tracer.exclude)
            finally:
                tracer.uninstall()
            traced.append(sum(timer.times))
            calls, self_ns = tracer.snapshot()
            deltas.append((calls - before_calls, self_ns - before_ns, timer.factor))
        ops += len(timer.times)
        index += 1
    work.finish()
    if any(calls != deltas[0][0] for calls, _, _ in deltas):
        work.problems.append("per-pass call counts differ between traced passes")
    pass_calls = deltas[0][0]
    metrics = {}
    for name in LAYER_NAMES:
        pass_self = statistics.median(ns[name] * factor for _, ns, factor in deltas)
        metrics[f"{name}.calls"] = metric(setup_calls[name] + pass_calls[name], "count")
        metrics[f"{name}.self_s"] = metric(
            (setup_ns[name] * setup_timer.factor + pass_self) / 1e9, "s")
    validated = pass_calls["cayley.validate_spec"]
    evaluated = pass_calls["search.evaluate_spec"]
    canonical = getattr(work, "canonical_per_pass", 0)
    metrics["search.canonical_yield"] = metric(
        canonical / validated if validated else 0.0, "ratio")
    metrics["cayley.build_graph.per_spec"] = metric(
        pass_calls["cayley.build_graph"] / evaluated if evaluated else 0.0, "ratio")
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced) - statistics.median(plain), "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
    tracer.write(path)
    sys.stderr.write(f"{args.workload}: {len(traced)} traced and {len(plain)} "
                     f"untraced passes; {len(tracer.spans)} spans in {path}\n")
    return work, ops, metrics


def run_all(args):
    """Each workload in its own process; a table on stderr, and one JSON
    line whose metrics are named <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(f"{name}: exit code {proc.returncode}\n")
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        sys.stderr.write(f"{name}: correct={result['correct']} "
                         f"attempted={result['attempted']} failed={result['failed']}\n")
        for key, value in result["metrics"].items():
            sys.stderr.write(f"  {key:40s} {value['value']:>14.6g} {value['unit']}\n")
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dicirculant" / "__init__.py").is_file():
        sys.stderr.write(f"error: no dicirculant package under {SRC}\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        return probe_setup(args)
    mod = load_workloads()
    work, ops, metrics = (per_layer if args.trace else end_to_end)(args, mod)
    for problem in work.problems[:20]:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({"correct": not work.problems, "attempted": ops,
                      "failed": work.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
