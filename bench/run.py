#!/usr/bin/env python3
"""Benchmark for treeindex.

    python3 bench/run.py --workload class-search --seed 1 --seconds 25 --trace 0

Runs one workload (class-search, enumerate or single-tree) in this single
process with jobs=1.  A pass performs the workload's fixed list of
operations once, starting from empty program caches as a command-line
user does; passes repeat until --seconds have been measured.  The results
of the first pass are checked independently (see checks.py) and every
later pass must repeat them exactly.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics: wall_s, the mean time of a pass, and items_per_s;
setup_s, the median of several fresh interpreters importing numpy and
treeindex and building the inputs; and peak_rss_mb.  Both times are
scaled to the reference speed of the host (see pace.py), because shared
hosts drift in speed by half and more within a run.  With --trace 1
untraced and traced passes alternate, and the object holds the per-layer
metrics of tracing.py, medians over the traced passes, plus
trace.overhead_s, the mean scaled traced pass time minus the mean scaled
untraced one.  The per-layer times are measured, not scaled, on a clock
that leaves out the probe's time.
Details go to BENCH_<workload>[_trace].json and the spans of the last
traced pass to BENCH_<workload>_spans.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
PROGRAM_MODULES = ("trees", "spectral", "transforms", "enumeration", "cli")
END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# One process, one thread: keep numpy's BLAS from starting worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_program() -> list:
    """Import treeindex and its modules from this checkout's src/, never
    from elsewhere; returns the modules."""
    if not (SRC / "treeindex" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'treeindex'} not found; run from a treeindex checkout")
    sys.path.insert(0, str(SRC))
    import importlib

    import treeindex

    if Path(treeindex.__file__).resolve().parent != SRC / "treeindex":
        raise SystemExit(f"error: imported treeindex from {treeindex.__file__}, not {SRC}")
    return [importlib.import_module(f"treeindex.{name}") for name in PROGRAM_MODULES]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole passes until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    p.add_argument("--jobs", type=int, default=1,
                   help="process-pool size for class-search (the benchmark itself uses 1)")
    p.add_argument("--out", default=str(ROOT), help="directory for the BENCH_*.json files")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> None:
    """Time a fresh interpreter's import of numpy and treeindex plus the
    generation of the workload's inputs; print the seconds, scaled to the
    reference speed with the interpreter-only probe (numpy is not loaded
    yet when the clock starts)."""
    with pace.Pace(pace.python_probe, pace.SETUP_REFERENCE_S,
                   pace.SETUP_INTERVAL_S) as sampler:
        t0 = perf_counter()
        import numpy  # noqa: F401

        import_program()
        workloads.build(args.workload, args.seed, args.tiny, args.jobs)
        wall = perf_counter() - t0
    print(repr(sampler.scaled(wall)))


def measure_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--jobs", str(args.jobs)] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def clear_caches(modules) -> None:
    """Empty every functools cache of the program, as in a fresh process."""
    for mod in modules:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_pass(modules, ops, tracer=None):
    """One pass over the operations; returns (measured seconds, scaled
    seconds, results), where a failed operation's result is its exception
    without traceback.  The tracer's spans use a clock that leaves out the
    probe's time."""
    clear_caches(modules)
    with pace.Pace() as sampler:
        if tracer is not None:
            tracer.clock = sampler.clock
            tracer.install()
        try:
            wall, results = _timed(ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
    return sampler.measured(wall), sampler.scaled(wall), results


def _timed(ops):
    results = []
    t0 = perf_counter()
    for op in ops:
        try:
            results.append(op.call())
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(exc.with_traceback(None))
    return perf_counter() - t0, results


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    modules = import_program()
    import numpy

    import checks
    import reference
    import tracing

    setup_s = measure_setup(args)
    counts = reference.load_counts()
    ops = workloads.build(args.workload, args.seed, args.tiny, args.jobs)

    walls, measured_walls, traced_walls, layer_runs = [], [], [], []
    first, first_digests, mismatched = None, None, []
    tracer = None
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(traced_walls) < len(walls)
        if traced:
            tracer = tracing.Tracer()
        measured, scaled, results = run_pass(modules, ops, tracer if traced else None)
        if traced:
            traced_walls.append(scaled)
            layer_runs.append(tracer.metrics())
        else:
            measured_walls.append(measured)
            walls.append(scaled)
        digests = [checks.digest(op, r) for op, r in zip(ops, results)]
        if first is None:
            first, first_digests = results, digests
        else:
            mismatched += [op.label for op, a, b in zip(ops, first_digests, digests) if a != b]
        # Only the first pass's results stay alive into the next pass, so the
        # peak memory does not depend on how many passes fit in the run.
        del results
        done = perf_counter() - start >= args.seconds
        if done and (not args.trace or traced_walls):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors, failed_ops, items = [], [], 0
    for op, result in zip(ops, first):
        if isinstance(result, Exception):
            failed_ops.append(f"{op.label}: {type(result).__name__}")
            continue
        try:
            checks.check(op, result, counts)
        except Exception as exc:  # any exception here means a wrong answer
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        items += checks.items(op, result)
    errors += [f"{label}: result changed between passes" for label in sorted(set(mismatched))]
    passes = len(walls) + len(traced_walls)

    if args.trace:
        layer = {name: statistics.median(run[name] for run in layer_runs)
                 for name in layer_runs[0]}
        layer["trace.overhead_s"] = statistics.mean(traced_walls) - statistics.mean(walls)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
        tracer.write(Path(args.out) / f"BENCH_{args.workload}_spans.json")
    else:
        values = {
            "wall_s": statistics.mean(walls),
            "items_per_s": items / statistics.mean(walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    summary = {
        "correct": not errors,
        "attempted": passes * len(ops),
        "failed": passes * len(failed_ops),
        "metrics": metrics,
    }
    details = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   tiny=args.tiny, jobs=args.jobs, pass_walls=walls,
                   measured_pass_walls=measured_walls, traced_walls=traced_walls,
                   items_per_pass=items, failed_ops=failed_ops, errors=errors,
                   environment={"python": platform.python_version(),
                                "numpy": numpy.__version__,
                                "cpus": os.cpu_count(),
                                "machine": platform.machine()})
    label = args.workload + ("_trace" if args.trace else "")
    with open(Path(args.out) / f"BENCH_{label}.json", "w") as handle:
        json.dump(details, handle, indent=1)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
