"""hermgrid benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload sinmix_eval --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, own processes
    python3 perfbench/run.py --smoke             # every workload, one op pair each

A workload run makes its inputs from the seed, then runs operations
until their summed time reaches --seconds, checking every operation's
outputs.  Set-up runs in bursts, before the first operation and again
whenever the operations since the last burst took SETUP_SPACING times
as long as it; `setup_s` is the median of all set-ups.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics; --trace 1 runs
a traced set-up, then pairs of the same operation untraced and traced,
and reports the per-layer metrics of the traced part and the tracing
overhead (median traced/untraced ratio of the pairs, minus 1).  Each
run also writes a result file under perfbench/out/.

The package is imported from src/ of the checkout this file sits in,
and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# fixed before numpy loads its BLAS; recorded in every result file
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TRACE_OPS = 3  # untraced/traced operation pairs in a traced run
# The host's speed drifts by tens of percent over seconds, so set-ups
# are repeated in bursts spread through the timed phase, not all at its
# start: their median then samples the same drift as the operations.  A
# burst runs once the operations since the last one took this many times
# as long as that burst (so cheap set-ups run before every operation).
SETUP_SPACING = 3.0
CHILD_TIMEOUT = 175


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(names) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one set-up and one operation per phase")
    return p.parse_args(argv)


def import_package():
    """hermgrid from this checkout's src/; exit with an error otherwise."""
    if not (SRC / "hermgrid" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hermgrid'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hermgrid

    if Path(hermgrid.__file__).resolve().parent != SRC / "hermgrid":
        sys.exit(f"error: hermgrid imported from {hermgrid.__file__}, not {SRC}")


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run_all(args, names):
    """Each workload in its own process; exit 1 unless all are correct."""
    results, ok = {}, True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        good = bool(res and res["correct"] and res["failed"] == 0)
        ok &= good
        results[name] = res
        print(f"{name}: {'ok' if good else 'FAILED'} {lines[-1] if lines else ''}")
        if not good:
            sys.stderr.write(proc.stderr)
    print(json.dumps(results))
    return 0 if ok else 1


def run_op(wl, i, tracer=None):
    """One timed operation, then its check.  Returns (seconds, ok)."""
    gc.collect()
    root = tracer.span("bench.op") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with root:
            out = wl.op(i)
    except Exception:
        bad = [traceback.format_exc()]
    else:
        bad = None
    dt = time.perf_counter() - t0
    if bad is None:
        try:
            bad = wl.check(out)
        except Exception:
            bad = [traceback.format_exc()]
    if bad:
        print(f"operation {i} failed: " + "; ".join(bad), file=sys.stderr)
    return dt, not bad


def run_traced(wl, n):
    """A traced set-up, then n pairs of the same operation, untraced and
    traced.  Returns (tracer, untraced times, traced times, failures)."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            wl.setup()
    finally:
        tracer.uninstall()
    plain, traced, failed = [], [], 0
    for i in range(n):
        dt, ok = run_op(wl, i)
        plain.append(dt)
        failed += not ok
        tracer.install()
        try:
            dt, ok = run_op(wl, i, tracer)
        finally:
            tracer.uninstall()
        traced.append(dt)
        failed += not ok
    return tracer, plain, traced, failed


def run_workload(args, workloads):
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    record = {"args": vars(args), "machine": machine()}
    try:
        wl = workloads[args.workload](args.seed, str(workdir))
        setup_times = []

        def setup_burst():
            reps = 1 if args.smoke else wl.setup_reps
            for _ in range(reps):
                gc.collect()
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
            return sum(setup_times[-reps:])

        burst = setup_burst()
        problems = wl.check_setup()
        if args.trace:
            tracer, times, traced, failed = run_traced(
                wl, 1 if args.smoke else TRACE_OPS)
            problems += wl.check_setup()
            overhead = statistics.median(
                t / p for t, p in zip(traced, times)) - 1
            metrics = tracer.metrics(overhead)
            spans = OUT / f"{args.workload}-s{args.seed}-spans.json"
            tracer.dump(spans)
            record.update(traced_op_s=traced, spans=spans.name)
            attempted = 2 * len(times)
        else:
            times, failed, since_setup = [], 0, 0.0
            while not times or sum(times) < args.seconds:
                if since_setup >= SETUP_SPACING * burst:
                    burst = setup_burst()
                    since_setup = 0.0
                dt, ok = run_op(wl, len(times))
                times.append(dt)
                failed += not ok
                since_setup += dt
            problems += wl.check_setup()
            attempted = len(times)
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "op_s_p50": {"value": statistics.median(times), "unit": "s"},
                "ops_per_s": {"value": (len(times) - failed) / sum(times),
                              "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"set-up check failed: {p}", file=sys.stderr)
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result=result, setup_s=setup_times, op_s=times,
                  measured=wl.measured, problems=problems)
    out = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None):
    import_package()
    from workloads import WORKLOADS

    args = parse_args(sys.argv[1:] if argv is None else argv, WORKLOADS)
    if args.smoke:
        args.seconds, args.trace = 0.0, 1
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    return run_workload(args, WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
