"""graphfield benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload {simulate,krige,fit_cv} --seed N \
        --seconds S --trace {0,1} [--tiny]

One client (this process) issues tasks back to back for S seconds; a task
is the sequence of `graphfield` CLI commands of one request, run in-process
through `graphfield.cli.main` on inputs that gen.py makes from the seed.
Every task's outputs are checked after the timed loop.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 runs each task untraced
and then traced, then one more task whose factorizations and selected
inversions are measured under tracemalloc (the memory pass), and reports
the per-layer metrics of tracing.py.  The spans are written to
perfbench/.work/trace-<workload>-seed<N>.json.  Only own-process timers are
used (perf_counter, getrusage, tracemalloc); BLAS/OpenMP run one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import env
import tracing
import workloads
from gen import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT = 60
# The set-up time is the median of this many fresh processes (this one and
# SETUP_SAMPLES - 1 probes), each importing graphfield and setting up anew.
SETUP_SAMPLES = 3


def _child(script, *args):
    """Run a benchmark script in a fresh interpreter; return its last stdout line."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), *map(str, args)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(args) -> dict:
    workdir = os.path.join(env.WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> dict:
    # Inputs for up to four tasks a second; a faster program cycles through
    # them again, which nothing in graphfield caches across CLI calls.
    pool = max(8, 4 * args.seconds)
    gen_args = ["--workload", args.workload, "--seed", args.seed, "--out", workdir,
                "--tasks", pool] + (["--tiny"] if args.tiny else [])
    _child("gen.py", *gen_args)
    desc_path = os.path.join(workdir, "inputs.json")
    with open(desc_path) as f:
        desc = json.load(f)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        import graphfield.cli  # noqa: F401  (the wrappers need the modules loaded)
        with tracer.task("setup"):
            workloads.timed_setup(desc)
        setup = []
    else:
        setup = [workloads.timed_setup(desc)]

    # -- timed closed loop -------------------------------------------------------
    # A traced run runs every task twice, untraced and then traced, so that
    # the tracing overhead is a ratio of walls on the same input.
    records = []   # [task index, output dir, wall seconds, traced, error]
    modes = (False, True) if tracer else (False,)
    loop_start = time.perf_counter()
    i = 0
    while time.perf_counter() - loop_start < args.seconds:
        for traced in modes:
            out = os.path.join(workdir, "out", str(len(records)))
            records.append(_attempt(desc, i, out, tracer.task(i) if traced else None, traced))
        i += 1
    loop_wall = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    memory_ids = []
    if tracer:
        tracer.memory = True
        out = os.path.join(workdir, "out", str(len(records)))
        records.append(_attempt(desc, i, out, tracer.task(f"mem{i}"), None))
        memory_ids.append(f"mem{i}")

    # -- correctness checks, outside the timed region ----------------------------
    checker = workloads.Checker(desc)
    first = True
    for rec in records:
        if rec[4] is None:
            try:
                checker.check(rec[0], rec[1], first)
                first = False
            except Exception as err:
                rec[4] = f"check: {type(err).__name__}: {err}"
        if rec[4] is not None:
            _log(f"task {rec[0]} failed: {rec[4]}")
    failed = sum(rec[4] is not None for rec in records)

    walls = [rec[2] for rec in records if rec[3] is not None]
    props = desc["properties"]
    _log(f"{args.workload} seed {args.seed}: {props}; {len(walls)} task walls (s): "
         + " ".join(f"{w:.3f}" for w in walls))
    _log(f"environment: {env.describe()}")

    if tracer:
        traced = [rec for rec in records if rec[3]]
        untraced = [rec for rec in records if rec[3] is False]
        overhead = statistics.median(t[2] / u[2] for u, t in zip(untraced, traced))
        metrics = tracing.layer_metrics(tracer.spans, [r[2] for r in traced], overhead,
                                        [r[0] for r in traced], memory_ids)
        _log("layer self time, median per traced task (share of the traced task wall):")
        for name, s, share in tracing.shares(tracer.spans, [r[0] for r in traced],
                                             [r[2] for r in traced])[:14]:
            _log(f"  {name:34s} {s:9.4f} s  {100 * share:5.1f} %")
        _write_trace(args, desc, records, tracer.spans)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(float(_child("setup_probe.py", desc_path)))
        _log(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setup)}; "
             f"{len(walls)} task samples")
        metrics = {
            "task_s.p50": {"value": statistics.median(walls), "unit": "s"},
            "tasks_per_s": {"value": len(walls) / loop_wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def _attempt(desc, i, out, scope, traced):
    """Run task i once inside `scope`, writing into `out`; return its record."""
    os.makedirs(out)
    error = None
    t0 = time.perf_counter()
    try:
        with scope or contextlib.nullcontext():
            workloads.run_task(desc, i, out)
    except Exception as err:  # a failed task is counted, not fatal
        error = f"{type(err).__name__}: {err}"
    return [i, out, time.perf_counter() - t0, traced, error]


def _write_trace(args, desc, records, spans):
    path = os.path.join(env.WORK, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({
            "workload": args.workload, "seed": args.seed, "env": env.describe(),
            "properties": desc["properties"], "size": desc["size"],
            "tasks": [{"id": r[0] if r[3] is not None else f"mem{r[0]}", "wall": r[2],
                       "traced": r[3], "error": r[4]} for r in records],
            "span_fields": ["name", "start", "end", "parent", "task", "counters"],
            "spans": spans,
        }, f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        env.pin()
        result = run(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
