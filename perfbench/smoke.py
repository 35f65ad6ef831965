"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it makes one untraced and one traced
run of `run.py --seconds 1 --tiny` and checks that:

- the last stdout line is a result whose checks all passed;
- every end-to-end (untraced) or per-layer (traced) metric named in
  BENCHMARK.json is printed, with its unit;
- in the written trace, each task's summed span self times are at most the
  task's wall time;
- the structural counts hold: the krige selected inverse is taken K^2 times
  per factor, and fit_cv runs no selected inversion and no minimax solve.

It also checks that run.py exits non-zero, printing no result, in a copy of
the benchmark that has no graphfield sources beside it.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import env
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT, WORK = env.ROOT, env.WORK
TIMEOUT = 170


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def _check_metrics(result, wanted):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, sorted(set(got) ^ {m["name"] for m in wanted})
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)


def _check_trace(workload, seed, metrics):
    with open(os.path.join(WORK, f"trace-{workload}-seed{seed}.json")) as f:
        trace = json.load(f)
    spans = trace["spans"]
    self_s = tracing.self_times(spans)
    for task in trace["tasks"]:
        if task["traced"] is False:
            continue
        total = sum(s for s, span in zip(self_s, spans) if span[4] == task["id"])
        assert 0 < total <= task["wall"], (workload, task, total)
    value = {k: v["value"] for k, v in metrics.items()}
    if workload == "krige":
        assert value["cholesky.selinv.per_factor"] == trace["properties"]["K"] ** 2, value
    if workload == "fit_cv":
        assert value["cholesky.selinv.calls"] == 0 and value["fractional.brasil.calls"] == 0
    if workload == "simulate":
        assert value["fractional.brasil.setup_s"] > 0, value


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seed = 1
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = _result(_run(["--workload", name, "--seed", str(seed), "--seconds", "1",
                                   "--trace", str(trace), "--tiny"]))
            _check_metrics(result, wanted)
            if trace:
                _check_trace(name, seed, result["metrics"])
            print(f"ok  {name} --trace {trace}: {result['attempted']} tasks")

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(["--workload", bench["workloads"][0]["name"], "--seed", str(seed),
                     "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  refuses to run without graphfield sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
