"""kenergy benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload energy-eval --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory.  Each pass of the workload runs in a worker process
(bench/worker.py) with OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to 1.
A run repeats a fixed list of operations ``round(seconds / nominal round
time)`` times (at least once); it is not cut by a clock, so every run on
every machine performs the same operations.

--trace 0 reports the end-to-end metrics: setup_s is the median over three
fresh worker processes of the time from process start to the first timed
operation.  --trace 1 runs the workload once untraced and once traced and
reports the per-layer metrics of the traced pass, with trace.overhead_s the
difference of their timed wall times.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402  (numpy only; no kenergy import here)


class BenchError(Exception):
    pass


def _spawn(args, deadline, env):
    """Run one worker to completion; returns (spawn time, parsed result)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "kenergy" / "__init__.py").is_file():
        print(f"no kenergy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / cls.nominal_round_s))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"

    def worker(mode, *extra):
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--rounds", str(rounds), "--mode", mode, "--workdir", str(workdir), *extra]
        try:
            return _spawn(argv, deadline, env)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    try:
        if args.trace:
            untraced_mode = "inproc" if args.workload == "cli-exact" else "run"
            _, plain = worker(untraced_mode)
            trace_file = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
            _, traced = worker("trace", "--trace-file", str(trace_file))
            metrics = traced["layers"]
            metrics["trace.overhead_s"]["value"] = traced["timed_s"] - plain["timed_s"]
            runs = (plain, traced)
        else:
            setups = []
            for _ in range(SETUP_REPEATS - 1):
                spawned, res = worker("setup")
                setups.append(res["setup_end"] - spawned)
            spawned, main_run = worker("run")
            setups.append(main_run["setup_end"] - spawned)
            returned = main_run["returned"]
            if not main_run["anchors"]:
                raise BenchError("no anchor operation returned a value")
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "ops_per_s": {"value": returned / main_run["timed_s"], "unit": "1/s"},
                "latency_mean_s": {"value": main_run["latency_mean_s"], "unit": "s"},
                "cpu_s_per_op": {"value": main_run["cpu_s"] / returned, "unit": "s"},
                "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
            }
            runs = (main_run,)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    last = runs[-1]
    for run in runs:
        for message in run["failures"]:
            print(f"check failed: {message}", file=sys.stderr)
        print(f"{args.workload}: attempted {run['attempted']}, failed {run['failed']} "
              f"(kept faults {run['kept_faults']}), timed {run['timed_s']:.2f} s",
              file=sys.stderr)
    correct = all(not run["failures"] for run in runs) and all(
        (run["attempted"], run["failed"]) == (last["attempted"], last["failed"]) for run in runs)
    print(json.dumps({"correct": correct, "attempted": last["attempted"],
                      "failed": last["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
