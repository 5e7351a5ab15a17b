"""One pass of one workload in a process of its own; prints one JSON line.

Started by run.py, never by hand.  Modes:
  setup   import and set up, then report the time set-up ended
  run     set up, time the operations, check them (the untraced run)
  inproc  as run; cli-exact calls kenergy.cli.main in this process
  trace   as inproc, with every layer's public functions wrapped by spans
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from types import SimpleNamespace

# Imported first and timed: this is what every kenergy process pays.
_start = time.perf_counter()
import kenergy.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

from kenergy import asymptotics, catalog, energy, numeric, pairing  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _cpu(children):
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "inproc", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    K = SimpleNamespace(C=catalog, E=energy, P=pairing, N=numeric, A=asymptotics,
                        cli=kenergy.cli)
    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliExact:
        work = cls(args.seed, args.rounds, args.workdir, in_process=args.mode != "run")
    else:
        work = cls(args.seed, args.rounds)
    work.setup(K)
    setup_end = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0

    children = cls is workloads.CliExact and args.mode == "run"
    cpu0, _ = _cpu(children)
    wall0 = time.perf_counter()
    ops = work.run()
    timed_s = time.perf_counter() - wall0
    cpu1, peak_rss_mb = _cpu(children)
    if tracer is not None:
        tracer.enabled = False
    work.check(K)

    returned = [op for op in ops if op.seconds is not None]
    anchors = [op.seconds for op in returned if op.anchor]
    faults = {}
    for op in ops:
        if op.fault is not None and op.failed:
            faults[op.fault] = faults.get(op.fault, 0) + 1
    result = {
        "setup_end": setup_end,
        "import_s": IMPORT_S,
        "timed_s": timed_s,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "returned": len(returned),
        "kept_faults": faults,
        "anchors": len(anchors),
        "latency_mean_s": statistics.fmean(anchors) if anchors else None,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "failures": work.failures,
    }
    if tracer is not None:
        result["layers"] = spans.aggregate(tracer.spans, IMPORT_S, 0.0)
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                           "rounds": args.rounds})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
