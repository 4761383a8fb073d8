"""One benchmark process: set up a workload, run one batch, report.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

``run.py`` starts one of these per batch, one at a time, so that every
batch meets cgd with empty process-level caches, as one CLI call does.
The last line of standard output is a JSON object with the batch's
timings, checks, CPU time and peak memory; ``ready_at`` is the wall
clock when set-up ended, from which the parent takes the set-up time.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the checkout's own sources, ahead of any installed cgd
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)

SPANS_DIR = ROOT / ".perfbench"
BENCH_SPANS = ("bench.run", "bench.setup", "bench.batch")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    rec = workloads.Recorder()
    out = {}

    def whole(setup, run):
        t0 = time.perf_counter()
        inputs = setup(args.seed)
        out["ready_at"] = time.time()
        out["setup_inproc_s"] = time.perf_counter() - t0
        if not args.setup_only:
            t1 = time.perf_counter()
            run(inputs, rec)
            out["batch_s"] = time.perf_counter() - t1

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            tracer.span("bench.run", whole)(tracer.span("bench.setup", wl.setup),
                                            tracer.span("bench.batch", wl.run))
        out["trace"] = trace_report(tracer, wl.name, args.seed)
    else:
        whole(wl.setup, wl.run)
    out.update(op=wl.op, work_unit=wl.work_unit, latencies=rec.latencies, work=rec.work,
               attempted=rec.attempted, failed=rec.failed, failures=rec.failures,
               cpu_s=time.process_time(), peak_rss_mb=peak_rss_mb())
    print(json.dumps(out), flush=True)


def trace_report(tracer, workload, seed):
    _, _, _, t0, t1 = tracer.spans[-1]  # bench.run closes last
    root_s = t1 - t0
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(path)
    return {
        "metrics": tracer.metrics(),
        "root_s": root_s,
        # the share of the root span outside every traced cgd call: the
        # benchmark's own code and the cgd functions that are not traced
        "bench_self_frac": sum(tracer.stats[n][1] for n in BENCH_SPANS) / root_s,
        "spans": len(tracer.spans),
        "wrappers_left": tracer.leftovers(),
        "spans_file": str(path.relative_to(ROOT)),
    }


if __name__ == "__main__":
    main()
