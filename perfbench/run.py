"""Run one benchmark workload on cgd and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; cgd is imported from its ``src``.
Every batch runs in a fresh worker interpreter, one at a time.

--trace 0  measures end-to-end metrics: a fixed number of batches runs
           first, then more while less than ``--seconds`` have passed;
           then set-up-only workers add set-up times.
--trace 1  measures per-layer metrics on one fixed batch (``--seconds`` is
           not used): three times, the batch runs once untraced and once
           traced, and the CPU times of each pair give the tracing overhead.

Standard output ends with a record line (environment, seed and the
workload's detail) and then one JSON line: correct, attempted, failed
and metrics.  Workloads are documented in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The keys of workloads.WORKLOADS, listed here because the parent never
# imports cgd, each with (tail batches, tail percentile).  A run always makes
# at least the tail batches, and op_ms_tail is that nearest-rank percentile
# of their samples only.  So every commit reads its tail from the same
# samples; the batches a faster commit adds to fill --seconds feed only
# op_ms_p50 and work_per_s.
WORKLOADS = {
    "orbit-grid": (3, 100),        # the slowest of 3 orbits
    "simulate-random": (3, 75),    # p75 of 60 graph checks
    "machine-build": (3, 99),      # p99 of about 19,000 machine steps
    "validate": (2, 100),          # the slower of 2 rule sets
}
# Set-up-only workers run until there are MIN_SETUPS set-up times and they
# have taken SETUP_ONLY_S, up to MAX_SETUPS times: cheap set-ups get more
# samples for their median.
MIN_SETUPS = 5
SETUP_ONLY_S = 2.0
MAX_SETUPS = 15
TRACE_PAIRS = 3
RUN_LIMIT_S = 170          # a run must end within 180 s


class RunFailed(Exception):
    pass


def spawn(workload, seed, *flags, deadline):
    """Run one worker to completion and return its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    # fixed string hashing: set iteration order, and with it the work done,
    # repeats from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"worker {' '.join(flags)} ran past the run's time limit")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{err.strip()}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - started
    return report


def percentile(samples, p):
    """The nearest-rank ``p``-th percentile; 100 is the maximum."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(p / 100 * len(xs))) - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_state():
    """(commit, dirty) of the checkout, or (None, None) outside a git tree."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def environment(seed):
    commit, dirty = git_state()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc,
            "platform": platform.platform(), "cpu_model": cpu_model(),
            "git_commit": commit, "git_dirty": dirty, "seed": seed}


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics from the tail batches and then ``seconds``."""
    tail_batches, tail_pct = WORKLOADS[workload]
    batches = []
    t0 = time.monotonic()
    while len(batches) < tail_batches or time.monotonic() - t0 < seconds:
        batches.append(spawn(workload, seed, deadline=deadline))
    setups = [b["setup_s"] for b in batches]
    t1 = time.monotonic()
    while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and time.monotonic() - t1 < SETUP_ONLY_S):
        setups.append(spawn(workload, seed, "--setup-only", deadline=deadline)["setup_s"])
    latencies = [s for b in batches for s in b["latencies"]]
    tail_samples = [s for b in batches[:tail_batches] for s in b["latencies"]]
    work = sum(b["work"] for b in batches)
    if not tail_samples or not work:
        failures = [f for b in batches for f in b["failures"]][:5]
        raise RunFailed(f"no operation passed its checks, nothing to time: {failures}")
    work_per_s = work / sum(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_tail": (percentile(tail_samples, tail_pct) * 1e3, "ms"),
        "work_per_s": (work_per_s, "1/s"),
        "peak_rss_mb": (max(b["peak_rss_mb"] for b in batches), "MiB"),
    }
    unit = batches[0]["work_unit"]
    detail = {"batches": len(batches), "setup_samples": setups,
              "op": batches[0]["op"], "op_samples": len(latencies),
              "op_tail_percentile": tail_pct, "op_tail_batches": tail_batches,
              "op_tail_samples": len(tail_samples), "work": work, "work_unit": unit,
              f"{unit}_per_s": work_per_s}
    if workload == "validate":
        detail["validate_s"] = statistics.median(latencies)
    return batches, metrics, detail


def measure_traced(workload, seed, deadline):
    """Per-layer metrics of one traced batch, and the tracing overhead.

    The batch runs TRACE_PAIRS times untraced and traced, in turn.  The
    per-layer metrics are those of the first traced batch; every traced
    batch must repeat its call counts.  The overhead is the median over
    the pairs of traced CPU time / untraced CPU time - 1, each the
    worker's whole CPU time; the record keeps every pair's value.
    """
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(spawn(workload, seed, deadline=deadline))
        traced.append(spawn(workload, seed, "--trace", deadline=deadline))
    trs = [t["trace"] for t in traced]
    calls = [{k: v for k, (v, _) in tr["metrics"].items() if k.endswith(".calls")}
             for tr in trs]
    overheads = [t["cpu_s"] / p["cpu_s"] - 1 for p, t in zip(plain, traced)]
    metrics = {name: tuple(v) for name, v in trs[0]["metrics"].items()}
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    metrics["trace.root_s"] = (statistics.median(tr["root_s"] for tr in trs), "s")
    detail = {"pairs": TRACE_PAIRS, "overhead_fracs": overheads,
              "untraced_cpu_s": [p["cpu_s"] for p in plain],
              "traced_cpu_s": [t["cpu_s"] for t in traced],
              "calls_repeat": all(c == calls[0] for c in calls),
              "bench_self_frac": trs[0]["bench_self_frac"],
              "spans": trs[0]["spans"], "spans_file": trs[0]["spans_file"],
              "wrappers_left": sum(tr["wrappers_left"] for tr in trs)}
    return plain + traced, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one cgd benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cgd" / "__init__.py").is_file():
        print(f"run.py: no cgd sources under {ROOT / 'src'}; run from a cgd checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), "loadavg_before": os.getloadavg()}
    try:
        if args.trace:
            reports, metrics, detail = measure_traced(args.workload, args.seed, deadline)
        else:
            reports, metrics, detail = measure(args.workload, args.seed, args.seconds,
                                               deadline)
    except RunFailed as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    record.update(detail, loadavg_after=os.getloadavg(), failed_frac=failed / attempted,
                  failures=[f for r in reports for f in r["failures"]][:5])
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": (failed == 0 and detail.get("wrappers_left", 0) == 0
                    and detail.get("calls_repeat", True)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
