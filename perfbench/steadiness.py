"""A/A steadiness: quartiles of a set of runs, and two sets of one commit compared.

    python3 perfbench/steadiness.py run --out A.json [--seeds 1-10] [--workloads W,...]
    python3 perfbench/steadiness.py report A.json
    python3 perfbench/steadiness.py compare A.json B.json

``run`` calls run.py once per workload and seed, one run at a time, for
BENCHMARK.json's ``run_seconds``, and saves every result.  ``report``
prints, per workload and end-to-end metric, the quartiles of the set
and their spread, the distance between the first and third quartile as
a share of the median, next to the metric's bound in BENCHMARK.json.
``compare`` applies the rule for
claiming a difference between two sets: B wins at least nine tenths of
the pairs (ties count for neither) and the medians differ by more than
A's spread; and it checks that B's median is not worse than A's by more
than the bound.  Two sets of one commit should show no difference.
It refuses to compare a workload whose two sides read ``op_ms_tail`` at
different percentiles.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(args):
    bench, _ = spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in names}
    for w in names:
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["seed"] = seed
            res["record"] = json.loads(lines[-2])["record"]
            results[w].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{w} seed={seed} correct={res['correct']} {vals}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1)
    report(results)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def report(results):
    _, metrics = spec()
    print(f"{'workload':16} {'metric':12} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  steady")
    for w, runs in results.items():
        bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
        for name, m in metrics.items():
            q1, q2, q3 = quartiles(values(runs, name))
            spread = (q3 - q1) / q2
            verdict = "yes" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "NO")
            print(f"{w:16} {name:12} {len(runs):3} {q1:11.5g} {q2:11.5g} {q3:11.5g} "
                  f"{spread:7.3f} {m['bound']:6.2f}  {verdict}")
        if bad:
            print(f"{w:16} failed checks on seeds {bad}")


def compare(a, b):
    _, metrics = spec()
    ok = True
    print(f"{'workload':16} {'metric':12} {'median A':>11} {'median B':>11} {'worse':>7} "
          f"{'bound':>6} {'B wins':>7}  verdict")
    for w in a:
        pa, pb = tail_percentiles(a[w]), tail_percentiles(b[w])
        if pa != pb:
            print(f"{w:16} op_ms_tail reads percentiles {pa} in A and {pb} in B: not compared")
            ok = False
            continue
        for name, m in metrics.items():
            va, vb = values(a[w], name), values(b[w], name)
            ma, mb = statistics.median(va), statistics.median(vb)
            q1, _, q3 = quartiles(va)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            wins = sum(sign * (y - x) < 0 for x, y in zip(va, vb))
            pairs = min(len(va), len(vb))
            if wins >= 0.9 * pairs and abs(mb - ma) > q3 - q1:
                verdict = "B better"
            elif worse > m["bound"]:
                verdict = "B WORSE beyond bound"
                ok = False
            else:
                verdict = "same within bound"
            print(f"{w:16} {name:12} {ma:11.5g} {mb:11.5g} {worse:7.3f} {m['bound']:6.2f} "
                  f"{wins:3}/{pairs:<3}  {verdict}")
    return ok


def tail_percentiles(runs):
    return sorted({r["record"]["op_tail_percentile"] for r in runs})


def load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="")
    sub.add_parser("report").add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run_set(args)
    elif args.cmd == "report":
        report(load(args.file))
    else:
        return 0 if compare(load(args.a), load(args.b)) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
