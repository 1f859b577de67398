#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one build.

Run from the root of a checkout:

    python3 aimbench/steady.py --runs 10 [--workloads mixed,analytics]

Set A uses seeds 1..N and set B seeds 1001..1000+N; runs alternate A, B
per workload. For every end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles (statistics.quantiles, n=4) and checks what the
bounds promise:
  * spread: (q3 - q1) / median of each set stays within the metric's bound,
    and is flagged when above a third of it;
  * drift: set B's median is not worse than set A's by more than the bound;
  * failures: the share of failed operations is identical in both sets.
Raw results go to .bench_out/steady.json. Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["wall_s"] = time.monotonic() - t0
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for s, seed in (("A", i + 1), ("B", 1001 + i)):
                r = run_once(w, seed, seconds)
                results[w][s].append(r)
                print("%-10s set %s seed %-5d exit %d correct %s failed %d/%d"
                      " (%.0f s)" % (w, s, seed, r["exit"], r["correct"],
                                     r["failed"], r["attempted"],
                                     r["wall_s"]), flush=True)
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "steady.json"), "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    for w in workloads:
        print("\n## %s (%d runs per set, %g s)\n" % (w, args.runs, seconds))
        print("| metric | set A median [q1, q3] | spread A | set B median "
              "[q1, q3] | spread B | B vs A | bound | verdict |")
        print("|---|---|---|---|---|---|---|---|")
        shares = set()
        for s in ("A", "B"):
            runs = results[w][s]
            if any(not r["correct"] or r["exit"] != 0 for r in runs):
                ok = False
                print("set %s has an incorrect run" % s)
            shares.add(sum(r["failed"] for r in runs) /
                       sum(r["attempted"] for r in runs))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3 = quartiles(vals)
                stats[s] = (med, q1, q3, (q3 - q1) / med if med else 0.0)
            ma, mb = stats["A"][0], stats["B"][0]
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "ok"
            spread = max(stats["A"][3], stats["B"][3])
            if spread > bound:
                verdict = "SPREAD"
            elif worse > bound:
                verdict = "DRIFT"
            elif spread > bound / 3:
                verdict = "ok (spread > bound/3)"
            if verdict in ("SPREAD", "DRIFT"):
                ok = False
            print("| %s | %.4g [%.4g, %.4g] | %.3f | %.4g [%.4g, %.4g] | "
                  "%.3f | %+.3f | %s | %s |" % (
                      name, stats["A"][0], stats["A"][1], stats["A"][2],
                      stats["A"][3], stats["B"][0], stats["B"][1],
                      stats["B"][2], stats["B"][3], change,
                      bound, verdict))
        if len(shares) != 1:
            ok = False
            print("failed-operation shares differ between sets: %s" % shares)
    print("\nsteady: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
