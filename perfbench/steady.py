#!/usr/bin/env python3
"""Steadiness check: run every workload k times and judge the spread.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seconds S]
                                [--seed-base 1]
                                [--workloads lib-64k,serve-gen-64k]

Run from the repository root. Runs alternate the workload order (forward,
then backward) and use seed seed-base + i on the i-th run of a set, untraced;
set s starts at seed-base + 1000 * s. For each end-to-end metric it prints
the median, the quartiles (Python's statistics.quantiles, n=4), the spread
(q3 - q1) / median and the worst single-run deviation from the median, all
against the metric's bound in BENCHMARK.json. With --sets 2 or more it also
prints how far each later set's median moved from the first set's. It
checks that every run reports the same share of failed operations and
prints each run's host steal share (the CPU time the hypervisor took from
this machine during the timed phase). Exit status 1 when a spread or a move
between sets exceeds its bound, a run is incorrect or the failed shares
differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    notes = {}
    for line in lines[:-1]:
        if line.startswith("notes: "):
            notes = json.loads(line[len("notes: "):])
    return json.loads(lines[-1]), notes


def run_set(workloads, runs, seconds, seed_base):
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r, notes = run_once(w, seed_base + i, seconds)
            results[w].append(r)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in sorted(r["metrics"].items()))
            steal = notes.get("host.steal_share", float("nan"))
            print(f"run {i + 1:2d} {w:17s} attempted={r['attempted']} "
                  f"failed={r['failed']} steal={steal:.3f} {values}",
                  flush=True)
    return results


def judge_set(results, bounds):
    """Prints the set's table; returns (ok, {(workload, metric): median})."""
    ok = True
    medians = {}
    print(f"\n{'workload':17s} {'metric':13s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'worst':>7s} {'bound':>6s}")
    for w, runs in results.items():
        if not all(r["correct"] for r in runs):
            print(f"{w}: a run reported correct=false")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            print(f"{w}: failed shares differ between runs: {sorted(shares)}")
            ok = False
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            medians[(w, name)] = med
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(abs(v - med) for v in vals) / med
            flag = ""
            if spread > bound:
                flag = "  SPREAD OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  (over a third of the bound)"
            print(f"{w:17s} {name:13s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {worst:7.3f} {bound:6.2f}{flag}")
    return ok, medians


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    ok = True
    first = None
    for s in range(args.sets):
        print(f"== set {s + 1} of {args.sets}", flush=True)
        results = run_set(workloads, args.runs, args.seconds,
                          args.seed_base + 1000 * s)
        set_ok, medians = judge_set(results, bounds)
        ok = ok and set_ok
        if first is None:
            first = medians
            continue
        print(f"\nset {s + 1} against set 1 (worse by more than the bound "
              f"fails):")
        for (w, name), med in medians.items():
            move = med / first[(w, name)] - 1
            worse = move if better[name] == "lower" else -move
            flag = ""
            if worse > bounds[name]:
                flag = "  WORSE BY MORE THAN THE BOUND"
                ok = False
            print(f"{w:17s} {name:13s} {first[(w, name)]:12.5g} -> "
                  f"{med:12.5g} {move:+7.3f} {bounds[name]:6.2f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        raise SystemExit("run from the repository root (BENCHMARK.json)")
    main()
