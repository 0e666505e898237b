#!/usr/bin/env python3
"""Steadiness report for the rmon benchmark.

Runs every workload named in BENCHMARK.json (or those given with
--workloads) once per seed, untraced, and prints per end-to-end metric
the median, the quartiles and the spread (Q3 - Q1) / median next to the
metric's bound. A spread above the bound makes the metric unusable for
regression checks; the benchmark aims for spreads below a third of it.
Every run lasts BENCHMARK.json's run_seconds, the length the bounds
were set for.

With --save FILE the raw values are written out; with --compare FILE the
medians are also checked against an earlier saved set of the same code:
no median may differ from the earlier one, in either direction, by more
than the metric's bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --save /tmp/set1.json
    python3 perfbench/steady.py --runs 10 --seed-base 101 --compare /tmp/set1.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - t0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n" + "\n".join(lines[-20:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n" + "\n".join(lines[-20:]))
    return result, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def change(new, old):
    """Relative change of `new` against `old`, signed."""
    return (new - old) / old if old else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--save", default=None)
    ap.add_argument("--compare", default=None)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w in workloads]
    metrics = bench["end_to_end"]

    values = {}
    for w in workloads:
        values[w] = {m["name"]: [] for m in metrics}
        for i in range(opts.runs):
            seed = opts.seed_base + i
            result, elapsed = run_once(bench["command"], w, seed, seconds)
            for m in metrics:
                values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"# {w} seed {seed}: ok in {elapsed:.1f} s", flush=True)

    earlier = None
    if opts.compare:
        with open(opts.compare) as f:
            earlier = json.load(f)

    ok = True
    print(f"{'workload':<14} {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            vals = values[w][m["name"]]
            q1, q2, q3, s = spread(vals)
            bound = m["bound"]
            if s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            if earlier is not None:
                old = statistics.median(earlier[w][m["name"]])
                d = change(q2, old)
                verdict += f"; vs earlier {d:+.3f}"
                if abs(d) > bound:
                    verdict += " DIFFERS"
                    ok = False
            print(f"{w:<14} {m['name']:<26} {q2:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{s:>7.3f} {bound:>6.2f}  {verdict}")
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(values, f, indent=1)
    print("steadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
