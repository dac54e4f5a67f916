#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs one workload N times, each with another seed, and prints for every
metric its median, first and third quartile (statistics.quantiles, n=4)
and the relative spread (Q3 - Q1) / median, next to the metric's bound in
BENCHMARK.json and a third of it. It also prints the share of failed
operations of every run, which must not vary. Run from the repository
root:

    python3 e2ebench/steady.py --workload evolve --runs 10 --first-seed 1

--trace 1 reports the per-layer metrics instead (they have no bound).
--save FILE also writes every run's values as JSON. Two saved sets of runs
of the same code are compared with

    python3 e2ebench/steady.py --compare set1.json set2.json

which prints, per workload and end-to-end metric, both medians and the
shift of the second from the first as a share of the first, in the
metric's worse direction, next to its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--compare", nargs=2, metavar="SET")
    ap.add_argument("--save")
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if args.compare:
        compare(bench, *args.compare)
        return
    if not args.workload:
        ap.error("--workload is required")

    values, shares = {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr}")
        out = json.loads(p.stdout.strip().splitlines()[-1])
        if not out["correct"]:
            sys.exit(f"seed {seed}: correct=false\n{p.stderr}")
        shares.append((out["failed"], out["attempted"]))
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: failed {out['failed']}/{out['attempted']}", flush=True)

    ratios = {f / a for f, a in shares}
    print(f"failed share per run: {sorted(ratios)} ({'steady' if len(ratios) == 1 else 'VARIES'})")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name in sorted(values):
        vs = values[name]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        b = bounds.get(name)
        flag = ""
        if b is not None and spread >= b / 3:
            flag = "  <-- spread not below bound/3"
        bs = f"{b:6.2f} {b / 3:8.3f}" if b is not None else f"{'':6} {'':8}"
        print(f"{name:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bs}{flag}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "shares": shares, "values": values}, f)


def compare(bench, path1, path2):
    sets = []
    for path in (path1, path2):
        with open(path) as f:
            sets.append(json.load(f))
    if sets[0]["workload"] != sets[1]["workload"]:
        sys.exit("the two sets ran different workloads")
    for i, s in enumerate(sets):
        ratios = {f / a for f, a in s["shares"]}
        print(f"set {i + 1}: failed share per run {sorted(ratios)}")
    print(f"{'metric':20} {'median 1':>12} {'median 2':>12} {'shift':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        name = m["name"]
        m1 = statistics.median(sets[0]["values"][name])
        m2 = statistics.median(sets[1]["values"][name])
        worse = (m2 - m1) if m["better"] == "lower" else (m1 - m2)
        shift = worse / m1 if m1 else 0.0
        flag = "  <-- worse by more than the bound" if shift > m["bound"] else ""
        print(f"{name:20} {m1:12.4f} {m2:12.4f} {shift:8.3f} {m['bound']:6.2f}{flag}")


if __name__ == "__main__":
    main()
