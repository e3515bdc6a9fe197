#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on the end-to-end benchmark.

    python3 bench/e2e/compare.py PARENT_CHECKOUT CHANGE_CHECKOUT [--pairs 10]

Each checkout is a repository root holding bench/e2e/run.py (it is built
there on first use). For every workload the two sides run in alternating
pairs on the same seed, and the side that goes first changes every pair,
so drift of the host over time falls on both sides alike. For each
workload and metric line (the bounded end-to-end metrics, and the
secondary ones such as throughput_tps) it prints both sides' quartiles, the
change's wins, and for the bounded metrics a verdict against the bounds in
the parent's BENCHMARK.json:

  gain        the change wins >= 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              IQR
  regression  the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's IQR is wider than the bound, unless every
              change run beats every parent run
  within      none of the above

The secondary metrics have no bound, so they get only the paired
verdicts: gain as above, or loss when the parent wins >= 9/10 of the
pairs by more than its IQR. A gain does not count when the change fails
more operations than the parent. Exit status 1 when any bounded metric
regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["replay_agg", "subsetsum_durable", "tcp_replay", "tcp_paced"]
# Secondary metric lines: which direction is better.
SECONDARY_BETTER = {"throughput_tps": "higher", "emit_p50_ms": "lower",
                    "emit_p95_ms": "lower", "failed_frac": "lower"}


def run(root, workload, seed, seconds):
    """One run; returns (JSON result, {metric: value} of every metric line)."""
    cmd = [sys.executable, os.path.join(root, "bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("compare.py: %s failed on %s seed %d:\n%s"
                 % (root, workload, seed, out.stderr[-2000:]))
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            values[parts[1]] = float(parts[2])
    return json.loads(lines[-1]), values


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(parent, change, better, bound, more_failures):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    iqr = p3 - p1
    gain = (wins >= 0.9 * len(parent) and sign * (cm - pm) > iqr
            and not more_failures)
    if bound is None:
        loss = losses >= 0.9 * len(parent) and sign * (pm - cm) > iqr
        return ("gain" if gain else "loss" if loss else ""), wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if abs(pm) > 0 and iqr / abs(pm) > bound and not all_better:
        v = "unresolved"
    elif sign * (pm - cm) > bound * abs(pm):
        v = "regression"
    elif gain:
        v = "gain"
    else:
        v = "within"
    return v, wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = [(m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics += [(n, b, None) for n, b in SECONDARY_BETTER.items()]
    regressed = False
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                root = args.parent if side == "parent" else args.change
                runs[side].append(run(root, workload, args.seed_base + i,
                                      seconds))
        failed = {s: sum(r["failed"] for r, _ in runs[s]) for s in runs}
        print("\n%s  (%d pairs, %d s per run; failed: parent %d, change %d)"
              % (workload, args.pairs, seconds, failed["parent"],
                 failed["change"]))
        print("%-16s %-32s %-32s %6s  %s" % ("metric", "parent q1/med/q3",
                                             "change q1/med/q3", "wins",
                                             "verdict"))
        for name, better, bound in metrics:
            p = [vals[name] for _, vals in runs["parent"] if name in vals]
            c = [vals[name] for _, vals in runs["change"] if name in vals]
            if len(p) != args.pairs or len(c) != args.pairs:
                continue
            v, wins = verdict(p, c, better, bound,
                              failed["change"] > failed["parent"])
            regressed |= v == "regression"
            print("%-16s %-32s %-32s %2d/%-3d  %s" % (
                name, "%.4g/%.4g/%.4g" % quartiles(p),
                "%.4g/%.4g/%.4g" % quartiles(c), wins, len(p), v))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
