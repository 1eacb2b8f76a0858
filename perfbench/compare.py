#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Each set is a directory holding the saved standard output of runs of
perfbench/run.sh, one file per run (any name). A run's workload and seed come
from its "digest" line, its metrics from its last line. For each (workload,
metric) the helper prints both sides' median and quartiles, how many seed
pairs the change won, and a verdict under the bounds in BENCHMARK.json:

  improved    the change won at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile distance
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  either side's quartile distance is wider than the bound, and
              not every run of the change beats every run of the parent
  no worse    otherwise

Per-layer metrics have no bound: they get "improved" or "-" only.

  python3 perfbench/compare.py runs/parent runs/change
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST = re.compile(r"^digest (\S+) seed=(\d+) ")


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_runs(directory):
    """Returns {(workload, metric): {seed: [values]}} for one set of runs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skipping {path}: last line is not a result", file=sys.stderr)
            continue
        ident = next((DIGEST.match(l) for l in lines if DIGEST.match(l)), None)
        if ident is None:
            print(f"skipping {path}: no digest line", file=sys.stderr)
            continue
        workload, seed = ident.group(1), int(ident.group(2))
        for metric, v in result["metrics"].items():
            runs.setdefault((workload, metric), {}).setdefault(seed, []).append(v["value"])
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound, wins, pairs):
    sign = 1 if better == "higher" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    qa, qb = quartiles(a), quartiles(b)
    gain = sign * (med_b - med_a)
    improved = pairs > 0 and wins >= 0.9 * pairs and abs(med_b - med_a) > qa[1] - qa[0] and gain > 0
    if bound is None:
        return "improved" if improved else "-"
    spread = max((qa[1] - qa[0]) / med_a, (qb[1] - qb[0]) / med_b) if med_a and med_b else 0
    dominates = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not dominates:
        return "unresolved"
    if improved:
        return "improved"
    if -gain > bound * abs(med_a):
        return "worse"
    return "no worse"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = load_spec()
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    header = f"{'workload':18} {'metric':28} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} {'wins':>7}  verdict"
    print(header)
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in metrics:
            continue
        better, bound = metrics[metric]
        pa, pb = parent[key], change[key]
        a = [v for vs in pa.values() for v in vs]
        b = [v for vs in pb.values() for v in vs]
        # Pairs are runs on the same seed, in the order they were saved.
        wins = pairs = 0
        for seed in sorted(set(pa) & set(pb)):
            for x, y in zip(pa[seed], pb[seed]):
                pairs += 1
                if (y > x) if better == "higher" else (y < x):
                    wins += 1
        qa, qb = quartiles(a), quartiles(b)
        fmt = lambda m, q: f"{m:.6g} [{q[0]:.6g}, {q[1]:.6g}]"
        v = verdict(a, b, better, bound, wins, pairs)
        print(f"{workload:18} {metric:28} {fmt(statistics.median(a), qa):34} "
              f"{fmt(statistics.median(b), qb):34} {wins:>3}/{pairs:<3}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
