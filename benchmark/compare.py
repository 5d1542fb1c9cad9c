#!/usr/bin/env python3
"""Compares benchmark result files (benchmark/out/results/*.json).

  python3 benchmark/compare.py A.json B.json
      A is the parent, B the change. For every workload and end-to-end
      metric in both, prints each side's median and quartiles, the bound,
      and a verdict:
        ok          B is no worse than A by more than the bound
        regressed   B is worse than A by more than the bound
        unresolved  a side's run-to-run spread (q3 - q1 over the median)
                    is wider than the bound and the two sides' runs overlap
      Exits 1 if any metric regressed.

  python3 benchmark/compare.py --pairs P1.json C1.json P2.json C2.json ...
      Ten or more parent/change pairs, run alternately. Each file counts
      as one run (its median). A metric counts as a gain when the change
      wins at least nine tenths of the pairs (ties count for neither) and
      the medians differ by more than the parent runs' quartile spread.
      Regressions are judged as above over the pooled runs; exits 1 if
      any metric regressed.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = {}
    for workload, body in doc["workloads"].items():
        for name, m in body["end_to_end"].items():
            metrics[(workload, name)] = m
    return metrics


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(parent, change, better):
    """Relative amount by which `change` is worse than `parent` (> 0 worse)."""
    if parent == 0:
        return 0.0
    rel = (change - parent) / abs(parent)
    return -rel if better == "higher" else rel


def beats(a, b, better):
    return a > b if better == "higher" else a < b


def verdict(parent_runs, change_runs, better, bound):
    worse = worse_by(statistics.median(parent_runs), statistics.median(change_runs), better)
    separated = (all(beats(c, p, better) for c in change_runs for p in parent_runs)
                 or all(beats(p, c, better) for c in change_runs for p in parent_runs))
    resolved = max(spread(parent_runs), spread(change_runs)) <= bound or separated
    if not resolved:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare_two(path_a, path_b):
    a, b = load(path_a), load(path_b)
    regressed = False
    print(f"{'workload':15s} {'metric':18s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'bound':>6s} {'worse':>8s} verdict")
    for key in sorted(set(a) & set(b)):
        pa, pb = a[key], b[key]
        v, worse = verdict(pa["samples"], pb["samples"], pa["better"], pa["bound"])
        regressed |= v == "regressed"
        print(f"{key[0]:15s} {key[1]:18s} {fmt(pa['samples']):>36s} {fmt(pb['samples']):>36s} "
              f"{pa['bound']:6.3g} {worse:+8.2%} {v}")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:15s} {key[1]:18s} only in {'A' if key in a else 'B'}")
    return 1 if regressed else 0


def compare_pairs(paths):
    if len(paths) % 2 or len(paths) < 20:
        sys.exit("compare.py --pairs needs at least ten parent/change file pairs")
    sides = [load(p) for p in paths]
    parents, changes = sides[0::2], sides[1::2]
    keys = set.intersection(*(set(s) for s in sides))
    regressed = False
    print(f"{'workload':15s} {'metric':18s} {'wins':>7s} {'parent median [q1, q3]':>36s} "
          f"{'change median':>13s} verdict")
    for key in sorted(keys):
        better, bound = parents[0][key]["better"], parents[0][key]["bound"]
        p = [s[key]["median"] for s in parents]
        c = [s[key]["median"] for s in changes]
        wins = sum(beats(cv, pv, better) for pv, cv in zip(p, c))
        q1, p_med, q3 = quartiles(p)
        c_med = statistics.median(c)
        gain = (wins >= 0.9 * len(p) and beats(c_med, p_med, better)
                and abs(c_med - p_med) > q3 - q1)
        v, _ = verdict(p, c, better, bound)
        regressed |= v == "regressed"
        label = "gain" if gain else ("regressed" if v == "regressed" else f"no gain ({v})")
        print(f"{key[0]:15s} {key[1]:18s} {wins:3d}/{len(p):<3d} {fmt(p):>36s} "
              f"{c_med:13.5g} {label}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare benchmark result files.",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--pairs", action="store_true",
                        help="files are alternating parent/change pairs")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()
    if args.pairs:
        return compare_pairs(args.files)
    if len(args.files) != 2:
        parser.error("give two result files, or --pairs with ten or more pairs")
    return compare_two(*args.files)


if __name__ == "__main__":
    sys.exit(main())
