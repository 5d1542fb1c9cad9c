#!/usr/bin/env python3
"""bench_compare: diff fresh BENCH_*.json runs against committed baselines.

Each bench binary writes a machine-readable BENCH_<name>.json (see
bench/bench_util.h); the copies at the repo root are the committed
baselines. CI reruns the benches into a scratch directory (PW_BENCH_DIR)
and this script compares the two sets, failing when a throughput metric
regressed by more than the threshold (default 15%).

Rules:
  - Higher-is-better metrics (events_per_sec, sim_wall_ratio, *_per_sec):
    fail when fresh < baseline * (1 - threshold).
  - Counter metrics ending in _allocations: fail when the fresh count
    exceeds the baseline by more than the threshold (allocation creep is
    a regression even though it is not a rate).
  - Other metrics (wall_time_s, events_executed, scale notes...) are
    informational: they vary with PW_SCALE and machine speed, so they are
    printed but never gate.
  - A bench present in the baseline but missing from the fresh run fails
    (a silently-skipped bench is how regressions hide); a new bench with
    no baseline is reported and passes. Likewise a gated or counter key
    that is numeric in the baseline fails by name when the fresh run
    drops it or writes a non-number (null, a string, NaN).
  - With --metrics, the "metrics" block a bench may embed (the obs/
    registry harvested over a fixed-size pass, see OBSERVABILITY.md) is
    also gated: efficiency rates derived from counter pairs (cache
    hits/misses, pool reuses/allocations) must not drop more than
    --metrics-threshold percentage points below the baseline, and
    drift-gated counters (e.g. ppdu_bytes_copied, which the harvest pass
    pins to a deterministic value) must not creep upward past the
    threshold — or past zero when the baseline is zero. Pairs whose
    baseline denominator is zero — a PW_METRICS=OFF build writes
    all-zero blocks — are skipped as "no data", never failed.

  - --floor KEY=VALUE (repeatable) pins an absolute minimum on a fresh
    value, independent of the committed baseline: the relative gate only
    catches a drop against the last committed number, so a sequence of
    small regressions (or a quietly re-baselined json) can walk a
    headline throughput down unnoticed. CI floors the fan-out benches
    this way.

Usage:
  python3 tools/bench_compare.py BASELINE_DIR FRESH_DIR [--threshold 0.15]
                                 [--metrics] [--metrics-threshold 0.10]
                                 [--floor KEY=VALUE ...]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

GATED_SUFFIXES = ("_per_sec",)
GATED_EXACT = {"events_per_sec", "sim_wall_ratio", "frames_per_sec"}
COUNTER_SUFFIXES = ("_allocations",)

# --metrics mode: efficiency rates derived from obs/ counter pairs.
# rate = good / (good + bad); a pair with good + bad == 0 in the baseline
# carries no data (metrics compiled out) and is skipped.
METRIC_RATE_PAIRS = (
    ("fer_cache_hit_rate",
     "sim.medium.fer_cache_hits", "sim.medium.fer_cache_misses"),
    ("link_cache_hit_rate",
     "sim.medium.link_cache_hits", "sim.medium.link_cache_misses"),
    ("ppdu_pool_reuse_rate",
     "sim.ppdu_pool.reuses", "sim.ppdu_pool.allocations"),
    # Fading evaluations served without a draw (the link's cached
    # interval or a cached bridge-spine node) against Gaussian draws
    # made (bridge nodes and block endpoints). Zero totals — fading off
    # in the harvest pass, or metrics compiled out — skip as no-data
    # like every other pair.
    ("fading_cache_hit_rate",
     "sim.medium.fading_cache_hits", "sim.medium.fading_advances"),
)

# --metrics mode: counters gated against upward drift. The harvest pass
# is deterministic (fixed sizes, fixed seeds), so on unchanged code the
# fresh value equals the baseline exactly; growth past the threshold —
# or past zero when the baseline is zero — is a copy/leak regression.
METRIC_DRIFT_COUNTERS = ("sim.medium.ppdu_bytes_copied",)


def load_dir(path: Path) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for f in sorted(path.glob("BENCH_*.json")):
        try:
            data = json.loads(f.read_text())
        except json.JSONDecodeError as e:
            sys.exit(f"{f}: unparseable bench json: {e}")
        name = data.get("bench", f.stem.removeprefix("BENCH_"))
        out[name] = data
    return out


def is_gated(key: str) -> bool:
    return key in GATED_EXACT or key.endswith(GATED_SUFFIXES)


def is_counter(key: str) -> bool:
    return key.endswith(COUNTER_SUFFIXES)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def compare_metrics(name: str, base: dict, cur: dict, threshold_pp: float,
                    failures: list[str]) -> None:
    """Gates one bench's embedded obs/ metrics block against the baseline."""
    base_counters = base.get("counters", {})
    cur_counters = cur.get("counters", {})
    for label, good, bad in METRIC_RATE_PAIRS:
        base_total = base_counters.get(good, 0) + base_counters.get(bad, 0)
        cur_total = cur_counters.get(good, 0) + cur_counters.get(bad, 0)
        if base_total == 0 or cur_total == 0:
            print(f"  skip {name}.metrics.{label}: no data "
                  f"(metrics compiled out?)")
            continue
        base_rate = base_counters.get(good, 0) / base_total
        cur_rate = cur_counters.get(good, 0) / cur_total
        drop = base_rate - cur_rate
        status = "OK"
        if drop > threshold_pp:
            status = "FAIL"
            failures.append(
                f"{name}.metrics.{label}: {base_rate:.1%} -> {cur_rate:.1%} "
                f"(dropped {drop:.1%}, limit {threshold_pp:.0%} points)")
        print(f"  {status:4s} {name}.metrics.{label}: "
              f"{base_rate:.1%} -> {cur_rate:.1%}")
    for key in METRIC_DRIFT_COUNTERS:
        base_v = base_counters.get(key)
        cur_v = cur_counters.get(key)
        if base_v is None or cur_v is None:
            continue
        drifted = (cur_v > 0) if base_v == 0 \
            else (cur_v > base_v * (1 + threshold_pp))
        status = "OK"
        if drifted:
            status = "FAIL"
            failures.append(
                f"{name}.metrics.{key}: {base_v} -> {cur_v} "
                f"(counter drifted upward)")
        print(f"  {status:4s} {name}.metrics.{key}: {base_v} -> {cur_v}")


def report_scaling(name: str, cur: dict) -> None:
    """Derived scale-out rows: for every `<prefix>_procs` note that has
    matching `<prefix>_seq_tx_per_sec` / `<prefix>_par_tx_per_sec` notes
    (bench_table2_wardrive's district phase emits one such set), prints
    the parallel speedup and the per-process scaling efficiency. Purely
    informational — both are core-count-bound, so a 1-core dev box
    legitimately prints ~1x where the multi-core CI runner prints ~3x;
    the underlying *_per_sec notes are still gated relatively, and CI
    can pin an absolute --floor on the parallel rate.
    """
    for key, procs in sorted(cur.items()):
        if not key.endswith("_procs") or not isinstance(procs, (int, float)) \
                or procs <= 0:
            continue
        prefix = key.removesuffix("_procs")
        seq = cur.get(f"{prefix}_seq_tx_per_sec")
        par = cur.get(f"{prefix}_par_tx_per_sec")
        if not isinstance(seq, (int, float)) or seq <= 0 \
                or not isinstance(par, (int, float)):
            continue
        speedup = par / seq
        print(f"  info {name}.{prefix}: {par:.0f} tx/s across {procs:.0f} "
              f"procs = {par / procs:.0f} tx/s per proc "
              f"({speedup:.2f}x over sequential, "
              f"{speedup / procs:.0%} scaling efficiency)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline_dir", type=Path)
    ap.add_argument("fresh_dir", type=Path)
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    ap.add_argument("--metrics", action="store_true",
                    help="also gate embedded obs/ metrics blocks")
    ap.add_argument("--metrics-threshold", type=float, default=0.10,
                    help="allowed hit/reuse-rate drop in percentage "
                         "points (default 0.10)")
    ap.add_argument("--floor", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="absolute throughput floor on a fresh value "
                         "(repeatable), e.g. "
                         "--floor fanout_5000_indexed_tx_per_sec=5000. "
                         "Unlike the relative gate, a floor holds even "
                         "if the committed baseline drifts downward; it "
                         "fails too when no fresh bench reports KEY.")
    args = ap.parse_args()

    floors: dict[str, float] = {}
    for spec in args.floor:
        key, sep, value = spec.partition("=")
        if not sep or not key:
            sys.exit(f"--floor {spec!r}: want KEY=VALUE")
        try:
            floors[key] = float(value)
        except ValueError:
            sys.exit(f"--floor {spec!r}: {value!r} is not a number")

    baseline = load_dir(args.baseline_dir)
    fresh = load_dir(args.fresh_dir)
    if not baseline:
        sys.exit(f"no BENCH_*.json baselines under {args.baseline_dir}")

    failures: list[str] = []
    for name, base in sorted(baseline.items()):
        cur = fresh.get(name)
        if cur is None:
            failures.append(f"{name}: no fresh run (bench skipped or broken)")
            continue
        for key, base_v in base.items():
            if not is_number(base_v):
                continue
            cur_v = cur.get(key)
            if not is_number(cur_v):
                if is_gated(key) or is_counter(key):
                    got = "missing" if key not in cur else json.dumps(cur_v)
                    failures.append(f"{name}.{key}: {base_v:g} in the "
                                    f"baseline, {got} in the fresh run")
                    print(f"  FAIL {name}.{key}: {base_v:g} -> {got}")
                continue
            if is_gated(key) and base_v > 0:
                change = (cur_v - base_v) / base_v
                status = "OK"
                if change < -args.threshold:
                    status = "FAIL"
                    failures.append(
                        f"{name}.{key}: {base_v:.1f} -> {cur_v:.1f} "
                        f"({change:+.1%}, limit -{args.threshold:.0%})")
                print(f"  {status:4s} {name}.{key}: {base_v:.1f} -> "
                      f"{cur_v:.1f} ({change:+.1%})")
            elif is_counter(key):
                limit = base_v * (1 + args.threshold)
                status = "OK"
                if cur_v > limit and cur_v - base_v > 1:
                    status = "FAIL"
                    failures.append(
                        f"{name}.{key}: {base_v:.0f} -> {cur_v:.0f} "
                        f"(> {limit:.0f})")
                print(f"  {status:4s} {name}.{key}: {base_v:.0f} -> "
                      f"{cur_v:.0f}")
            else:
                print(f"  info {name}.{key}: {base_v:g} -> {cur_v:g}")
        if args.metrics and isinstance(base.get("metrics"), dict) \
                and isinstance(cur.get("metrics"), dict):
            compare_metrics(name, base["metrics"], cur["metrics"],
                            args.metrics_threshold, failures)
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  new  {name}: no baseline yet (commit its BENCH json)")

    for name, cur in sorted(fresh.items()):
        report_scaling(name, cur)

    unseen = dict(floors)
    for name, cur in sorted(fresh.items()):
        for key, floor in sorted(floors.items()):
            cur_v = cur.get(key)
            if not is_number(cur_v):
                continue
            unseen.pop(key, None)
            status = "OK"
            if cur_v < floor:
                status = "FAIL"
                failures.append(
                    f"{name}.{key}: {cur_v:.1f} below absolute floor "
                    f"{floor:.1f}")
            print(f"  {status:4s} {name}.{key}: {cur_v:.1f} "
                  f"(floor {floor:.1f})")
    for key, floor in sorted(unseen.items()):
        failures.append(
            f"--floor {key}={floor:g}: no fresh bench reports this key")

    if failures:
        print(f"\nbench_compare: {len(failures)} regression(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench_compare: {len(baseline)} bench(es) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
