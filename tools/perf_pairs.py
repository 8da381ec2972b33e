#!/usr/bin/env python3
"""perf_pairs: compare two mcs_perfbench binaries in alternating pairs.

Runs a base and a changed build of perfbench/perfbench.cpp on the same
workload, one pair per seed. The order alternates pair by pair (base
first on even pairs, change first on odd ones), so drift in machine load
hits both sides alike. Prints each pair's values, each side's median and
quartiles, IQR and how many pairs the change wins (lower is better) for
each timed metric the runs report, wall_us_per_txn and setup_s, from the
same runs. --metric picks the headline metric, whose values are printed
per pair.

A performance change must not change the simulated system: the script
fails when sim_mean_ms, sim_p95_ms or goodput_tps differ between the two
sides of a pair, or when a run does not report correct with 0 failed.

Usage:
  perf_pairs.py --base OLD/mcs_perfbench --change NEW/mcs_perfbench \\
      --workload wap_wifi_commerce [--pairs 10] [--first-seed 1] \\
      [--seconds 3] [--metric wall_us_per_txn]

Build each side with `python3 perfbench/run.py ...` in its own checkout;
the binary lands in .bench_build/perfbench/mcs_perfbench.

Exit status: 0 ok, 1 simulation mismatch or incorrect run, 2 usage error
or a run that crashed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

# End-to-end metrics a perf-only change must leave bit-identical.
SIM_METRICS = ("sim_mean_ms", "sim_p95_ms", "goodput_tps")
# Wall-clock metrics summarised for every run (lower is better).
TIMED_METRICS = ("wall_us_per_txn", "setup_s")


def die(msg: str) -> None:
    print(f"perf_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def run(binary: str, workload: str, seed: int, seconds: int) -> dict:
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
    except OSError as err:
        die(f"cannot run {binary}: {err}")
    if proc.returncode != 0:
        die(f"{binary} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"{binary} printed no JSON result")


def value(result: dict, metric: str) -> float:
    try:
        return result["metrics"][metric]["value"]
    except KeyError:
        die(f"no metric {metric!r} in the result")


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent mcs_perfbench")
    ap.add_argument("--change", required=True, help="changed mcs_perfbench")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--metric", default="wall_us_per_txn")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be positive")

    # Summary order: the headline metric last, so its verdict ends the
    # report.
    timed = [m for m in TIMED_METRICS if m != args.metric] + [args.metric]
    vals = {m: {"base": [], "change": []} for m in timed}
    problems: list[str] = []
    print(f"{'pair':>4} {'seed':>5} {'first':>6} {'base':>12} "
          f"{'change':>12} {'delta':>8}")
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        results = {}
        for side in order:
            binary = args.base if side == "base" else args.change
            results[side] = run(binary, args.workload, seed, args.seconds)
        for side, res in results.items():
            if not res.get("correct") or res.get("failed", 1) != 0:
                problems.append(f"seed {seed}: {side} run not correct "
                                f"(correct={res.get('correct')}, "
                                f"failed={res.get('failed')})")
        for m in SIM_METRICS:
            b = value(results["base"], m)
            c = value(results["change"], m)
            if b != c:
                problems.append(f"seed {seed}: {m} differs: base {b!r}, "
                                f"change {c!r}")
        for m in timed:
            for side in ("base", "change"):
                vals[m][side].append(value(results[side], m))
        b = vals[args.metric]["base"][-1]
        c = vals[args.metric]["change"][-1]
        delta = (c - b) / b * 100.0 if b else float("nan")
        print(f"{i + 1:>4} {seed:>5} {order[0]:>6} {b:>12.6g} {c:>12.6g} "
              f"{delta:>+7.1f}%")

    for m in timed:
        base_vals, change_vals = vals[m]["base"], vals[m]["change"]
        print(f"{m}:")
        for side, xs in (("base", base_vals), ("change", change_vals)):
            q1, med, q3 = quartiles(xs)
            print(f"  {side:>6}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  iqr {q3 - q1:.6g}")
        wins = sum(c < b for b, c in zip(base_vals, change_vals))
        b_med = statistics.median(base_vals)
        c_med = statistics.median(change_vals)
        change = (c_med - b_med) / b_med * 100.0 if b_med else float("nan")
        print(f"{m}: median {b_med:.6g} -> {c_med:.6g} ({change:+.1f}%), "
              f"change wins {wins}/{args.pairs} pairs")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
