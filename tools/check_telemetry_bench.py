#!/usr/bin/env python3
"""check_telemetry_bench: gate on the always-on telemetry stack.

Validates a bench/telemetry summary JSON (the committed BENCH_telemetry.json
or a fresh run) and optionally the measured overhead of running with full
telemetry:

  * liveness: every one of the six Figure 2 component metric namespaces —
    application, station, middleware, wireless, wired, host — accumulated a
    nonzero counter total, and the flight-recorder timeline holds at least
    one nonzero series per component. A zero namespace means a component
    stopped updating its metrics (instrumentation rot), the exact failure
    this gate exists to catch.
  * quantiles: every histogram under metrics.histograms states its
    rel_error and keeps min <= p50 <= p95 <= p99 <= max. A quantile outside
    the recorded range means the estimator reports a bucket bound, not a
    value (a power-of-two histogram once showed p50 = 131072 with
    max = 84907).
  * determinism: with --identical OTHER, this file and OTHER must be
    byte-identical — two runs of the same scenario may not diverge.
  * overhead: with --overhead FILE (a bench/telemetry overhead JSON, never
    committed: it holds machine-specific wall times), the full-telemetry
    arm may cost at most --max-overhead (default 8%: the measured cost is
    ~0, the ceiling absorbs shared-runner wall-time noise around it) over
    the no-registry arm. Only meaningful on Release builds; ctest skips it.

Usage:
  check_telemetry_bench.py BENCH_telemetry.json [--identical other.json]
      [--overhead overhead.json --max-overhead 0.08] [--min-ticks 4]

Exit status: 0 ok, 1 gate failure, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_gate import load_bench_json, report

TOOL = "check_telemetry_bench"

COMPONENTS = ("application", "station", "middleware", "wireless", "wired",
              "host")


def check_summary(path: Path, min_ticks: int, failures: list[str]) -> dict:
    data = load_bench_json(
        path, TOOL, bench="telemetry",
        required=("slo", "component_totals", "timeline", "metrics"))

    slo = data["slo"]
    if slo.get("attempted", 0) <= 0:
        failures.append(f"{path}: workload attempted no transactions")
    if slo.get("ok", 0) <= 0:
        failures.append(f"{path}: workload completed no transactions ok")

    totals = data["component_totals"]
    for name in COMPONENTS:
        if totals.get(name, 0) <= 0:
            failures.append(
                f"{path}: component '{name}' counters are all zero")

    timeline = data["timeline"]
    if timeline.get("ticks", 0) < min_ticks:
        failures.append(
            f"{path}: flight recorder ticked {timeline.get('ticks', 0)} "
            f"time(s), below the {min_ticks} floor")
    series = timeline.get("series", {})
    for name in COMPONENTS:
        live = [s for s, v in series.items()
                if s.startswith(name + ".") and v.get("nonzero")]
        if not live:
            failures.append(
                f"{path}: no nonzero timeline series under '{name}.'")

    check_histograms(path, data["metrics"].get("histograms", {}), failures)

    for name in COMPONENTS:
        print(f"{name}: counters {totals.get(name, 0)}, "
              f"{sum(1 for s, v in series.items() if s.startswith(name + '.') and v.get('nonzero'))} "
              f"live series")
    return data


def check_histograms(path: Path, histograms: dict,
                     failures: list[str]) -> None:
    if not histograms:
        failures.append(f"{path}: metrics.histograms is empty")
    for name, h in histograms.items():
        if "rel_error" not in h:
            failures.append(f"{path}: histogram '{name}' states no rel_error")
        keys = ("min", "p50", "p95", "p99", "max")
        missing = [k for k in keys if k not in h]
        if missing:
            failures.append(
                f"{path}: histogram '{name}' lacks {', '.join(missing)}")
            continue
        values = [h[k] for k in keys]
        if any(a > b for a, b in zip(values, values[1:])):
            failures.append(
                f"{path}: histogram '{name}' breaks min <= p50 <= p95 <= "
                f"p99 <= max: "
                + ", ".join(f"{k}={v}" for k, v in zip(keys, values)))


def check_overhead(path: Path, max_overhead: float,
                   failures: list[str]) -> None:
    data = load_bench_json(path, TOOL, bench="telemetry_overhead",
                           required=("overhead_frac", "ns_per_txn_off",
                                     "ns_per_txn_on"))
    frac = data["overhead_frac"]
    print(f"overhead: {data['ns_per_txn_off']:.0f} -> "
          f"{data['ns_per_txn_on']:.0f} ns/txn ({frac:+.2%})")
    if frac > max_overhead:
        failures.append(
            f"{path}: full telemetry costs {frac:.2%} over the no-registry "
            f"arm, above the {max_overhead:.0%} ceiling")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("summary", type=Path)
    parser.add_argument("--identical", type=Path,
                        help="second summary that must match byte-for-byte")
    parser.add_argument("--overhead", type=Path,
                        help="telemetry_overhead JSON to gate")
    parser.add_argument("--max-overhead", type=float, default=0.08,
                        help="ceiling on the telemetry overhead fraction")
    parser.add_argument("--min-ticks", type=int, default=4,
                        help="minimum flight-recorder ticks")
    args = parser.parse_args()

    failures: list[str] = []
    data = check_summary(args.summary, args.min_ticks, failures)

    if args.identical is not None:
        try:
            a = args.summary.read_bytes()
            b = args.identical.read_bytes()
        except OSError as exc:
            print(f"{TOOL}: cannot read: {exc}", file=sys.stderr)
            return 2
        if a != b:
            failures.append(
                f"{args.summary} and {args.identical} differ: the telemetry "
                "summary is not deterministic across runs")
        else:
            print(f"determinism: {args.summary} == {args.identical} "
                  f"({len(a)} bytes)")

    if args.overhead is not None:
        check_overhead(args.overhead, args.max_overhead, failures)

    ticks = data["timeline"].get("ticks", 0)
    return report(TOOL, failures,
                  f"all six components live across {ticks} ticks")


if __name__ == "__main__":
    sys.exit(main())
