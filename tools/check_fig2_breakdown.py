#!/usr/bin/env python3
"""check_fig2_breakdown: gate on the measured Figure 2 latency breakdown.

Validates a bench/fig2_mc_system trace-mode JSON (the committed
BENCH_fig2_breakdown.json, or a fresh CI run) against the paper's claim
structure: the traced workload must attribute *nonzero* latency to every
one of the six Figure 2 components — application programs, mobile station,
mobile middleware, wireless network, wired network, host computers. A zero
bucket means a component stopped opening spans (instrumentation rot), which
is exactly the failure this gate exists to catch; it is not a performance
gate, so no tolerances beyond floating-point rounding.

Checks:
  * schema: bench == "fig2_breakdown", scenarios + aggregate present;
  * every aggregate component bucket > 0 with a > --min-share share;
  * every scenario covers both middlewares and both radios across the set,
    each with traces > 0 and total_ms > 0;
  * the split adds up: per scenario and in aggregate, the six components
    plus unattributed_ms equal total_ms to a relative error of 1e-9.

Usage:
  check_fig2_breakdown.py BENCH_fig2_breakdown.json [--min-share 1e-6]

Exit status: 0 ok, 1 gate failure, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_gate import load_bench_json

COMPONENTS = ("application", "station", "middleware", "wireless", "wired",
              "host")

SUM_REL_ERROR = 1e-9


def split_gap(section: dict) -> float:
    """Relative gap between the split's sum and total_ms (0 when exact)."""
    comps = section.get("components_ms", {})
    parts = sum(comps.get(name, 0.0) for name in COMPONENTS)
    parts += section.get("unattributed_ms", 0.0)
    total = section.get("total_ms", 0.0)
    return abs(parts - total) / max(abs(total), 1e-300)


def fail(msg: str, code: int = 1) -> int:
    print(f"check_fig2_breakdown: FAIL: {msg}", file=sys.stderr)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("breakdown", type=Path)
    parser.add_argument("--min-share", type=float, default=1e-6,
                        help="minimum aggregate share per component")
    args = parser.parse_args()

    data = load_bench_json(args.breakdown, "check_fig2_breakdown",
                           bench="fig2_breakdown")

    scenarios = data.get("scenarios", [])
    aggregate = data.get("aggregate", {})
    if not scenarios or not aggregate:
        return fail("missing scenarios or aggregate section", 2)

    # Scenario coverage: both middlewares, both radio families, all live.
    systems = {s.get("system") for s in scenarios}
    radios = {s.get("radio") for s in scenarios}
    if len(systems) < 2:
        return fail(f"expected both middlewares, got {sorted(systems)}")
    if len(radios) < 2:
        return fail(f"expected multiple radios, got {sorted(radios)}")
    for s in scenarios:
        label = f"{s.get('system')}/{s.get('radio')}"
        if s.get("traces", 0) <= 0:
            return fail(f"scenario {label} sampled no traces")
        if s.get("total_ms", 0.0) <= 0.0:
            return fail(f"scenario {label} measured no root latency")

    # The split adds up: components + unattributed == total, everywhere.
    sections = [(f"scenario {s.get('system')}/{s.get('radio')}", s)
                for s in scenarios]
    sections.append(("aggregate", aggregate))
    for label, section in sections:
        gap = split_gap(section)
        if gap > SUM_REL_ERROR:
            return fail(f"{label}: components + unattributed_ms miss "
                        f"total_ms by a relative {gap:.3g} "
                        f"(> {SUM_REL_ERROR:g})")

    # The core claim: every paper component accrued measured latency.
    comps = aggregate.get("components_ms", {})
    shares = aggregate.get("share", {})
    for name in COMPONENTS:
        ms = comps.get(name, 0.0)
        share = shares.get(name, 0.0)
        if ms <= 0.0:
            return fail(f"component '{name}' has zero measured latency")
        if share < args.min_share:
            return fail(f"component '{name}' share {share:g} below "
                        f"{args.min_share:g}")

    total = sum(comps[name] for name in COMPONENTS)
    print(f"check_fig2_breakdown: OK — {len(scenarios)} scenario(s), "
          f"{aggregate.get('traces', 0)} trace(s), "
          f"{total:.1f} ms attributed across all six components")
    return 0


if __name__ == "__main__":
    sys.exit(main())
