#!/usr/bin/env python3
"""mcs_analyze selftest: run the analyzer over the known-bad and known-clean
fixtures and assert each check fires exactly where it should.

Wired into ctest as `analyze_fixture_test`. Exit 0 on success, 1 on any
missed or spurious expectation.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as checks_mod  # noqa: E402
import cli  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# file (relative to fixtures/bad) -> {check: minimum finding count}
EXPECT_BAD = {
    "wallclock.cpp": {"wallclock": 7},
    "rng.cpp": {"rng": 6},
    "getenv.cpp": {"getenv": 1},
    "unordered_sink.cpp": {"unordered-sink": 3},
    "float_accum.cpp": {"float-accum": 1},
    "uninit_pod.cpp": {"uninit-pod": 3},
    "unguarded.cpp": {"unguarded-field": 3},
    "sim_escape.cpp": {"sim-escape": 2},
    "src/net/missing_contract.cpp": {"missing-contract": 1},
    "src/obs/unexempt_clock.cpp": {"wallclock": 1},
    "hotpath_alloc.cpp": {"hotpath-alloc": 5},
    "shard_escape.cpp": {"shard-escape": 3},
    "lock_order.cpp": {"lock-order": 4},
    "arena_escape_field.cpp": {"arena-escape": 2},
    "arena_escape_global.cpp": {"arena-escape": 1},
    "arena_escape_return.cpp": {"arena-escape": 3},
    "arena_escape_view.cpp": {"arena-escape": 1},
    "arena_escape_reset_use.cpp": {"arena-escape": 2},
    "arena_escape_thread.cpp": {"arena-escape": 2},
}

# Findings a bad fixture may legitimately raise beyond the check it targets
# (e.g. the unguarded fixture's worker loop has no contract... no: fixtures
# under bad/ sit outside component dirs except the nested one).
TOLERATED_EXTRA: dict = {}


def run(root: Path):
    files = cli.collect_files([root])
    project, _ = cli.build_project(files, "internal", None)
    findings = checks_mod.run_checks(project, checks_mod.ALL_CHECKS)
    return [f for f in findings if not f.suppressed]


def check_callgraph(failures):
    """Round-trip fixtures/callgraph/: a class split across header/impl, a
    virtual override dispatched through a base pointer, and a free-function
    recursion cycle must all survive model -> call graph -> queries."""
    files = cli.collect_files([FIXTURES / "callgraph"])
    project, _ = cli.build_project(files, "internal", None)
    cg = project.callgraph()

    def qual(fn):
        return f"{fn.cls_name}::{fn.name}" if fn.cls_name else fn.name

    def callees(name, cls=None):
        fns = cg.functions_named(cls, name)
        got = set()
        for fn in fns:
            if cls and fn.cls_name != cls:
                continue  # functions_named closes over the family
            got.update(qual(c) for c, _line in cg.edges.get(fn, ()))
        return got

    # header/impl split: methods declared in widget.h resolve to their
    # definitions in widget.cpp.
    renders = cg.functions_named("Widget", "render")
    if {qual(f) for f in renders} != {"Widget::render", "Button::render"}:
        failures.append("callgraph: virtual closure of Widget::render "
                        f"wrong: {sorted(qual(f) for f in renders)}")
    for fn in renders:
        if not fn.path.endswith("widget.cpp"):
            failures.append(f"callgraph: {qual(fn)} should resolve to its "
                            f"impl-file definition, got {fn.path}")

    # virtual dispatch through a Widget* local hits both implementations.
    dispatched = callees("render", cls="Button")
    if not {"Widget::render", "Button::render"} <= dispatched:
        failures.append("callgraph: base-pointer dispatch from "
                        f"Button::render missed overrides: "
                        f"{sorted(dispatched)}")

    # recursion cycle between free functions survives edge extraction.
    if "free_pong" not in callees("free_ping") \
            or "free_ping" not in callees("free_pong"):
        failures.append("callgraph: free_ping <-> free_pong cycle edges "
                        "missing")

    # reachability walks the whole chain (and terminates despite the cycle).
    entries = [f for f in cg.functions_named("Widget", "render")
               if f.cls_name == "Widget"]
    reached = {qual(f) for f in cg.reachable(entries)}
    want = {"Widget::render", "Widget::helper", "free_ping", "free_pong"}
    if not want <= reached:
        failures.append(f"callgraph: reachability from Widget::render got "
                        f"{sorted(reached)}, missing {sorted(want - reached)}")


def main() -> int:
    failures = []

    bad = run(FIXTURES / "bad")
    by_file: dict = {}
    for f in bad:
        rel = f.path.split("fixtures/bad/", 1)[-1]
        by_file.setdefault(rel, {}).setdefault(f.check, 0)
        by_file[rel][f.check] += 1

    for rel, expected in EXPECT_BAD.items():
        got = by_file.get(rel, {})
        for check, minimum in expected.items():
            n = got.get(check, 0)
            if n < minimum:
                failures.append(
                    f"bad/{rel}: expected >= {minimum} '{check}' finding(s), "
                    f"got {n}")
    for rel, got in by_file.items():
        if rel not in EXPECT_BAD:
            failures.append(f"bad/{rel}: unexpected fixture file with "
                            f"findings {got}")
            continue
        for check, n in got.items():
            if check not in EXPECT_BAD[rel] \
                    and check not in TOLERATED_EXTRA.get(rel, ()):
                failures.append(
                    f"bad/{rel}: spurious '{check}' finding(s) ({n}) — "
                    "fixture should only trip its own check")

    clean = run(FIXTURES / "clean")
    for f in clean:
        failures.append(f"clean fixture tripped {f.check}: "
                        f"{f.path}:{f.line}: {f.message}")

    check_callgraph(failures)

    # Coverage guard: every check family must have at least one firing
    # fixture, so a check that silently stops firing fails this test.
    fired = {f.check for f in bad}
    for family, names in checks_mod.FAMILIES.items():
        if not fired.intersection(names):
            failures.append(f"no fixture fires any '{family}' check")
    for check in checks_mod.ALL_CHECKS:
        if check not in fired:
            failures.append(f"check '{check}' fires on no fixture")

    if failures:
        print("mcs-analyze selftest: FAIL", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print(f"mcs-analyze selftest: ok "
          f"({len(bad)} bad findings as expected, clean fixture clean, "
          f"all {len(checks_mod.ALL_CHECKS)} checks covered)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
