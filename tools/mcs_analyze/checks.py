"""Check implementations for mcs_analyze.

Every check consumes the shared model (model.py) produced by whichever
frontend ran, and yields Finding records. Six families:

  determinism  wallclock, rng, getenv, unordered-sink, float-accum,
               uninit-pod — the patterns that break fixed-seed replay or
               byte-identical JSON output.
  concurrency  unguarded-field, sim-escape — fields touched from thread
               lambdas must be annotated/atomic/thread-local, and no
               Simulator/Packet may cross a cell-thread boundary.
  contracts    missing-contract — public mutating methods in the component
               layers should carry MCS_ASSERT/MCS_INVARIANT coverage.
  hotpath      hotpath-alloc — heap allocation, std::string churn, and
               container growth reachable from per-packet/per-request entry
               points (the zero-copy work-list; interprocedural).
  shard        shard-escape — mutable globals/statics reachable from event
               handlers: the precondition audit for sharded multi-kernel
               simulation (interprocedural).
  locking      lock-order — cycles in the mutex acquisition graph and
               cond-var waits holding a second lock (interprocedural).
  arena        arena-escape — arena-backed views/pointers (Arena::copy,
               alloc_chars, BufWriter::view, functions summarized as
               returning arena memory) escaping their arena's lifetime:
               stored into long-lived fields/globals, returned from a
               function that recycles the arena, used after an invalidating
               reset/append, or handed to another thread (interprocedural;
               DESIGN.md §13).

The last four run over the project call graph (callgraph.py, DESIGN.md §11)
rather than file by file.

Suppress a finding with `// mcs-analyze: allow(<check>)` on (or directly
above) the offending line.
"""

from __future__ import annotations

import re

from model import FileModel, Finding, Project

FAMILIES = {
    "determinism": ["wallclock", "rng", "getenv", "unordered-sink",
                    "float-accum", "uninit-pod"],
    "concurrency": ["unguarded-field", "sim-escape"],
    "contracts": ["missing-contract"],
    "hotpath": ["hotpath-alloc"],
    "shard": ["shard-escape"],
    "locking": ["lock-order"],
    "arena": ["arena-escape"],
}

ALL_CHECKS = [c for checks in FAMILIES.values() for c in checks]

SEVERITY = {c: "error" for c in ALL_CHECKS}
SEVERITY["missing-contract"] = "warning"
SEVERITY["float-accum"] = "warning"
SEVERITY["hotpath-alloc"] = "warning"  # inventory check: baselined work-list
SEVERITY["shard-escape"] = "warning"  # audit check: baselined until sharding

# Files allowed to use the raw <random> machinery: the seeded wrapper itself.
RNG_EXEMPT = re.compile(r"(^|/)sim/random\.(h|cpp)$")

# Files allowed to read the host clock: the trace exporter's explicit
# wallclock anchor (obs/trace_clock.h) and the telemetry overhead stopwatch
# (obs/telemetry_clock.h). Both are opt-in measurement tools that never feed
# simulated behaviour or default outputs.
WALLCLOCK_EXEMPT = re.compile(
    r"(^|/)obs/(trace_clock|telemetry_clock)\.(h|cpp)$")

RAW_ENGINES = frozenset(
    "mt19937 mt19937_64 minstd_rand minstd_rand0 ranlux24 ranlux48 "
    "ranlux24_base ranlux48_base knuth_b default_random_engine".split())

RAND_CALLS = frozenset("rand srand random drand48 lrand48 mrand48".split())

CLOCK_MEMBERS = frozenset(
    "system_clock steady_clock high_resolution_clock".split())

OS_CLOCK_CALLS = frozenset(
    "gettimeofday clock_gettime timespec_get ftime localtime gmtime ctime "
    "asctime localtime_r gmtime_r ctime_r asctime_r localtime_s gmtime_s "
    "ctime_s asctime_s".split())

# Simulator / network / serialization calls that make unordered iteration
# order observable: as event order (scheduling, sending) or as output byte
# order (JSON, stats, trace sinks).
SCHED_SINKS = frozenset(
    "after at schedule send transmit notify_handoff".split())
OUTPUT_SINKS = frozenset(
    "key value begin_object end_object begin_array end_array raw "
    "to_json record add merge counter gauge histogram log_histogram set_value "
    "set_text log trace".split())
SINK_CALLS = SCHED_SINKS | OUTPUT_SINKS

# Receiver-name heuristic backup: calls through an object whose name says
# it is a serializer/stats sink, whatever the method is called.
SINK_RECEIVER = re.compile(
    r"(^|_)(json|writer|stats|trace|registry|snapshot)s?_?$", re.IGNORECASE)

UNORDERED_TYPES = re.compile(
    r"\bunordered_(map|set|multimap|multiset)\b")

SCALAR_WORDS = frozenset(
    "bool char short int long float double size_t ssize_t ptrdiff_t "
    "int8_t int16_t int32_t int64_t uint8_t uint16_t uint32_t uint64_t "
    "EventId unsigned signed".split())
QUALIFIER_WORDS = frozenset(
    "static mutable constexpr const volatile inline std sim".split())

CONTRACT_MACROS = frozenset(
    "MCS_ASSERT MCS_INVARIANT MCS_UNREACHABLE MCS_PRECONDITION".split())

# src/ directories whose public mutating methods are expected to carry
# contract coverage: the six component layers of the paper's system model.
COMPONENT_DIRS = ("src/net/", "src/wireless/", "src/mobileip/",
                  "src/transport/", "src/middleware/", "src/host/")

SYNC_TYPE = re.compile(
    r"\b(Mutex|MutexLock|CondVar|mutex|condition_variable(_any)?|"
    r"atomic|atomic_\w+|ThreadConfinementChecker|once_flag|barrier|latch|"
    r"shared_mutex|thread)\b")

ESCAPE_TYPES = re.compile(r"\b(Simulator|Packet)\b")

THREAD_ENTRY_CALLEES = frozenset(
    "thread submit submit_task async emplace_back push_back".split())


def _emit(out, project, fm, line, check, message):
    f = Finding(path=fm.rel, line=line, check=check,
                severity=SEVERITY[check], message=message,
                context=_line_text(fm, line))
    if project.suppressed(fm, line, check):
        f.suppressed = True
    out.append(f)


_LINE_CACHE: dict[str, list[str]] = {}


def _line_text(fm: FileModel, line: int) -> str:
    lines = _LINE_CACHE.get(fm.rel)
    if lines is None:
        try:
            lines = fm.path.read_text(encoding="utf-8",
                                      errors="replace").split("\n")
        except OSError:
            lines = []
        _LINE_CACHE[fm.rel] = lines
    if 1 <= line <= len(lines):
        return " ".join(lines[line - 1].split())
    return ""


def _prev_tok(toks, i):
    return toks[i - 1] if i > 0 else None


def _next_tok(toks, i):
    return toks[i + 1] if i + 1 < len(toks) else None


def _is_call(toks, i):
    nxt = _next_tok(toks, i)
    return nxt is not None and nxt.kind == "punct" and nxt.text == "("


def _is_member_access(toks, i):
    """True when toks[i] is accessed through `.`/`->` or a non-std `X::`."""
    prev = _prev_tok(toks, i)
    if prev is None or prev.kind != "punct":
        return False
    if prev.text in (".", "->"):
        return True
    if prev.text == "::":
        qual = toks[i - 2] if i >= 2 else None
        return not (qual is not None and qual.kind == "id"
                    and qual.text == "std")
    return False


# ---------------------------------------------------------------------------
# determinism family


def check_wallclock(project: Project, fm: FileModel, out):
    if WALLCLOCK_EXEMPT.search(fm.rel):
        return
    toks = fm.tokens
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text in CLOCK_MEMBERS:
            prev = _prev_tok(toks, i)
            if prev is not None and prev.kind == "punct" \
                    and prev.text == "::":
                qual = toks[i - 2] if i >= 2 else None
                if qual is not None and qual.kind == "id" \
                        and qual.text == "chrono":
                    _emit(out, project, fm, t.line, "wallclock",
                          f"std::chrono::{t.text}: simulated code must use "
                          "Simulator::now()")
            continue
        if t.text in ("time", "clock") and _is_call(toks, i) \
                and not _is_member_access(toks, i):
            # time(NULL/nullptr/0/&t/) and clock() only — a member named
            # `time(...)` or a local call with real args is not the libc API.
            j = i + 2
            args = []
            depth = 1
            while j < len(toks) and depth > 0:
                x = toks[j]
                if x.kind == "punct":
                    if x.text == "(":
                        depth += 1
                    elif x.text == ")":
                        depth -= 1
                        j += 1
                        continue
                if depth > 0:
                    args.append(x)
                j += 1
            texts = [a.text for a in args]
            libc_arg = (texts == [] or texts in (["NULL"], ["nullptr"], ["0"])
                        or (len(texts) == 2 and texts[0] == "&"))
            if t.text == "clock" and texts != []:
                libc_arg = False
            if libc_arg:
                _emit(out, project, fm, t.line, "wallclock",
                      f"{t.text}(): simulated code must use Simulator::now()")
            continue
        if t.text in OS_CLOCK_CALLS and _is_call(toks, i):
            _emit(out, project, fm, t.line, "wallclock",
                  f"{t.text}(): simulated code must use Simulator::now()")


def check_rng(project: Project, fm: FileModel, out):
    if RNG_EXEMPT.search(fm.rel):
        return
    toks = fm.tokens
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text == "random_device":
            _emit(out, project, fm, t.line, "rng",
                  "std::random_device: use the seeded sim::Rng instead")
        elif t.text in RAW_ENGINES:
            _emit(out, project, fm, t.line, "rng",
                  f"raw <random> engine {t.text}: use the seeded sim::Rng "
                  "instead")
        elif t.text in RAND_CALLS and _is_call(toks, i) \
                and not _is_member_access(toks, i):
            _emit(out, project, fm, t.line, "rng",
                  f"{t.text}(): use the seeded sim::Rng instead")


def check_getenv(project: Project, fm: FileModel, out):
    toks = fm.tokens
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in ("getenv", "secure_getenv") \
                and _is_call(toks, i) and not _is_member_access(toks, i):
            prev = _prev_tok(toks, i)
            if prev is not None and prev.kind == "punct" \
                    and prev.text == "::":
                qual = toks[i - 2] if i >= 2 else None
                if qual is not None and qual.kind == "id" \
                        and qual.text != "std":
                    continue
            _emit(out, project, fm, t.line, "getenv",
                  f"{t.text}(): environment reads make runs "
                  "host-configuration-dependent; plumb the value through "
                  "run options instead")


def _container_is_unordered(project: Project, fm: FileModel, loop) -> bool:
    resolved = getattr(loop, "resolved_type", None)
    if resolved is not None:  # AST frontend resolved the exact type
        return "unordered_" in resolved
    toks = loop.container_tokens
    text = " ".join(t.text for t in toks)
    if UNORDERED_TYPES.search(text):
        return True  # inline temporary or decltype spelling
    # Resolve `name`, `obj.name`, `obj->name`, `name()` to a declared type.
    ids = [t for t in toks if t.kind == "id"]
    if not ids:
        return False
    base = ids[-1].text
    ty = None
    if loop.func is not None:
        ty = loop.func.locals.get(base)
        if ty is None and loop.func.cls_name:
            ci = project.class_index.get(loop.func.cls_name)
            if ci is not None:
                mem = ci.member(base)
                if mem is not None:
                    ty = mem.type_text
                else:
                    # accessor: `for (auto& kv : table())`
                    for m in ci.method_named(base):
                        pass  # return types aren't modeled; fall through
    if ty is None:
        # last resort: any class in the project with a member of this name
        for ci in project.class_index.values():
            mem = ci.member(base)
            if mem is not None and UNORDERED_TYPES.search(mem.type_text):
                return True
        return False
    return bool(UNORDERED_TYPES.search(ty))


def _body_sinks(project: Project, fm: FileModel, body, depth=1):
    """Scan a token body for sink calls; returns (call_name, line) or None.
    Expands one level into project-local callees so a loop that serializes
    via a helper is still caught."""
    toks = fm.tokens
    start, end = body
    for i in range(start + 1, end):
        t = toks[i]
        if t.kind != "id" or not _is_call(toks, i):
            continue
        if t.text in SINK_CALLS:
            if t.text in OUTPUT_SINKS:
                # demand a receiver for the generic output names, so a free
                # function called add() doesn't trip the check
                prev = _prev_tok(toks, i)
                if t.text in ("add", "merge", "log", "trace", "raw",
                              "key", "value"):
                    if prev is None or prev.kind != "punct" \
                            or prev.text not in (".", "->"):
                        continue
            return (t.text, t.line)
        recv = _prev_tok(toks, i)
        if recv is not None and recv.kind == "punct" \
                and recv.text in (".", "->") and i >= 2 \
                and toks[i - 2].kind == "id" \
                and SINK_RECEIVER.search(toks[i - 2].text):
            return (t.text, t.line)
        if depth > 0:
            for fn in project.function_index.get(t.text, ()):
                # only expand same-file or same-class helpers; cross-file
                # name collisions would be guesswork
                if fn.path == fm.rel:
                    file_model = project_file(project, fn.path)
                    if file_model is not None:
                        hit = _body_sinks(project, file_model, fn.body,
                                          depth - 1)
                        if hit is not None:
                            return (f"{t.text}() -> {hit[0]}", t.line)
    return None


def project_file(project: Project, rel: str):
    for fm in project.files:
        if fm.rel == rel:
            return fm
    return None


def check_unordered_sink(project: Project, fm: FileModel, out):
    for loop in fm.loops:
        if not _container_is_unordered(project, fm, loop):
            continue
        hit = _body_sinks(project, fm, loop.body)
        if hit is None:
            continue
        call, _ = hit
        base = next((t.text for t in reversed(loop.container_tokens)
                     if t.kind == "id"), "<expr>")
        _emit(out, project, fm, loop.line, "unordered-sink",
              f"iterating unordered container '{base}' while reaching sink "
              f"'{call}': hash order becomes event/output order; iterate a "
              "deterministic container or collect and sort first")


def _float_typed(name, loop, project):
    if loop.func is not None:
        ty = loop.func.locals.get(name)
        if ty is not None:
            return "double" in ty or "float" in ty
        if loop.func.cls_name:
            ci = project.class_index.get(loop.func.cls_name)
            if ci is not None:
                mem = ci.member(name)
                if mem is not None:
                    return ("double" in mem.type_text
                            or "float" in mem.type_text)
    return False


def check_float_accum(project: Project, fm: FileModel, out):
    """`sum += x` on a float/double inside an unordered-container loop:
    accumulation order is hash-seed dependent and float addition does not
    commute bit-for-bit, so the result is not replayable."""
    toks = fm.tokens
    for loop in fm.loops:
        if not _container_is_unordered(project, fm, loop):
            continue
        start, end = loop.body
        for i in range(start + 1, end):
            t = toks[i]
            if t.kind != "punct" or t.text not in ("+=", "-=", "*="):
                continue
            lhs = _prev_tok(toks, i)
            if lhs is None or lhs.kind != "id":
                continue
            if _float_typed(lhs.text, loop, project):
                _emit(out, project, fm, t.line, "float-accum",
                      f"floating-point accumulation '{lhs.text} {t.text}' "
                      "inside unordered iteration: sum order is hash-seed "
                      "dependent; accumulate into a sorted copy instead")


def _is_scalar_member(type_text: str) -> bool:
    words = [w for w in type_text.replace("*", " * ").replace("&", " ")
             .split() if w != "::"]
    core = [w for w in words if w not in QUALIFIER_WORDS]
    if not core:
        return False
    for w in core:
        if w == "*":
            continue
        if w not in SCALAR_WORDS:
            return False
    return True


def check_uninit_pod(project: Project, fm: FileModel, out):
    for ci in fm.classes:
        for mem in ci.members.values():
            if mem.has_init or mem.is_static:
                continue
            if mem.is_const:
                # const members cannot be assigned later; every constructor
                # must initialize them or the TU does not compile, so they
                # can never be read indeterminate.
                continue
            if not _is_scalar_member(mem.type_text):
                continue
            _emit(out, project, fm, mem.line, "uninit-pod",
                  f"scalar member '{mem.name}' has no initializer: "
                  "default-initialize at the declaration so replay never "
                  "reads indeterminate memory")


# ---------------------------------------------------------------------------
# concurrency family


def _is_thread_entry(lam) -> bool:
    if lam.context_callee is None:
        return False
    if lam.context_callee == "thread":
        return True
    if lam.context_callee in ("submit", "submit_task", "async"):
        return True
    if lam.context_callee in ("emplace_back", "push_back"):
        recv = lam.context_receiver or ""
        return "worker" in recv or "thread" in recv
    return False


def _member_is_thread_ok(mem) -> bool:
    if mem.guarded_by is not None:
        return True  # -Wthread-safety enforces the lock discipline from here
    if mem.is_thread_local or mem.is_const or mem.is_static:
        return True  # static: assumed set up before threads start
    return bool(SYNC_TYPE.search(mem.type_text))


def _touched_members(project, fm, ci, body, depth=1, seen=None):
    """Members of `ci` referenced in a token body, following same-class
    method calls one level deep (worker entry usually just calls a loop)."""
    if seen is None:
        seen = set()
    toks = fm.tokens
    start, end = body
    touched = {}
    for i in range(start + 1, end):
        t = toks[i]
        if t.kind != "id":
            continue
        prev = _prev_tok(toks, i)
        if prev is not None and prev.kind == "punct" \
                and prev.text in (".", "->", "::"):
            qual = toks[i - 2] if i >= 2 else None
            this_access = (prev.text == "->" and qual is not None
                           and qual.kind == "id" and qual.text == "this")
            if not this_access:
                continue  # access through some other object
        mem = ci.member(t.text)
        if mem is not None:
            touched.setdefault(t.text, (mem, t.line))
            continue
        if depth > 0 and _is_call(toks, i) and t.text not in seen:
            for m in ci.method_named(t.text):
                if m.body is not None:
                    seen.add(t.text)
                    sub = _touched_members(project, fm, ci, m.body,
                                           depth - 1, seen)
                    for name, v in sub.items():
                        touched.setdefault(name, v)
    return touched


def check_unguarded_field(project: Project, fm: FileModel, out):
    for lam in fm.lambdas:
        if not _is_thread_entry(lam):
            continue
        caps = {kind for kind, _ in lam.captures}
        if "this" not in caps and "default_ref" not in caps \
                and "default_val" not in caps:
            continue  # no path to class fields without a this capture
        if lam.func is None or lam.func.cls_name is None:
            continue
        ci = project.class_index.get(lam.func.cls_name)
        if ci is None:
            continue
        for name, (mem, line) in sorted(
                _touched_members(project, fm, ci, lam.body).items()):
            if _member_is_thread_ok(mem):
                continue
            _emit(out, project, fm, line, "unguarded-field",
                  f"field '{ci.name}::{name}' is touched from a thread-entry "
                  "lambda but is not MCS_GUARDED_BY-annotated, atomic, "
                  "thread_local, or const")


def check_sim_escape(project: Project, fm: FileModel, out):
    for lam in fm.lambdas:
        if not _is_thread_entry(lam):
            continue
        for kind, name in lam.captures:
            if kind in ("default_ref", "default_val", "this", ""):
                continue
            ty = None
            if lam.func is not None:
                ty = lam.func.locals.get(name)
                if ty is None and lam.func.cls_name:
                    ci = project.class_index.get(lam.func.cls_name)
                    if ci is not None:
                        mem = ci.member(name)
                        if mem is not None:
                            ty = mem.type_text
            if ty is not None and ESCAPE_TYPES.search(ty):
                _emit(out, project, fm, lam.line, "sim-escape",
                      f"capture '{name}' ({ty}) hands a simulator-owned "
                      "object to another thread: Simulator and Packet are "
                      "cell-thread confined by design (DESIGN.md §9)")


# ---------------------------------------------------------------------------
# contracts family


def _body_statement_count(fm: FileModel, body) -> int:
    toks = fm.tokens
    start, end = body
    return sum(1 for i in range(start + 1, end)
               if toks[i].kind == "punct" and toks[i].text == ";")


def _body_has_contract(fm: FileModel, body) -> bool:
    toks = fm.tokens
    start, end = body
    return any(toks[i].kind == "id" and toks[i].text in CONTRACT_MACROS
               for i in range(start + 1, end))


def _find_method_body(project: Project, ci, method):
    """Inline body, else the out-of-class definition from any file."""
    if method.body is not None:
        return project_file_for_class(project, ci), method.body
    for fn in project.function_index.get(method.name, ()):
        if fn.cls_name == ci.name:
            return project_file(project, fn.path), fn.body
    return None, None


def project_file_for_class(project: Project, ci):
    return project_file(project, ci.path)


def check_missing_contract(project: Project, fm: FileModel, out):
    if not any(fm.rel.startswith(d) or ("/" + d) in fm.rel
               for d in COMPONENT_DIRS):
        return
    for ci in fm.classes:
        for m in ci.methods:
            if m.access != "public" or m.is_const or m.is_special \
                    or m.is_static:
                continue
            if m.name in ("clear", "reset"):  # trivial by convention here
                continue
            body_fm, body = _find_method_body(project, ci, m)
            if body_fm is None or body is None:
                continue
            if _body_statement_count(body_fm, body) < 2:
                continue  # one-line setters don't need a contract
            if _body_has_contract(body_fm, body):
                continue
            _emit(out, project, fm, m.line, "missing-contract",
                  f"public mutating method '{ci.name}::{m.name}' has no "
                  "MCS_ASSERT/MCS_INVARIANT coverage (see DESIGN.md §6)")


# ---------------------------------------------------------------------------
# interprocedural families: hotpath-alloc / shard-escape / lock-order.
# These run once per project over the shared call graph (callgraph.py),
# not once per file. DESIGN.md §11 documents the model and its limits.

# Per-packet / per-request entry points of the paper's six-component pipeline
# (browser -> wireless -> transport -> Mobile IP -> gateway -> host), plus the
# JSON stats export. Reachability from any of these anchors hotpath-alloc
# (allocation on a per-event path) and shard-escape (every shard kernel runs
# all components, so one reachable shared mutable object already means
# cross-kernel sharing).
HOTPATH_ENTRIES = (
    ("browser", "MicroBrowser", "browse"),
    ("wireless", "WirelessMedium", "transmit"),
    ("wireless", "WirelessMedium", "deliver"),
    ("net", "Node", "send"),
    ("net", "Node", "receive"),
    ("net", "Link", "transmit"),
    ("transport", "TcpSocket", "send"),
    ("transport", "TcpSocket", "on_packet"),
    ("transport", "WtpEndpoint", "invoke"),
    ("transport", "WtpEndpoint", "on_datagram"),
    ("mobileip", "HomeAgent", "tunnel_to"),
    ("mobileip", "ForeignAgent", "on_tunnel_packet"),
    # PR 8: the gateways translate through the fused zero-copy pipeline
    # (translate.cpp); the legacy tree pipeline (html_to_wml/html_to_chtml/
    # wbxml_encode) remains as the reference implementation for the
    # translate equivalence tests but is off the per-request path.
    ("gateway", None, "translate_html"),
    ("host", "HttpServer", "request"),
    ("host", "DbServer", "on_line"),
    ("export", "StatsRegistry", "to_json"),
)

ALLOC_CALLS = frozenset(
    "make_unique make_shared allocate_shared to_string substr strf "
    "vstrf".split())

GROWTH_CALLS = frozenset(
    "push_back emplace_back emplace insert append".split())

STRING_TYPES = frozenset("string ostringstream stringstream".split())

LOCK_WRAPPERS = frozenset(
    "MutexLock lock_guard unique_lock scoped_lock shared_lock".split())

MUTEX_TYPE = re.compile(
    r"\b(Mutex|mutex|shared_mutex|recursive_mutex|timed_mutex)\b")

CONDVAR_TYPE = re.compile(r"\b(CondVar|condition_variable(_any)?)\b")


def _hotpath_reach(project: Project):
    """(callgraph, reach, entry_meta): reach maps every FunctionDef reachable
    from a HOTPATH_ENTRIES definition to the entry that first reached it;
    entry_meta maps entry FunctionDefs to ('Cls::name'|'name', component).
    Memoized on the project so both interprocedural reachability checks and
    the selftest share one BFS."""
    cached = getattr(project, "_hotpath_reach", None)
    if cached is not None:
        return cached
    cg = project.callgraph()
    entry_meta = {}
    entries = []
    for component, cls, method in HOTPATH_ENTRIES:
        for fn in cg.functions_named(cls, method):
            if fn not in entry_meta:
                label = f"{cls}::{method}" if cls else method
                entry_meta[fn] = (label, component)
                entries.append(fn)
    reach = cg.reachable(entries)
    project._hotpath_reach = (cg, reach, entry_meta)
    return project._hotpath_reach


def check_hotpath_alloc(project: Project, out):
    """Allocation, std::string churn, and container growth reachable from a
    per-packet/per-request entry point. One finding per (function, signal
    kind), anchored at the first offending line: the committed inventory is
    the zero-copy roadmap work-list, so it must stay reviewable, not
    enumerate every call site.

    Non-signals (PR 8): the sim/arena.h vocabulary (BufWriter, Arena, cat,
    build — writes into caller-reserved reused capacity or a single
    right-sized allocation, see DESIGN.md §12), and alloc/growth-named calls
    that resolve *definitively* to project-defined functions — those callee
    bodies are in this very scan, so flagging the call site would
    double-count the allocation away from its source (std::string::append
    and friends still flag: their receiver resolves to no project class)."""
    cg, reach, entry_meta = _hotpath_reach(project)
    for fn in reach:
        fm = cg.file_of(fn)
        if fm is None:
            continue
        if fm.rel.endswith("sim/arena.h"):
            continue  # the audited zero-copy vocabulary itself
        entry_fn, _ = reach[fn]
        label, component = entry_meta[entry_fn]
        qual = f"{fn.cls_name}::{fn.name}" if fn.cls_name else fn.name
        toks = fm.tokens
        start, end = fn.body
        sites: dict[str, list[int]] = {}

        def lands_in_project(i) -> bool:
            return bool(cg._resolve(fm, fn, toks, i, allow_fallback=False))

        for i in range(start + 1, end):
            t = toks[i]
            if t.kind != "id":
                continue
            prev = _prev_tok(toks, i)
            nxt = _next_tok(toks, i)
            if t.text == "new" \
                    and not (prev is not None and prev.text == "operator"):
                sites.setdefault("operator new", []).append(t.line)
            elif t.text in ALLOC_CALLS and _is_call(toks, i) \
                    and not lands_in_project(i):
                sites.setdefault("allocating calls "
                                 "(make_*/to_string/substr/strf)",
                                 []).append(t.line)
            elif t.text in GROWTH_CALLS and _is_call(toks, i) \
                    and prev is not None and prev.text in (".", "->") \
                    and not lands_in_project(i):
                sites.setdefault("container growth "
                                 "(push_back/insert/append)",
                                 []).append(t.line)
            elif t.text in STRING_TYPES \
                    and not (prev is not None and prev.text in (".", "->")) \
                    and nxt is not None \
                    and (nxt.kind == "id"
                         or (nxt.kind == "punct" and nxt.text in ("(", "{"))):
                sites.setdefault("std::string construction", []).append(t.line)
        for ty, name in fn.params:
            if "string" in ty and "&" not in ty and "*" not in ty \
                    and "view" not in ty:
                sites.setdefault("by-value std::string parameter",
                                 []).append(fn.line)
        for kind in sorted(sites):
            lines = sites[kind]
            _emit(out, project, fm, min(lines), "hotpath-alloc",
                  f"hot path '{qual}' (reachable from entry '{label}' "
                  f"[{component}]) performs {kind}: {len(lines)} site(s), "
                  "first here — zero-copy work-list (DESIGN.md §11)")


def _shard_components(reach, entry_meta, fns):
    comps = set()
    for fn in fns:
        hit = reach.get(fn)
        if hit is not None:
            comps.add(entry_meta[hit[0]][1])
    return sorted(comps)


def check_shard_escape(project: Project, out):
    """Mutable globals/statics referenced from code reachable from hot-path
    entry points. Synchronized types (atomic/Mutex/...) and thread_local are
    accepted: the audit is for *racy* cross-kernel sharing; determinism of
    synchronized shared state is the determinism family's concern. Instance
    aliasing across components is left to the runtime
    ThreadConfinementChecker (soundness limit, DESIGN.md §11)."""
    cg, reach, entry_meta = _hotpath_reach(project)

    # Candidate shared state: name -> list of (name, kind, decl_fm,
    # decl_line, owner ClassInfo or None).
    candidates: dict[str, list] = {}
    for fm in project.files:
        for gv in fm.globals:
            if gv.is_const or gv.is_thread_local \
                    or SYNC_TYPE.search(gv.type_text):
                continue
            candidates.setdefault(gv.name, []).append(
                (gv.name, "mutable global", fm, gv.line, None))
        for ci in fm.classes:
            for mem in ci.members.values():
                if not mem.is_static or mem.is_const or mem.is_thread_local \
                        or SYNC_TYPE.search(mem.type_text):
                    continue
                candidates.setdefault(mem.name, []).append(
                    (mem.name, "mutable static member", fm, mem.line, ci))

    # One pass over reachable function bodies: which candidates are touched,
    # and from which entry components.
    refs: dict[int, list] = {}  # id(candidate record) -> [fn, ...]
    for fn in reach:
        fm = cg.file_of(fn)
        if fm is None:
            continue
        toks = fm.tokens
        start, end = fn.body
        family = set(cg._family(fn.cls_name)) if fn.cls_name else set()
        for i in range(start + 1, end):
            t = toks[i]
            if t.kind != "id" or t.text not in candidates:
                continue
            prev = _prev_tok(toks, i)
            if prev is not None and prev.text in (".", "->"):
                continue  # instance member of some object, not our static
            if t.text in fn.locals:
                continue  # shadowed by a local
            for rec in candidates[t.text]:
                owner = rec[4]
                if owner is not None:
                    qual = toks[i - 2] if i >= 2 else None
                    qualified = (prev is not None and prev.text == "::"
                                 and qual is not None
                                 and qual.text == owner.name)
                    if not qualified and owner.name not in family:
                        continue
                refs.setdefault(id(rec), (rec, []))[1].append(fn)

        # Function-local statics inside hot-path code are shared across every
        # kernel that runs this function.
        for decl_line, name in _local_statics(toks, start, end):
            entry_fn, _ = reach[fn]
            label, component = entry_meta[entry_fn]
            qual = f"{fn.cls_name}::{fn.name}" if fn.cls_name else fn.name
            _emit(out, project, fm, decl_line, "shard-escape",
                  f"function-local static '{name}' in '{qual}' (reachable "
                  f"from entry '{label}' [{component}]) is one object shared "
                  "by every shard kernel — make it thread_local, per-kernel, "
                  "or const")

    for rec, fns in refs.values():
        name, kind, decl_fm, decl_line, owner = rec
        comps = _shard_components(reach, entry_meta, fns)
        if not comps:
            continue
        shown = f"{owner.name}::{name}" if owner is not None else name
        _emit(out, project, decl_fm, decl_line, "shard-escape",
              f"{kind} '{shown}' is reached from hot-path entry points "
              f"({', '.join(comps)}); sharded kernels would race on it — "
              "make it per-kernel, thread_local, atomic, or lock-guarded")


def _local_statics(toks, start, end):
    """(line, name) for mutable non-thread_local `static` declarations inside
    a function body."""
    out = []
    i = start + 1
    while i < end:
        t = toks[i]
        if t.kind == "id" and t.text == "static":
            decl = []
            j = i + 1
            stop = None
            depth = 0
            while j < end:
                tj = toks[j]
                if tj.kind == "punct":
                    if tj.text in ("<", "(", "[", "{") and stop is None:
                        if tj.text == "<":
                            depth += 1
                        elif depth == 0:
                            stop = tj.text
                            break
                    elif tj.text in (">", ">>"):
                        depth -= 2 if tj.text == ">>" else 1
                    elif tj.text in (";", "=") and depth == 0:
                        stop = tj.text
                        break
                elif tj.kind == "id" and depth == 0:
                    decl.append(tj)
                j += 1
            words = {d.text for d in decl}
            if decl and stop is not None \
                    and not words & {"const", "constexpr", "thread_local",
                                     "assert"} \
                    and not SYNC_TYPE.search(" ".join(words)):
                out.append((t.line, decl[-1].text))
            i = j
        i += 1
    return out


def check_lock_order(project: Project, out):
    """Build the mutex acquisition graph (RAII wrappers + direct .lock())
    across the whole call graph; report acquisition-order cycles, same-mutex
    re-acquisition in scope (sim::Mutex is non-recursive), and cond-var waits
    holding a second lock. unlock() before scope end is ignored
    (conservative; DESIGN.md §11)."""
    cg = project.callgraph()

    sites: dict = {}  # FunctionDef -> (acqs, waits); see _lock_sites
    for fm in project.files:
        for fn in fm.functions:
            sites[fn] = _lock_sites(cg, fm, fn)

    # Transitive set of mutexes a function may acquire (cycle-safe memo).
    closure_memo: dict = {}

    def closure(fn, visiting=None):
        got = closure_memo.get(fn)
        if got is not None:
            return got
        if visiting is None:
            visiting = set()
        if fn in visiting:
            return set()
        visiting.add(fn)
        acc = {a[0] for a in sites.get(fn, ((), ()))[0]}
        for callee, _line in cg.edges.get(fn, ()):
            acc |= closure(callee, visiting)
        visiting.discard(fn)
        closure_memo[fn] = acc
        return acc

    # held-before edges: (a, b) -> first (path, line) where b is taken with
    # a held; plus immediate findings for re-acquisition and cond-var waits.
    edge_sites: dict = {}

    def add_edge(a, b, fm, line):
        key = (a, b)
        at = (fm.rel, line)
        if key not in edge_sites or at < edge_sites[key][0]:
            edge_sites[key] = (at, fm)

    for fm in project.files:
        for fn in fm.functions:
            acqs, waits = sites[fn]
            for b in acqs:
                held = [a for a in acqs
                        if a[1] < b[1] and a[4] > b[1]]  # tok order, in scope
                for a in held:
                    if a[0] == b[0]:
                        _emit(out, project, fm, b[2], "lock-order",
                              f"mutex '{b[0]}' acquired again while already "
                              "held in this scope (sim::Mutex is "
                              "non-recursive: self-deadlock)")
                    else:
                        add_edge(a[0], b[0], fm, b[2])
            for w_tok, w_line, w_canon in waits:
                held = sorted({a[0] for a in acqs
                               if a[1] < w_tok and a[4] > w_tok})
                if len(held) >= 2:
                    _emit(out, project, fm, w_line, "lock-order",
                          f"cond-var wait on '{w_canon}' while holding "
                          f"{len(held)} locks ({', '.join(held)}) — the "
                          "waker needs the second lock too; deadlock risk")
            # Calls made while holding a lock: everything the callee may
            # acquire orders after the held mutex.
            for callee, line in cg.edges.get(fn, ()):
                held = [a for a in acqs if a[3] <= line <= a[5]]
                if not held:
                    continue
                for m in sorted(closure(callee)):
                    for a in held:
                        if m != a[0]:
                            add_edge(a[0], m, fm, line)

    # Cycle detection over the acquisition-order graph.
    adj: dict = {}
    for a, b in edge_sites:
        adj.setdefault(a, set()).add(b)

    def reaches(src, dst):
        seen = set()
        work = [src]
        while work:
            n = work.pop()
            if n == dst:
                return True
            if n in seen:
                continue
            seen.add(n)
            work.extend(adj.get(n, ()))
        return False

    for (a, b) in sorted(edge_sites):
        if not reaches(b, a):
            continue
        (_path, line), fm = edge_sites[(a, b)]
        rev = edge_sites.get((b, a))
        hint = f"; reverse order at {rev[0][0]}:{rev[0][1]}" if rev else ""
        _emit(out, project, fm, line, "lock-order",
              f"lock-order cycle: '{a}' held while acquiring '{b}' here, "
              f"but '{b}' can be held while acquiring '{a}'{hint} — pick "
              "one global acquisition order")


def _lock_sites(cg, fm, fn):
    """Scan one function body for mutex acquisitions and cond-var waits.

    Returns (acqs, waits):
      acqs:  [(canon, tok_idx, line, line, end_line, end_line_tok)] — actually
             (canon, tok_idx, line, start_line, scope_end_tok, end_line)
      waits: [(tok_idx, line, canon)]
    """
    toks = fm.tokens
    start, end = fn.body
    acqs = []  # (canon, tok_idx, line, start_line, scope_end_tok, end_line)
    waits = []
    open_stack = [start]
    pending = []  # acquisitions waiting for their scope to close
    i = start + 1
    while i < end:
        t = toks[i]
        if t.kind == "punct":
            if t.text == "{":
                open_stack.append(i)
            elif t.text == "}":
                b = open_stack.pop() if len(open_stack) > 1 else start
                for rec in pending:
                    if rec["open"] == b:
                        rec["scope_end"] = i
                        rec["end_line"] = t.line
            i += 1
            continue
        if t.kind != "id":
            i += 1
            continue
        if t.text in LOCK_WRAPPERS:
            j = i + 1
            if j < end and toks[j].kind == "punct" and toks[j].text == "<":
                depth = 1
                j += 1
                while j < end and depth:
                    if toks[j].text == "<":
                        depth += 1
                    elif toks[j].text in (">", ">>"):
                        depth -= 2 if toks[j].text == ">>" else 1
                    j += 1
            if j < end and toks[j].kind == "id":
                j += 1  # variable name
            if j < end and toks[j].kind == "punct" \
                    and toks[j].text in ("{", "("):
                close = "}" if toks[j].text == "{" else ")"
                expr = []
                j += 1
                depth = 1
                while j < end and depth:
                    if toks[j].text in ("{", "("):
                        depth += 1
                    elif toks[j].text in ("}", ")"):
                        depth -= 1
                        if not depth:
                            break
                    expr.append(toks[j])
                    j += 1
                canon = _canon_mutex(cg, fm, fn, expr)
                if canon is not None:
                    rec = {"canon": canon, "tok": i, "line": t.line,
                           "open": open_stack[-1], "scope_end": end,
                           "end_line": toks[end].line if end < len(toks)
                           else t.line}
                    pending.append(rec)
                i = j
        elif t.text == "lock" and _is_call(toks, i):
            prev = _prev_tok(toks, i)
            if prev is not None and prev.text in (".", "->"):
                recv = toks[i - 2] if i >= 2 else None
                if recv is not None and recv.kind == "id":
                    canon, is_mutex = _canon_receiver(cg, fm, fn, recv.text,
                                                     MUTEX_TYPE)
                    if is_mutex:
                        rec = {"canon": canon, "tok": i, "line": t.line,
                               "open": open_stack[-1], "scope_end": end,
                               "end_line": toks[end].line if end < len(toks)
                               else t.line}
                        pending.append(rec)
        elif t.text in ("wait", "wait_for", "wait_until") \
                and _is_call(toks, i):
            prev = _prev_tok(toks, i)
            if prev is not None and prev.text in (".", "->"):
                recv = toks[i - 2] if i >= 2 else None
                if recv is not None and recv.kind == "id":
                    canon, is_cv = _canon_receiver(cg, fm, fn, recv.text,
                                                  CONDVAR_TYPE)
                    if is_cv:
                        waits.append((i, t.line, canon))
        i += 1
    # (canon, tok_idx, line, start_line, scope_end_tok, end_line)
    acqs = [(r["canon"], r["tok"], r["line"], r["line"], r["scope_end"],
             r["end_line"]) for r in pending]
    acqs.sort(key=lambda a: a[1])
    return acqs, waits


def _canon_mutex(cg, fm, fn, expr_toks):
    """Canonical name for the mutex expression inside MutexLock{...}."""
    ids = [t for t in expr_toks if t.kind == "id"]
    if not ids:
        return None
    name = ids[-1].text
    # receiver-qualified: obj.mu_ / obj->mu_ / Cls::mu_
    for k, t in enumerate(expr_toks):
        if t is ids[-1] and k >= 2 and expr_toks[k - 1].kind == "punct":
            p = expr_toks[k - 1].text
            r = expr_toks[k - 2]
            if p in (".", "->") and r.kind == "id":
                if r.text == "this":
                    return f"{fn.cls_name}::{name}"
                cls = cg._receiver_class(fm, fn, r.text)
                return f"{cls}::{name}" if cls else f"?::{name}"
            if p == "::" and r.kind == "id":
                return f"{r.text}::{name}"
    canon, _ = _canon_receiver(cg, fm, fn, name, MUTEX_TYPE)
    return canon


def _canon_receiver(cg, fm, fn, name, type_re):
    """(canonical name, type-matches) for a bare identifier: enclosing-class
    member, file global, then local."""
    if fn.cls_name:
        for c in cg._family(fn.cls_name):
            ci = cg.project.class_index.get(c)
            mem = ci.member(name) if ci is not None else None
            if mem is not None:
                return (f"{ci.name}::{name}",
                        bool(type_re.search(mem.type_text)))
    for gv in fm.globals:
        if gv.name == name:
            return f"::{name}", bool(type_re.search(gv.type_text))
    ty = fn.locals.get(name)
    if ty is not None:
        return (f"{fn.path}:{fn.name}:{name}", bool(type_re.search(ty)))
    return f"?::{name}", False


# ---------------------------------------------------------------------------
# arena family (DESIGN.md §13)
#
# arena-escape tracks arena-backed values — results of Arena::copy /
# alloc_chars / allocate (directly or through any function the summary fixed
# point proves returns arena memory), BufWriter::view() slices, and members
# reached through arena-resident nodes — on a three-point lattice per local:
#
#   arena-tainted   points into recyclable storage
#   stable/owning   deep-copied into owned storage (std::string, cat, build)
#   unknown         everything else; never reported
#
# and reports four escape shapes:
#   (a) tainted value stored into a view-typed field or namespace-scope
#       global whose owner outlives the arena (silence: MCS_ARENA_STABLE on
#       the field/global, MCS_OWNS_ARENA on the class);
#   (b) tainted value returned from a function that also ends the arena's
#       lifetime — opens an ArenaScope, leases from an ArenaPool, or calls
#       reset()/rewind() (silence: MCS_ARENA_STABLE on the function);
#   (c) use of a view after the operation that invalidated it: a BufWriter
#       append after view(), or any arena reset()/rewind() over a live
#       tainted local;
#   (d) thread-entry lambda capturing an arena handle, scratch slot, or
#       tainted view: arena memory is thread-confined (arena.h's
#       ThreadConfinementChecker enforces the same at runtime).

ARENA_ALLOC_METHODS = frozenset("allocate alloc_chars copy".split())
# BufWriter mutators that may reallocate the underlying string and so
# invalidate every view() previously taken from the same writer.
WRITER_MUTATORS = frozenset("put ch rep u64 i64 f need".split())
# Methods on a tainted receiver whose result still points into the arena.
VIEW_CARRYING = frozenset(
    "data c_str begin end front back substr".split())
# Heads of expressions that deep-copy their inputs: assigning or returning
# one of these kills taint even when the declared type is auto.
OWNING_HEADS = frozenset("string cat build to_string u64s i64s".split())

ARENA_SCOPE_TYPE = re.compile(r"\bArenaScope\b")
ARENA_WRITER_TYPE = re.compile(r"\bBufWriter\b")
ARENA_HANDLE_TYPE = re.compile(r"\b(Arena|ArenaPool|Lease)\b")
ARENA_VIEW_TYPE = re.compile(r"\b(Slice|string_view)\b|\*")
ARENA_OWNING_TYPE = re.compile(r"\b(string|NumStr)\b")


def _arena_family_member(project, cg, cls_name, name):
    """(ClassInfo, Member) for `name` looked up through the class family."""
    for c in cg._family(cls_name):
        ci = project.class_index.get(c)
        if ci is not None:
            mem = ci.member(name)
            if mem is not None:
                return ci, mem
    return None, None


def _arena_fn_stable(project, cg, fn) -> bool:
    """MCS_ARENA_STABLE on the definition or the in-class declaration."""
    if fn.arena_stable:
        return True
    if fn.cls_name:
        for c in cg._family(fn.cls_name):
            ci = project.class_index.get(c)
            if ci is None:
                continue
            for m in ci.method_named(fn.name):
                if m.arena_stable:
                    return True
    return False


def _arena_stmt_end(toks, i, end):
    """Token index of the `;` (or closing bracket) ending the statement."""
    depth = 0
    while i < end:
        t = toks[i]
        if t.kind == "punct":
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                if depth == 0:
                    return i
                depth -= 1
            elif t.text == ";" and depth == 0:
                return i
        i += 1
    return end


def _arena_owning_head(toks, lo, hi) -> bool:
    """True when the expression at [lo, hi) is headed by a deep copy:
    std::string{...}, cat(...), build(...), u64s/i64s, to_string."""
    k = lo
    while k < hi:
        t = toks[k]
        if t.kind == "id":
            if t.text in ("std", "sim", "mcs"):
                k += 1
                continue
            return t.text in OWNING_HEADS
        if t.kind == "punct" and t.text == "::":
            k += 1
            continue
        return False
    return False


class _ArenaState:
    """Per-function result of _arena_flow."""

    __slots__ = ("returns_tainted", "findings", "tainted", "handles")

    def __init__(self):
        self.returns_tainted = False
        self.findings = []  # [(line, message)]
        self.tainted = {}  # local -> first-taint line
        self.handles = {}  # local -> 'arena' | 'scope' | 'writer' | 'scratch'


def _arena_flow(project, cg, fm, fn, returns_arena, globals_by_name,
                report) -> _ArenaState:
    """Single linear walk of fn's body tokens. With report=False only the
    returns_tainted summary bit is computed (the fixed-point phase); with
    report=True escape findings are collected too."""
    st = _ArenaState()
    toks = fm.tokens
    start, end = fn.body
    tainted = st.tainted
    handles = st.handles
    views = {}  # view local -> BufWriter local it was taken from
    killed = {}  # local -> (line, why): invalidated, use = finding (c)
    recycle = None  # (line, why) evidence this fn ends an arena lifetime

    for name, ty in fn.locals.items():
        if ARENA_SCOPE_TYPE.search(ty):
            handles[name] = "scope"
            recycle = recycle or (fn.line, f"opens ArenaScope '{name}'")
        elif ARENA_WRITER_TYPE.search(ty):
            handles[name] = "writer"
        elif ARENA_HANDLE_TYPE.search(ty):
            handles[name] = "arena"
            if "Lease" in ty:
                recycle = recycle or (fn.line,
                                      f"holds pool lease '{name}'")

    def span_tainted(lo, hi):
        """Does the expression at [lo, hi) evaluate to arena-backed memory?"""
        if _arena_owning_head(toks, lo, hi):
            return False
        k = lo
        while k < hi:
            t = toks[k]
            if t.kind != "id":
                k += 1
                continue
            prev = _prev_tok(toks, k)
            accessed = (prev is not None and prev.kind == "punct"
                        and prev.text in (".", "->", "::"))
            if _is_call(toks, k):
                if t.text in ARENA_ALLOC_METHODS and accessed \
                        and prev.text in (".", "->") \
                        and toks[k - 2].kind == "id" \
                        and handles.get(toks[k - 2].text) == "arena":
                    return True
                if not (accessed and prev.text == "::"
                        and toks[k - 2].text == "std"):
                    for callee in cg._resolve(fm, fn, toks, k,
                                              allow_fallback=False):
                        if callee in returns_arena:
                            return True
            elif not accessed and t.text in tainted:
                # v.size() yields a scalar, not the pointer; v.data() (and
                # friends) still carries it. Bare v / v->field carries it.
                nxt = _next_tok(toks, k)
                if nxt is not None and nxt.kind == "punct" \
                        and nxt.text in (".", "->") \
                        and k + 2 < hi and toks[k + 2].kind == "id" \
                        and _is_call(toks, k + 2) \
                        and toks[k + 2].text not in VIEW_CARRYING:
                    k += 1
                    continue
                return True
            k += 1
        return False

    def span_view_writer(lo, hi):
        """BufWriter local whose .view() heads the expression, else None."""
        k = lo
        while k < hi:
            t = toks[k]
            if t.kind == "id" and t.text == "view" and _is_call(toks, k):
                prev = _prev_tok(toks, k)
                if prev is not None and prev.kind == "punct" \
                        and prev.text in (".", "->") \
                        and toks[k - 2].kind == "id" \
                        and handles.get(toks[k - 2].text) == "writer":
                    return toks[k - 2].text
            k += 1
        return None

    def span_acquires_lease(lo, hi):
        """True for `pool.acquire()` where pool is ArenaPool-typed."""
        k = lo
        while k < hi:
            t = toks[k]
            if t.kind == "id" and t.text == "acquire" and _is_call(toks, k):
                prev = _prev_tok(toks, k)
                if prev is not None and prev.kind == "punct" \
                        and prev.text in (".", "->") \
                        and toks[k - 2].kind == "id":
                    recv = toks[k - 2].text
                    ty = fn.locals.get(recv, "")
                    if not ty and fn.cls_name:
                        _ci, mem = _arena_family_member(project, cg,
                                                        fn.cls_name, recv)
                        ty = mem.type_text if mem is not None else ""
                    if not ty:
                        gv = globals_by_name.get(recv)
                        ty = gv.type_text if gv is not None else ""
                    if "ArenaPool" in ty:
                        return True
            k += 1
        return False

    def span_has_scratch(lo, hi):
        k = lo
        while k < hi:
            if toks[k].kind == "id" and toks[k].text == "scratch" \
                    and _is_call(toks, k):
                return True
            k += 1
        return False

    def decl_type(name):
        ty = fn.locals.get(name)
        if ty is None and fn.cls_name:
            _ci, mem = _arena_family_member(project, cg, fn.cls_name, name)
            if mem is not None:
                ty = mem.type_text
        return ty or ""

    i = start + 1
    while i < end:
        t = toks[i]
        if t.kind != "id":
            i += 1
            continue
        prev = _prev_tok(toks, i)
        nxt = _next_tok(toks, i)
        accessed = (prev is not None and prev.kind == "punct"
                    and prev.text in (".", "->", "::"))

        # --- returns: summary bit + rule (b) -----------------------------
        if t.text == "return" and not accessed:
            lo = i + 1
            hi = _arena_stmt_end(toks, lo, end)
            if hi > lo and span_tainted(lo, hi):
                st.returns_tainted = True
                if report and recycle is not None \
                        and not _arena_fn_stable(project, cg, fn):
                    qual = (f"{fn.cls_name}::{fn.name}" if fn.cls_name
                            else fn.name)
                    st.findings.append((t.line, (
                        f"'{qual}' returns an arena-backed value but "
                        f"{recycle[1]} (line {recycle[0]}): the storage is "
                        f"recycled before the caller can read it; return an "
                        f"owned copy (std::string/cat/build) or annotate "
                        f"the function MCS_ARENA_STABLE (DESIGN.md §13)")))
            i += 1
            continue

        # --- assignments: `<lvalue> = <expr>` ----------------------------
        if nxt is not None and nxt.kind == "punct" and nxt.text == "=":
            lhs = t.text
            lo = i + 2
            hi = _arena_stmt_end(toks, lo, end)
            rhs_tainted = span_tainted(lo, hi)

            if prev is not None and prev.kind == "punct" \
                    and prev.text in (".", "->"):
                # member store through a receiver chain: obj.field = ...
                if report and rhs_tainted:
                    j = i - 1
                    while j >= 1 and toks[j].kind == "punct" \
                            and toks[j].text in (".", "->"):
                        j -= 2
                    head = toks[j + 1] if toks[j + 1].kind == "id" else None
                    head_name = head.text if head is not None else None
                    owner = cg._chain_receiver_class(fm, fn, toks, i)
                    # Stores into arena-resident nodes die with the arena
                    # themselves: a tainted receiver head is not an escape.
                    if head_name not in tainted and owner is not None:
                        ci, mem = _arena_family_member(project, cg, owner,
                                                       lhs)
                        if mem is not None and not mem.arena_stable \
                                and not (ci is not None and ci.owns_arena) \
                                and ARENA_VIEW_TYPE.search(mem.type_text):
                            st.findings.append((t.line, (
                                f"arena-backed view stored into field "
                                f"'{owner}::{lhs}', whose owner outlives "
                                f"the arena; copy into owned storage, or "
                                f"annotate the field MCS_ARENA_STABLE / "
                                f"the class MCS_OWNS_ARENA "
                                f"(DESIGN.md §13)")))
                i += 1
                continue

            if lhs in fn.locals:
                ty = fn.locals.get(lhs, "")
                if span_acquires_lease(lo, hi):
                    handles[lhs] = "arena"
                    recycle = recycle or (t.line,
                                          f"leases arena '{lhs}' from a "
                                          f"pool")
                elif span_has_scratch(lo, hi):
                    handles[lhs] = "scratch"
                w = span_view_writer(lo, hi)
                if w is not None and not (ARENA_VIEW_TYPE.search(ty)
                                          or re.search(r"\bauto\b", ty)):
                    # view() consumed inside the RHS (a call argument); the
                    # scalar/owned result does not hold the pointer.
                    w = None
                if w is not None:
                    views[lhs] = w
                    tainted.setdefault(lhs, t.line)
                    killed.pop(lhs, None)
                elif rhs_tainted and not ARENA_OWNING_TYPE.search(ty):
                    tainted.setdefault(lhs, t.line)
                    killed.pop(lhs, None)
                else:
                    # reassignment from a stable source heals the local
                    tainted.pop(lhs, None)
                    views.pop(lhs, None)
                    killed.pop(lhs, None)
                i += 1
                continue

            if fn.cls_name:
                ci, mem = _arena_family_member(project, cg, fn.cls_name,
                                               lhs)
                if mem is not None:
                    if report and rhs_tainted and not mem.arena_stable \
                            and not (ci is not None and ci.owns_arena) \
                            and ARENA_VIEW_TYPE.search(mem.type_text):
                        st.findings.append((t.line, (
                            f"arena-backed view stored into field "
                            f"'{ci.name}::{lhs}', whose owner outlives the "
                            f"arena; copy into owned storage, or annotate "
                            f"the field MCS_ARENA_STABLE / the class "
                            f"MCS_OWNS_ARENA (DESIGN.md §13)")))
                    i += 1
                    continue

            gv = globals_by_name.get(lhs)
            if gv is not None and report and rhs_tainted \
                    and not gv.arena_stable \
                    and ARENA_VIEW_TYPE.search(gv.type_text):
                st.findings.append((t.line, (
                    f"arena-backed view stored into global '{lhs}': the "
                    f"global outlives every arena; copy into owned storage "
                    f"or annotate it MCS_ARENA_STABLE (DESIGN.md §13)")))
            i += 1
            continue

        # --- calls: invalidation events ----------------------------------
        if _is_call(toks, i) and prev is not None and prev.kind == "punct" \
                and prev.text in (".", "->") and toks[i - 2].kind == "id":
            recv = toks[i - 2].text
            kind = handles.get(recv)
            if t.text in ("reset", "rewind") and kind == "arena":
                recycle = recycle or (t.line, f"calls {recv}.{t.text}()")
                for name in list(tainted):
                    killed.setdefault(name,
                                      (t.line, f"{recv}.{t.text}()"))
            elif t.text in WRITER_MUTATORS and kind == "writer":
                for v, w in views.items():
                    if w == recv:
                        killed.setdefault(v, (t.line,
                                              f"{recv}.{t.text}(...)"))

        # --- rule (c): use of an invalidated view ------------------------
        if report and t.text in killed and not accessed \
                and not (nxt is not None and nxt.kind == "punct"
                         and nxt.text == "="):
            kline, why = killed.pop(t.text)
            st.findings.append((t.line, (
                f"'{t.text}' points into storage invalidated by {why} "
                f"(line {kline}); re-take the view after the mutation or "
                f"copy it into owned storage first (DESIGN.md §13)")))
        i += 1

    return st


def check_arena_escape(project: Project, out):
    cg = project.callgraph()

    globals_by_name = {}
    for fm in project.files:
        for gv in fm.globals:
            globals_by_name.setdefault(gv.name, gv)

    # Seed: Arena's own allocators return arena memory by definition.
    returns_arena = set()
    for m in ARENA_ALLOC_METHODS:
        returns_arena.update(cg.by_qual.get(("Arena", m), ()))

    # Fixed point on the returns-arena summary: a function that returns a
    # tainted value is itself a taint source for its callers.
    changed = True
    rounds = 0
    while changed and rounds < 20:
        changed = False
        rounds += 1
        for fm in project.files:
            for fn in fm.functions:
                if fn in returns_arena:
                    continue
                st = _arena_flow(project, cg, fm, fn, returns_arena,
                                 globals_by_name, report=False)
                if st.returns_tainted:
                    returns_arena.add(fn)
                    changed = True

    for fm in project.files:
        flows = {}
        for fn in fm.functions:
            st = _arena_flow(project, cg, fm, fn, returns_arena,
                             globals_by_name, report=True)
            flows[fn] = st
            for line, msg in st.findings:
                _emit(out, project, fm, line, "arena-escape", msg)

        # rule (d): thread-entry lambdas must not capture arena memory.
        for lam in fm.lambdas:
            if not _is_thread_entry(lam) or lam.func is None:
                continue
            st = flows.get(lam.func)
            if st is None:
                continue
            confined = {}
            for name, kind in st.handles.items():
                if kind in ("arena", "scope"):
                    confined[name] = "arena handle"
                elif kind == "scratch":
                    confined[name] = "thread-local scratch slot"
            for name in st.tainted:
                confined.setdefault(name, "arena-backed view")
            caught = set()
            for kind, name in lam.captures:
                if kind in ("ref", "val") and name in confined:
                    caught.add(name)
            if any(kind in ("default_ref", "default_val")
                   for kind, _name in lam.captures):
                s, e = lam.body
                k = s + 1
                while k < e:
                    tt = fm.tokens[k]
                    if tt.kind == "id" and tt.text in confined \
                            and not _is_member_access(fm.tokens, k):
                        caught.add(tt.text)
                    k += 1
            for name in sorted(caught):
                _emit(out, project, fm, lam.line, "arena-escape",
                      f"thread-entry lambda captures {confined[name]} "
                      f"'{name}': arenas, leases, and scratch slots are "
                      f"thread-confined (DESIGN.md §13); hand the thread "
                      f"an owned copy instead")


PROJECT_CHECK_FNS = {
    "hotpath-alloc": check_hotpath_alloc,
    "shard-escape": check_shard_escape,
    "lock-order": check_lock_order,
    "arena-escape": check_arena_escape,
}


# ---------------------------------------------------------------------------

CHECK_FNS = {
    "wallclock": check_wallclock,
    "rng": check_rng,
    "getenv": check_getenv,
    "unordered-sink": check_unordered_sink,
    "float-accum": check_float_accum,
    "uninit-pod": check_uninit_pod,
    "unguarded-field": check_unguarded_field,
    "sim-escape": check_sim_escape,
    "missing-contract": check_missing_contract,
}


def run_checks(project: Project, checks) -> list:
    findings: list[Finding] = []
    _LINE_CACHE.clear()
    per_file = [c for c in checks if c in CHECK_FNS]
    for fm in project.files:
        for name in per_file:
            CHECK_FNS[name](project, fm, findings)
    for name in checks:
        fnc = PROJECT_CHECK_FNS.get(name)
        if fnc is not None:
            fnc(project, findings)
    findings.sort(key=lambda f: f.sort_key())
    return findings


def resolve_check_names(spec: str) -> list:
    """Expand a comma list of check or family names; '*'/'all' = everything."""
    if spec in ("*", "all", ""):
        return list(ALL_CHECKS)
    out = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        if name in FAMILIES:
            out.extend(FAMILIES[name])
        elif name in ALL_CHECKS:
            out.append(name)
        else:
            raise ValueError(f"unknown check or family: {name!r}")
    seen = set()
    uniq = []
    for c in out:
        if c not in seen:
            seen.add(c)
            uniq.append(c)
    return uniq
