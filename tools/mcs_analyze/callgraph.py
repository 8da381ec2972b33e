"""Project-wide symbol table, call graph, and reachability (DESIGN.md §11).

Built once per analysis run from the shared structural model and cached on
the Project, so the three interprocedural check families (hotpath-alloc,
shard-escape, lock-order) share one graph instead of re-deriving it.

Resolution strategy (soundness limits documented in DESIGN.md §11):

  Foo::bar(...)    non-virtual: definitions of bar on class Foo only.
  obj.bar(...)     receiver type resolved through locals -> enclosing-class
  obj->bar(...)    members -> project classes; a resolved type T dispatches
                   virtually: bar on T, T's transitive bases (inherited
                   implementations) and T's transitive derived classes
                   (overrides reached through a base pointer).
  this->bar(...)   the enclosing class, dispatched as above.
  bar(...)         inside a method: the enclosing class and its bases first;
                   otherwise free functions named bar.

  When a receiver's type cannot be resolved, the call falls back to *every*
  method named bar — but only when that over-approximation stays small
  (<= FALLBACK_CAP candidates); a common name like size() resolves to
  nothing rather than to everything. Calls through std::function values
  (protocol handlers, timers) are invisible by design: the checks anchor at
  explicit per-component entry points instead of chasing type-erased hops.
"""

from __future__ import annotations

from collections import deque

KEYWORD_CALLS = frozenset(
    "if for while switch return sizeof alignof decltype static_cast "
    "dynamic_cast const_cast reinterpret_cast new delete throw catch "
    "assert defined alignas noexcept typeid".split())

# A receiver-less fallback to every same-named method is only sound-ish when
# the name is rare; past this many candidates the edge is dropped instead.
FALLBACK_CAP = 4


def _is_call(toks, i):
    nxt = toks[i + 1] if i + 1 < len(toks) else None
    return nxt is not None and nxt.kind == "punct" and nxt.text == "("


class CallGraph:
    def __init__(self, project):
        self.project = project
        # (cls_name, name) -> [FunctionDef]; cls_name '' for free functions
        self.by_qual: dict = {}
        # class name -> [direct derived class names]
        self.derived: dict = {}
        # FunctionDef -> [(callee FunctionDef, line)]
        self.edges: dict = {}
        self.unresolved_calls = 0
        self._file_of: dict = {}  # rel path -> FileModel
        self._build()

    # ---- construction ----------------------------------------------------

    def _build(self):
        project = self.project
        for fm in project.files:
            self._file_of[fm.rel] = fm
            for fn in fm.functions:
                self.by_qual.setdefault((fn.cls_name or "", fn.name),
                                        []).append(fn)
        for ci in project.class_index.values():
            for base in ci.bases:
                self.derived.setdefault(base, []).append(ci.name)
        for fm in project.files:
            for fn in fm.functions:
                self.edges[fn] = self._calls_from(fm, fn)

    def _family(self, cls_name):
        """cls_name plus transitive bases and derived classes (virtual
        dispatch closure). Cycle-safe."""
        out = []
        seen = set()
        work = [cls_name]
        while work:
            c = work.pop()
            if c in seen:
                continue
            seen.add(c)
            out.append(c)
            ci = self.project.class_index.get(c)
            if ci is not None:
                work.extend(ci.bases)
            work.extend(self.derived.get(c, ()))
        return out

    def _methods_on(self, cls_name, name, virtual=True):
        classes = self._family(cls_name) if virtual else [cls_name]
        found = []
        for c in classes:
            found.extend(self.by_qual.get((c, name), ()))
        return found

    def _class_in_type(self, ty):
        hit = None
        for word in ty.replace("<", " ").replace(">", " ").split():
            if word in self.project.class_index:
                hit = word  # last class name wins: unique_ptr<ThreadPool>
        return hit

    def _receiver_class(self, fm, fn, recv_name, at=None):
        """Resolve a receiver variable name to a project class name, through
        locals then the enclosing class's members. Used at token `at`, a
        local takes the type of its last declaration before it, so a name
        reused in sibling blocks (`auto txn = ...` in one, `Transaction*
        txn` in the next) resolves per use; without `at`, its first
        declaration's. Type text may be a smart pointer / reference
        wrapper; any known class name inside it wins."""
        ty = None
        for idx, decl_ty in fn.local_decls.get(recv_name, ()):
            if at is not None and idx < at:
                ty = decl_ty
        if ty is None:
            ty = fn.locals.get(recv_name)
        if ty is None and fn.cls_name:
            ci = self.project.class_index.get(fn.cls_name)
            if ci is not None:
                mem = ci.member(recv_name)
                if mem is not None:
                    ty = mem.type_text
        if ty is None:
            # a global object?
            for gv in fm.globals:
                if gv.name == recv_name:
                    ty = gv.type_text
                    break
        if ty is None:
            return None
        return self._class_in_type(ty)

    def _chain_receiver_class(self, fm, fn, toks, i):
        """Receiver class for the call at token i (toks[i-1] is . or ->),
        following plain member-access chains: db_.wal_.append(...) resolves
        db_ -> Database, then member wal_ -> Wal. Computed receivers
        (foo().m(), arr[k].m()) resolve to None as before."""
        names = []
        j = i - 1  # the . or -> before the method name
        while j >= 1 and toks[j].kind == "punct" and toks[j].text in (".",
                                                                     "->"):
            recv = toks[j - 1]
            if recv.kind != "id":
                return None  # computed receiver: fall back as before
            names.append(recv.text)
            j -= 2
        names.reverse()
        if not names:
            return None
        head = names[0]
        if head == "this":
            cls = fn.cls_name
        else:
            cls = self._receiver_class(fm, fn, head, i)
        for name in names[1:]:
            if cls is None:
                return None
            ci = self.project.class_index.get(cls)
            if ci is None:
                return None
            mem = ci.member(name)
            if mem is None:
                return None
            cls = self._class_in_type(mem.type_text)
        return cls

    def _calls_from(self, fm, fn):
        toks = fm.tokens
        start, end = fn.body
        out = []
        seen_at = set()
        for i in range(start + 1, end):
            t = toks[i]
            if t.kind != "id" or t.text in KEYWORD_CALLS \
                    or not _is_call(toks, i):
                continue
            callees = self._resolve(fm, fn, toks, i)
            for callee in callees:
                key = (id(callee), t.line)
                if key in seen_at:
                    continue
                seen_at.add(key)
                out.append((callee, t.line))
        return out

    def _resolve(self, fm, fn, toks, i, allow_fallback=True):
        """Callee candidates for the call at token i. With
        allow_fallback=False the receiver-less everyone-named-X guess is
        disabled: only definitive resolutions (receiver type known, explicit
        qualification, enclosing class, project free function) are returned
        — the mode hotpath-alloc uses to decide whether a call lands in
        analyzed project code."""
        name = toks[i].text
        prev = toks[i - 1] if i > 0 else None
        if prev is not None and prev.kind == "punct":
            if prev.text == "::":
                qual = toks[i - 2] if i >= 2 else None
                if qual is not None and qual.kind == "id" \
                        and qual.text != "std":
                    if qual.text in self.project.class_index:
                        return self._methods_on(qual.text, name,
                                                virtual=False)
                    # namespace qualification: treat as free function
                    return list(self.by_qual.get(("", name), ()))
                return []  # std:: call
            if prev.text in (".", "->"):
                cls = self._chain_receiver_class(fm, fn, toks, i)
                if cls is None:
                    return self._fallback(name) if allow_fallback else []
                methods = self._methods_on(cls, name)
                if not methods and not allow_fallback:
                    return []  # known class, but the method isn't its own
                return methods
        # Bare call: enclosing class family first, then free functions.
        if fn.cls_name:
            methods = self._methods_on(fn.cls_name, name)
            if methods:
                return methods
        return list(self.by_qual.get(("", name), ()))

    def _fallback(self, name):
        """Unresolved receiver: all methods with this name, if few enough."""
        found = []
        for (cls, n), fns in self.by_qual.items():
            if n == name and cls:
                found.extend(fns)
        if not found or len(found) > FALLBACK_CAP:
            if found:
                self.unresolved_calls += 1
            return []
        return found

    # ---- queries ---------------------------------------------------------

    def functions_named(self, cls_name, name):
        """Definitions of cls_name::name (virtual closure) or free `name`."""
        if cls_name:
            return self._methods_on(cls_name, name)
        return list(self.by_qual.get(("", name), ()))

    def file_of(self, fn):
        return self._file_of.get(fn.path)

    def reachable(self, entries):
        """BFS from entry FunctionDefs -> {FunctionDef: (entry, via_line)}.
        `entry` is the entry FunctionDef whose BFS first reached the node;
        deterministic because entries and edges keep file/token order."""
        out = {}
        dq = deque()
        for e in entries:
            if e not in out:
                out[e] = (e, 0)
                dq.append(e)
        while dq:
            fn = dq.popleft()
            entry, _ = out[fn]
            for callee, line in self.edges.get(fn, ()):
                if callee not in out:
                    out[callee] = (entry, line)
                    dq.append(callee)
        return out
