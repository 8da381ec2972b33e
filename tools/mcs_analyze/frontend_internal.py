"""Token/structural frontend: lowers a C++ file into the shared model
without libclang. Conservative by design — when a construct can't be parsed
with confidence it records nothing, so checks prefer false negatives over
false positives (the committed baseline catches drift either way).
"""

from __future__ import annotations

import re
from pathlib import Path

from lexer import lex
from model import (ClassInfo, FileModel, FunctionDef, GlobalVar, Lambda,
                   Member, Method, RangeFor)

KEYWORDS = frozenset(
    "if else for while do switch case default break continue return goto "
    "new delete throw try catch sizeof alignof typeid static_cast "
    "dynamic_cast const_cast reinterpret_cast co_await co_return co_yield "
    "using typedef namespace template typename operator".split())

TYPE_QUALIFIERS = frozenset(
    "const constexpr static mutable volatile inline extern thread_local "
    "unsigned signed struct class typename register".split())

ATTR_MACROS = frozenset(
    "MCS_GUARDED_BY MCS_PT_GUARDED_BY MCS_REQUIRES MCS_REQUIRES_SHARED "
    "MCS_ACQUIRE MCS_RELEASE MCS_TRY_ACQUIRE MCS_EXCLUDES MCS_CAPABILITY "
    "MCS_ACQUIRED_BEFORE MCS_ACQUIRED_AFTER MCS_RETURN_CAPABILITY "
    "MCS_SCOPED_CAPABILITY MCS_NO_THREAD_SAFETY_ANALYSIS "
    "MCS_EXTERNALLY_SERIALIZED MCS_ARENA_STABLE MCS_OWNS_ARENA "
    "alignas noexcept final override".split())

ALLOW_RE = re.compile(r"mcs-analyze:\s*allow\(([a-zA-Z0-9_,\- ]+)\)")


def build_file_model(path: Path, rel: str, text: str) -> FileModel:
    lexed = lex(text)
    toks = lexed.tokens
    fm = FileModel(path=path, rel=rel, tokens=toks)

    # Suppressions: a comment allows its own line; a comment on a line with
    # no code allows the next code line.
    for line, comment in lexed.comments:
        m = ALLOW_RE.search(comment)
        if not m:
            continue
        checks = {c.strip() for c in m.group(1).split(",") if c.strip()}
        target = line if line in lexed.code_lines else line + 1
        fm.suppressions.setdefault(target, set()).update(checks)

    match = _match_braces(toks)
    _Parser(fm, match).parse()
    return fm


def _match_braces(toks):
    match = {}
    stack = []
    for i, t in enumerate(toks):
        if t.kind != "punct":
            continue
        if t.text == "{":
            stack.append(i)
        elif t.text == "}" and stack:
            match[stack.pop()] = i
    return match


def _skip_balanced(toks, i, open_ch, close_ch):
    """i points at open_ch; returns index past the matching close_ch."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "punct":
            if t.text == open_ch:
                depth += 1
            elif t.text == close_ch:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def _type_text(tokens) -> str:
    return " ".join(t.text for t in tokens)


class _Parser:
    def __init__(self, fm: FileModel, match):
        self.fm = fm
        self.toks = fm.tokens
        self.match = match
        self.n = len(self.toks)

    def parse(self):
        self._scan_region(0, self.n, enclosing_class=None)
        # Loops and lambdas are found per function body once functions exist.
        for fn in self.fm.functions:
            self._scan_body(fn)
        for ci in self.fm.classes:
            for m in ci.methods:
                if m.body is not None:
                    fn = FunctionDef(
                        name=m.name, cls_name=ci.name, line=m.line,
                        path=self.fm.rel, body=m.body, is_const=m.is_const,
                        externally_serialized=m.externally_serialized,
                        arena_stable=m.arena_stable,
                        params=self._inline_params(m))
                    self.fm.functions.append(fn)
                    self._scan_body(fn)

    def _inline_params(self, m):
        """Parameters of an inline method body: the `(...)` right after the
        method name, searched backwards from the body brace (skips over
        ctor init lists and trailing specifiers)."""
        start = m.body[0]
        j = start - 1
        lo = max(0, start - 400)
        while j > lo:
            t = self.toks[j]
            if t.kind == "id" and t.text == m.name and j + 1 < self.n \
                    and self.toks[j + 1].kind == "punct" \
                    and self.toks[j + 1].text == "(":
                close = _skip_balanced(self.toks, j + 1, "(", ")") - 1
                if j + 1 < close < start:
                    return _parse_params(self.toks[j + 2 : close])
                return []
            j -= 1
        return []

    # ---- namespace/class region scanning --------------------------------

    def _scan_region(self, i, end, enclosing_class):
        """Scan a namespace-scope token region for classes, function
        definitions, and variable definitions (globals); recurses into
        namespaces, skips function bodies."""
        toks = self.toks
        buf: list = []  # statement buffer for namespace-scope variable decls
        while i < end:
            t = toks[i]
            if t.kind == "pp":
                i += 1
                continue
            if t.kind == "id" and t.text == "namespace":
                j = i + 1
                while j < end and not (toks[j].kind == "punct"
                                       and toks[j].text in "{;"):
                    j += 1
                if j < end and toks[j].text == "{":
                    body_end = self.match.get(j, end)
                    self._scan_region(j + 1, body_end, enclosing_class)
                    i = body_end + 1
                else:
                    i = j + 1
                buf = []
                continue
            if t.kind == "id" and t.text in ("struct", "class"):
                prev = toks[i - 1] if i > 0 else None
                if prev is not None and prev.kind == "id" and prev.text == "enum":
                    i += 1
                    continue
                nxt = self._parse_class(i, end)
                if nxt is not None:
                    i = nxt
                    buf = []
                    continue
            if t.kind == "id" and t.text == "enum":
                # skip enum { ... } bodies so enumerators aren't members
                j = i + 1
                while j < end and not (toks[j].kind == "punct"
                                       and toks[j].text in "{;"):
                    j += 1
                if j < end and toks[j].text == "{":
                    i = self.match.get(j, end) + 1
                else:
                    i = j + 1
                buf = []
                continue
            # Function definition at namespace scope?
            if t.kind == "punct" and t.text == "(":
                nxt = self._try_function_def(i, end)
                if nxt is not None:
                    i = nxt
                    buf = []
                    continue
            if t.kind == "punct" and t.text == "{":
                if any(x.kind == "punct" and x.text == "=" for x in buf):
                    # brace initializer on a variable: consume, wait for ';'
                    i = self.match.get(i, end) + 1
                    continue
                # stray brace at namespace scope (aggregate initializer):
                i = self.match.get(i, end) + 1
                buf = []
                continue
            if t.kind == "punct" and t.text == ";":
                self._add_global(buf)
                buf = []
                i += 1
                continue
            buf.append(t)
            i += 1

    _GLOBAL_HEAD_BAN = frozenset(
        "using typedef extern template friend static_assert return goto "
        "operator public private protected namespace".split())

    def _add_global(self, buf):
        """Record a namespace-scope variable definition from a statement
        buffer (tokens up to ';'). Conservative: anything with a top-level
        '(' (function decls, call-style init) or a qualified name
        (out-of-class static member defs) records nothing."""
        if len(buf) < 2 or buf[0].kind != "id" \
                or buf[0].text in self._GLOBAL_HEAD_BAN:
            return
        if any(t.kind == "punct" and t.text == "(" for t in buf):
            return
        decl = buf
        for k, t in enumerate(decl):  # initializer: cut at top-level '='
            if t.kind == "punct" and t.text == "=":
                decl = decl[:k]
                break
        for k, t in enumerate(decl):  # array suffix
            if t.kind == "punct" and t.text == "[":
                decl = decl[:k]
                break
        name_idx = None
        for k in range(len(decl) - 1, -1, -1):
            if decl[k].kind == "id" and decl[k].text not in ATTR_MACROS:
                name_idx = k
                break
        if name_idx is None or name_idx == 0:
            return
        prev = decl[name_idx - 1]
        if prev.kind == "punct" and prev.text == "::":
            return  # out-of-class static member definition; modeled as Member
        type_toks = decl[:name_idx]
        if not any(t.kind == "id" and t.text not in TYPE_QUALIFIERS
                   for t in type_toks):
            return
        words = {t.text for t in type_toks if t.kind == "id"}
        self.fm.globals.append(GlobalVar(
            name=decl[name_idx].text,
            type_text=_type_text(type_toks),
            line=decl[name_idx].line,
            path=self.fm.rel,
            is_const="const" in words or "constexpr" in words,
            is_thread_local="thread_local" in words,
            is_static="static" in words,
            arena_stable=any(t.kind == "id" and t.text == "MCS_ARENA_STABLE"
                             for t in buf),
        ))

    def _parse_class(self, i, end):
        """i points at struct/class. Returns index past the class (or None
        if this is not a definition)."""
        toks = self.toks
        keyword = toks[i].text
        j = i + 1
        name = None
        bases = []
        owns_arena = False
        in_bases = False
        while j < end:
            t = toks[j]
            if t.kind == "punct":
                if t.text == ";":  # forward declaration
                    return j + 1
                if t.text == "{":
                    break
                if t.text == ":" and name is not None:
                    in_bases = True
                    j += 1
                    continue
                if t.text in "<([":
                    close = {"<": ">", "(": ")", "[": "]"}[t.text]
                    j = _skip_balanced(toks, j, t.text, close)
                    continue
                if t.text in ("=", ")" , ","):  # `struct X*` param etc.
                    if t.text == "," and in_bases:
                        j += 1
                        continue
                    return None
            elif t.kind == "id":
                if in_bases:
                    if t.text not in ("public", "protected", "private",
                                      "virtual") and t.text not in ATTR_MACROS:
                        prev = toks[j - 1]
                        if bases and prev.kind == "punct" and prev.text == "::":
                            bases[-1] = t.text  # keep last id of `ns::Base`
                        else:
                            bases.append(t.text)
                    j += 1
                    continue
                if t.text == "final" or t.text in ATTR_MACROS:
                    if t.text == "MCS_OWNS_ARENA":
                        owns_arena = True
                    j += 1
                    continue
                if name is None and toks[j + 1].text != "(" if j + 1 < end else True:
                    # first plain identifier not followed by '(' is the name
                    if j + 1 < end and toks[j + 1].kind == "punct" \
                            and toks[j + 1].text == "(":
                        j = _skip_balanced(toks, j + 1, "(", ")")
                        continue
                    name = t.text
            j += 1
        if j >= end or name is None:
            return None
        body_open = j
        body_end = self.match.get(body_open)
        if body_end is None:
            return None
        ci = ClassInfo(name=name, line=toks[i].line, path=self.fm.rel,
                       bases=bases, owns_arena=owns_arena)
        self.fm.classes.append(ci)
        default_access = "public" if keyword == "struct" else "private"
        self._parse_class_body(ci, body_open + 1, body_end, default_access)
        return body_end + 1

    def _parse_class_body(self, ci, start, end, access):
        toks = self.toks
        i = start
        buf_start = i
        while i < end:
            t = toks[i]
            if t.kind == "pp":
                i += 1
                continue
            if t.kind == "id" and t.text in ("public", "protected", "private") \
                    and i + 1 < end and toks[i + 1].kind == "punct" \
                    and toks[i + 1].text == ":":
                access = t.text
                i += 2
                buf_start = i
                continue
            if t.kind == "id" and t.text in ("struct", "class") and \
                    not self._buffer_has_paren(buf_start, i):
                prev = toks[i - 1] if i > 0 else None
                if not (prev and prev.kind == "id" and prev.text == "enum"):
                    nxt = self._parse_class(i, end)
                    if nxt is not None:
                        i = nxt
                        buf_start = i
                        continue
            if t.kind == "id" and t.text == "enum":
                j = i + 1
                while j < end and not (toks[j].kind == "punct"
                                       and toks[j].text in "{;"):
                    j += 1
                if j < end and toks[j].text == "{":
                    i = self.match.get(j, end) + 1
                    while i < end and not (toks[i].kind == "punct"
                                           and toks[i].text == ";"):
                        i += 1
                    i += 1
                else:
                    i = j + 1
                buf_start = i
                continue
            if t.kind == "punct" and t.text == "<":
                # probable template argument list in a declaration
                j = self._skip_angles(i, end)
                if j is not None:
                    i = j
                    continue
                i += 1
                continue
            if t.kind == "punct" and t.text == "(":
                i = _skip_balanced(toks, i, "(", ")")
                continue
            if t.kind == "punct" and t.text == "{":
                decl = toks[buf_start:i]
                body_end = self.match.get(i, end)
                if self._decl_is_function(decl):
                    self._add_method(ci, decl, access, body=(i, body_end))
                    i = body_end + 1
                    # optional trailing ';'
                    if i < end and toks[i].kind == "punct" \
                            and toks[i].text == ";":
                        i += 1
                    buf_start = i
                    continue
                # brace initializer on a member: consume to ';'
                i = body_end + 1
                while i < end and not (toks[i].kind == "punct"
                                       and toks[i].text == ";"):
                    if toks[i].kind == "punct" and toks[i].text == "{":
                        i = self.match.get(i, end)
                    i += 1
                self._add_member(ci, decl, has_init=True)
                i += 1
                buf_start = i
                continue
            if t.kind == "punct" and t.text == ";":
                decl = toks[buf_start:i]
                if decl:
                    if self._decl_is_function(decl):
                        self._add_method(ci, decl, access, body=None)
                    else:
                        has_init = any(
                            d.kind == "punct" and d.text == "=" for d in decl)
                        self._add_member(ci, decl, has_init=has_init)
                i += 1
                buf_start = i
                continue
            i += 1

    def _buffer_has_paren(self, start, end):
        return any(t.kind == "punct" and t.text == "(" for t in
                   self.toks[start:end])

    def _skip_angles(self, i, end):
        """Heuristic angle-bracket skip for declaration contexts: i points
        at '<' directly after an identifier. Returns index past '>' or None."""
        toks = self.toks
        prev = toks[i - 1] if i > 0 else None
        if prev is None or prev.kind not in ("id",):
            return None
        depth = 0
        j = i
        while j < end:
            t = toks[j]
            if t.kind == "punct":
                if t.text == "<":
                    depth += 1
                elif t.text == ">":
                    depth -= 1
                    if depth == 0:
                        return j + 1
                elif t.text == ">>":
                    depth -= 2
                    if depth <= 0:
                        return j + 1
                elif t.text in ";{":
                    return None  # not a template list after all
                elif t.text == "(":
                    j = _skip_balanced(toks, j, "(", ")")
                    continue
            j += 1
        return None

    def _decl_is_function(self, decl) -> bool:
        """A declaration buffer is a function iff it has a '(' at top level
        (outside template angles)."""
        return self._top_level_paren(decl) is not None

    @staticmethod
    def _top_level_paren(decl):
        angle = 0
        for k, t in enumerate(decl):
            if t.kind != "punct":
                continue
            if t.text == "<" and k > 0 and decl[k - 1].kind == "id":
                angle += 1
            elif t.text == ">" and angle > 0:
                angle -= 1
            elif t.text == ">>" and angle > 0:
                angle = max(0, angle - 2)
            elif t.text == "(" and angle == 0:
                return k
            elif t.text == "(":
                # inside angles: skip balanced so `decltype(x)` nests fine
                continue
        return None

    def _add_method(self, ci, decl, access, body):
        paren = self._top_level_paren(decl)
        if paren is None or paren == 0:
            return
        name_tok = decl[paren - 1]
        if name_tok.kind != "id":
            return
        name = name_tok.text
        is_special = False
        if name == ci.name or (paren >= 2 and decl[paren - 2].text == "~"):
            is_special = True  # ctor/dtor
        if any(t.kind == "id" and t.text == "operator" for t in decl):
            is_special = True
        close = None
        depth = 0
        for k in range(paren, len(decl)):
            if decl[k].kind == "punct":
                if decl[k].text == "(":
                    depth += 1
                elif decl[k].text == ")":
                    depth -= 1
                    if depth == 0:
                        close = k
                        break
        tail = decl[close + 1:] if close is not None else []
        is_const = any(t.kind == "id" and t.text == "const" for t in tail)
        ext_ser = any(t.kind == "id" and t.text == "MCS_EXTERNALLY_SERIALIZED"
                      for t in tail)
        arena_stable = any(t.kind == "id" and t.text == "MCS_ARENA_STABLE"
                           for t in decl)
        if any(t.kind == "id" and t.text in ("default", "delete")
               for t in tail):
            is_special = True
        is_static = any(t.kind == "id" and t.text == "static"
                        for t in decl[:paren - 1])
        ci.methods.append(Method(
            name=name, line=name_tok.line, access=access, is_const=is_const,
            is_static=is_static, is_special=is_special,
            externally_serialized=ext_ser, arena_stable=arena_stable,
            body=body))

    def _add_member(self, ci, decl, has_init):
        toks = list(decl)
        if not toks:
            return
        head = toks[0]
        if head.kind == "id" and head.text in (
                "using", "typedef", "friend", "static_assert", "template",
                "public", "protected", "private", "operator"):
            return
        guarded_by = None
        # strip MCS_* attribute macro + its args out of the decl
        stripped = []
        k = 0
        while k < len(toks):
            t = toks[k]
            if t.kind == "id" and t.text in ("MCS_GUARDED_BY",
                                             "MCS_PT_GUARDED_BY"):
                if k + 1 < len(toks) and toks[k + 1].text == "(":
                    j = _skip_balanced(toks, k + 1, "(", ")")
                    guarded_by = " ".join(x.text for x in toks[k + 2 : j - 1])
                    k = j
                    continue
            stripped.append(t)
            k += 1
        toks = stripped
        # initializer: cut at top-level '='
        init_cut = None
        for k, t in enumerate(toks):
            if t.kind == "punct" and t.text == "=":
                init_cut = k
                has_init = True
                break
        decl_part = toks[:init_cut] if init_cut is not None else toks
        # bitfield: cut at ':' (but not '::')
        for k, t in enumerate(decl_part):
            if t.kind == "punct" and t.text == ":":
                decl_part = decl_part[:k]
                break
        # array suffix: cut at '['
        for k, t in enumerate(decl_part):
            if t.kind == "punct" and t.text == "[":
                decl_part = decl_part[:k]
                break
        # name = last identifier
        name_idx = None
        for k in range(len(decl_part) - 1, -1, -1):
            if decl_part[k].kind == "id" and \
                    decl_part[k].text not in ATTR_MACROS:
                name_idx = k
                break
        if name_idx is None or name_idx == 0:
            return
        name_tok = decl_part[name_idx]
        type_toks = decl_part[:name_idx]
        if not any(t.kind == "id" for t in type_toks):
            return
        words = {t.text for t in type_toks if t.kind == "id"}
        ci.members[name_tok.text] = Member(
            name=name_tok.text,
            type_text=_type_text(type_toks),
            line=name_tok.line,
            has_init=has_init,
            guarded_by=guarded_by,
            is_static="static" in words,
            is_mutable="mutable" in words,
            is_thread_local="thread_local" in words,
            is_const="const" in words or "constexpr" in words,
            arena_stable=any(t.kind == "id" and t.text == "MCS_ARENA_STABLE"
                             for t in decl),
        )

    # ---- function definitions at namespace scope ------------------------

    def _try_function_def(self, paren_i, end):
        """paren_i points at '(' at namespace scope. Recognizes
        `[qual::]name(params) [const] [...] [: init-list] { body }` and
        records it. Returns index past the body, or None."""
        toks = self.toks
        name_i = paren_i - 1
        if name_i < 0 or toks[name_i].kind != "id":
            return None
        if toks[name_i].text in KEYWORDS or toks[name_i].text in ATTR_MACROS:
            return None
        # qualified chain backwards: id (:: id)*
        chain = [toks[name_i].text]
        k = name_i - 1
        while k - 1 >= 0 and toks[k].kind == "punct" and toks[k].text == "::" \
                and toks[k - 1].kind == "id":
            chain.append(toks[k - 1].text)
            k -= 2
        chain.reverse()
        # return type must exist before the chain (or the chain is a ctor
        # `Class::Class`); otherwise this is a call statement — but calls
        # don't appear at namespace scope, so accept either way.
        close = _skip_balanced(toks, paren_i, "(", ")") - 1
        if close >= end or toks[close].text != ")":
            return None
        params_toks = toks[paren_i + 1 : close]
        j = close + 1
        is_const = False
        ext_ser = False
        arena_stable = False
        # tail: const/noexcept/attr-macros(+args)/-> trailing return
        while j < end:
            t = toks[j]
            if t.kind == "id" and t.text == "const":
                is_const = True
                j += 1
                continue
            if t.kind == "id" and t.text == "MCS_EXTERNALLY_SERIALIZED":
                ext_ser = True
                j += 1
                continue
            if t.kind == "id" and t.text == "MCS_ARENA_STABLE":
                arena_stable = True
                j += 1
                continue
            if t.kind == "id" and (t.text in ATTR_MACROS
                                   or t.text.startswith("MCS_")):
                j += 1
                if j < end and toks[j].kind == "punct" and toks[j].text == "(":
                    j = _skip_balanced(toks, j, "(", ")")
                continue
            if t.kind == "punct" and t.text == "->":
                j += 1
                while j < end and not (toks[j].kind == "punct"
                                       and toks[j].text in "{;:"):
                    if toks[j].kind == "punct" and toks[j].text == "(":
                        j = _skip_balanced(toks, j, "(", ")")
                        continue
                    j += 1
                continue
            break
        if j >= end:
            return None
        t = toks[j]
        if t.kind == "punct" and t.text == ":":
            # ctor init list: id + balanced ()/{} groups, comma separated
            j += 1
            while j < end:
                while j < end and not (toks[j].kind == "punct"
                                       and toks[j].text in "({"):
                    if toks[j].kind == "punct" and toks[j].text == ";":
                        return None
                    j += 1
                if j >= end:
                    return None
                opener = toks[j].text
                j = _skip_balanced(toks, j, opener,
                                   ")" if opener == "(" else "}")
                if j < end and toks[j].kind == "punct" and toks[j].text == ",":
                    j += 1
                    continue
                break
            if j >= end or not (toks[j].kind == "punct"
                                and toks[j].text == "{"):
                return None
            t = toks[j]
        if not (t.kind == "punct" and t.text == "{"):
            return None
        body_end = self.match.get(j)
        if body_end is None:
            return None
        fn = FunctionDef(
            name=chain[-1],
            cls_name=chain[-2] if len(chain) >= 2 else None,
            line=toks[name_i].line,
            path=self.fm.rel,
            body=(j, body_end),
            is_const=is_const,
            externally_serialized=ext_ser,
            arena_stable=arena_stable,
            params=_parse_params(params_toks),
        )
        self.fm.functions.append(fn)
        return body_end + 1

    # ---- body scanning: locals, range-fors, lambdas ----------------------

    def _scan_body(self, fn: FunctionDef):
        toks = self.toks
        start, end = fn.body
        fn.locals.update(_parse_locals(toks, start + 1, end))
        for tt, nm in fn.params:
            if nm:
                fn.locals.setdefault(nm, tt)
        i = start + 1
        while i < end:
            t = toks[i]
            if t.kind == "id" and t.text == "for" and i + 1 < end \
                    and toks[i + 1].kind == "punct" \
                    and toks[i + 1].text == "(":
                close = _skip_balanced(toks, i + 1, "(", ")") - 1
                inner = toks[i + 2 : close]
                colon = None
                depth = 0
                for k, x in enumerate(inner):
                    if x.kind == "punct":
                        if x.text in "([{":
                            depth += 1
                        elif x.text in ")]}":
                            depth -= 1
                        elif x.text == ";" and depth == 0:
                            colon = None
                            break
                        elif x.text == ":" and depth == 0:
                            colon = k
                            break
                if colon is not None:
                    container = inner[colon + 1:]
                    # range decl may add a local (e.g. `auto& kv`)
                    body_open = close + 1
                    if body_open < end and toks[body_open].kind == "punct" \
                            and toks[body_open].text == "{":
                        body = (body_open, self.match.get(body_open, end))
                    else:
                        stmt_end = body_open
                        while stmt_end < end and not (
                                toks[stmt_end].kind == "punct"
                                and toks[stmt_end].text == ";"):
                            stmt_end += 1
                        body = (body_open - 1, stmt_end)
                    self.fm.loops.append(RangeFor(
                        line=t.line, container_tokens=list(container),
                        body=body, func=fn))
                i = close + 1
                continue
            if t.kind == "punct" and t.text == "[":
                lam = self._try_lambda(i, end, fn)
                if lam is not None:
                    self.fm.lambdas.append(lam[0])
                    i = lam[1]
                    continue
            i += 1

    def _try_lambda(self, i, end, fn):
        toks = self.toks
        prev = toks[i - 1] if i > 0 else None
        if prev is not None and (
                prev.kind in ("num", "str", "chr")
                or (prev.kind == "id" and prev.text not in KEYWORDS)
                or (prev.kind == "punct" and prev.text in ("]", ")"))):
            return None  # array subscript / declarator, not a lambda intro
        # capture list
        close_br = None
        depth = 0
        for k in range(i, min(end, i + 200)):
            if toks[k].kind == "punct":
                if toks[k].text == "[":
                    depth += 1
                elif toks[k].text == "]":
                    depth -= 1
                    if depth == 0:
                        close_br = k
                        break
        if close_br is None:
            return None
        captures = _parse_captures(toks[i + 1 : close_br])
        j = close_br + 1
        if j < end and toks[j].kind == "punct" and toks[j].text == "(":
            j = _skip_balanced(toks, j, "(", ")")
        # specifiers: mutable, noexcept, attrs, -> ret
        while j < end:
            t = toks[j]
            if t.kind == "id" and (t.text in ("mutable", "constexpr")
                                   or t.text in ATTR_MACROS
                                   or t.text.startswith("MCS_")):
                j += 1
                if j < end and toks[j].kind == "punct" and toks[j].text == "(":
                    j = _skip_balanced(toks, j, "(", ")")
                continue
            if t.kind == "punct" and t.text == "->":
                j += 1
                while j < end and not (toks[j].kind == "punct"
                                       and toks[j].text == "{"):
                    if toks[j].kind == "punct" and toks[j].text in ";)":
                        return None
                    j += 1
                continue
            break
        if j >= end or not (toks[j].kind == "punct" and toks[j].text == "{"):
            return None
        body_end = self.match.get(j)
        if body_end is None:
            return None
        callee, receiver = self._lambda_context(i)
        return (Lambda(line=toks[i].line, captures=captures,
                       body=(j, body_end), context_callee=callee,
                       context_receiver=receiver, func=fn), body_end + 1)

    def _lambda_context(self, lam_i):
        """Callee the lambda is an argument of: `recv.callee( [..]` or
        `std::thread t{ [..]` (brace-init)."""
        toks = self.toks
        k = lam_i - 1
        if k < 0 or toks[k].kind != "punct" or toks[k].text not in "({,":
            return None, None
        # walk back over other arguments to the opening '(' / '{'
        depth = 0
        while k >= 0:
            t = toks[k]
            if t.kind == "punct":
                if t.text in ")]}":
                    depth += 1
                elif t.text in "([{":
                    if depth == 0:
                        break
                    depth -= 1
            k -= 1
        if k <= 0:
            return None, None
        name_i = k - 1
        if toks[name_i].kind != "id":
            return None, None
        callee = toks[name_i].text
        # Declaration-style init `std::thread t{[..]{..}}` / `Type v([..])`:
        # the token left of the variable name is the type — that is the real
        # context, not the variable name.
        if name_i >= 1 and toks[name_i - 1].kind == "id" \
                and toks[name_i - 1].text not in KEYWORDS:
            name_i -= 1
            callee = toks[name_i].text
        receiver = None
        r = name_i - 1
        if r >= 1 and toks[r].kind == "punct" and toks[r].text in (".", "->") \
                and toks[r - 1].kind == "id":
            receiver = toks[r - 1].text
        elif r >= 1 and toks[r].kind == "punct" and toks[r].text == "::" \
                and toks[r - 1].kind == "id":
            receiver = toks[r - 1].text  # e.g. std::thread → receiver 'std'
        return callee, receiver


def _parse_captures(tokens):
    out = []
    item: list = []
    depth = 0
    for t in tokens + [None]:
        if t is not None and t.kind == "punct" and t.text in "([{<":
            depth += 1
        elif t is not None and t.kind == "punct" and t.text in ")]}>":
            depth -= 1
        if t is None or (t.kind == "punct" and t.text == "," and depth == 0):
            if item:
                out.append(_classify_capture(item))
            item = []
            continue
        item.append(t)
    return [c for c in out if c is not None]


def _classify_capture(item):
    texts = [t.text for t in item]
    if texts == ["this"]:
        return ("this", "this")
    if texts == ["&"]:
        return ("default_ref", "")
    if texts == ["="]:
        return ("default_val", "")
    if texts and texts[0] == "&" and len(texts) >= 2 and item[1].kind == "id":
        return ("ref", texts[1])
    if item and item[0].kind == "id":
        return ("val", texts[0])  # includes init-captures `x = expr`
    return None


def _parse_params(tokens):
    """Parameter list → [(type_text, name)]."""
    params = []
    item: list = []
    depth = 0
    for t in tokens + [None]:
        if t is not None and t.kind == "punct" and t.text in "([{":
            depth += 1
        elif t is not None and t.kind == "punct" and t.text in ")]}":
            depth -= 1
        elif t is not None and t.kind == "punct" and t.text == "<" \
                and item and item[-1].kind == "id":
            depth += 1
        elif t is not None and t.kind == "punct" and t.text == ">" and depth:
            depth -= 1
        if t is None or (t.kind == "punct" and t.text == "," and depth == 0):
            if item:
                cut = None
                for k, x in enumerate(item):
                    if x.kind == "punct" and x.text == "=":
                        cut = k
                        break
                decl = item[:cut] if cut is not None else item
                if decl and decl[-1].kind == "id" and len(decl) >= 2:
                    params.append((_type_text(decl[:-1]), decl[-1].text))
                elif decl:
                    params.append((_type_text(decl), ""))
            item = []
            continue
        item.append(t)
    return params


_LOCAL_HEAD_BAN = KEYWORDS | frozenset(
    "public private protected else then".split())


def _parse_locals(toks, start, end):
    """Best-effort local variable declarations inside a body:
    `Type name ( = | { | ; )` at statement starts. Misses plenty; never
    guesses."""
    out = {}
    i = start
    stmt_start = True
    while i < end:
        t = toks[i]
        if t.kind == "punct" and t.text in ";{}":
            stmt_start = True
            i += 1
            continue
        if not stmt_start:
            i += 1
            continue
        stmt_start = False
        if t.kind != "id" or t.text in _LOCAL_HEAD_BAN:
            continue
        # gather a plausible type: id/::/<>/*/&/const/auto sequence
        j = i
        type_toks = []
        while j < end:
            x = toks[j]
            if x.kind == "id":
                type_toks.append(x)
                j += 1
                continue
            if x.kind == "punct" and x.text == "::":
                type_toks.append(x)
                j += 1
                continue
            if x.kind == "punct" and x.text == "<" and type_toks \
                    and type_toks[-1].kind == "id":
                k = j
                depth = 0
                ok = None
                while k < end:
                    y = toks[k]
                    if y.kind == "punct":
                        if y.text == "<":
                            depth += 1
                        elif y.text == ">":
                            depth -= 1
                            if depth == 0:
                                ok = k + 1
                                break
                        elif y.text == ">>":
                            depth -= 2
                            if depth <= 0:
                                ok = k + 1
                                break
                        elif y.text in ";={":
                            break
                        elif y.text == "(":
                            k = _skip_balanced(toks, k, "(", ")")
                            continue
                    k += 1
                if ok is None:
                    break
                for z in range(j, ok):
                    type_toks.append(toks[z])
                j = ok
                continue
            if x.kind == "punct" and x.text in ("*", "&", "&&"):
                type_toks.append(x)
                j += 1
                continue
            break
        if len(type_toks) < 2 or j >= end:
            continue
        name_tok = type_toks[-1]
        if name_tok.kind != "id" or name_tok.text in _LOCAL_HEAD_BAN:
            continue
        terminator = toks[j]
        if terminator.kind == "punct" and terminator.text in (";", "=", "{"):
            ty = _type_text(type_toks[:-1])
            # require the type to actually look like a type
            if any(tt.kind == "id" and tt.text not in TYPE_QUALIFIERS
                   for tt in type_toks[:-1]):
                out.setdefault(name_tok.text, ty)
        i = j if j > i else i + 1
    return out
