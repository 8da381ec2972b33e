"""C++ tokenizer for mcs_analyze's internal frontend.

Produces a flat token stream with comments, string/char literals, and
preprocessor lines classified — so no check can ever match inside a comment
or a string literal (the false-positive class of line-regex linters). This
is not a full C++ lexer: it only needs to be faithful about token
*boundaries* (identifiers, literals, multi-char punctuators, raw strings)
so the structural indexer above it can match braces and read declarations.
"""

from __future__ import annotations

from dataclasses import dataclass

# Longest-match-first multi-character punctuators.
_PUNCTS = [
    "<<=", ">>=", "->*", "...", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++",
    "--", ".*", "##",
]

IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
IDENT_CONT = IDENT_START | frozenset("0123456789")
DIGITS = frozenset("0123456789")


@dataclass
class Token:
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'punct' | 'pp'
    text: str
    line: int

    def __repr__(self) -> str:  # compact for debugging
        return f"{self.kind}:{self.text}@{self.line}"


@dataclass
class LexedFile:
    tokens: list  # list[Token]
    comments: list  # list[tuple[int, str]] (line, comment text)
    # line -> True when the line holds at least one non-comment token
    code_lines: set


def lex(text: str) -> LexedFile:
    tokens: list[Token] = []
    comments: list[tuple[int, str]] = []
    code_lines: set[int] = set()
    i, n, line = 0, len(text), 1

    def emit(kind: str, s: str, ln: int) -> None:
        tokens.append(Token(kind, s, ln))
        code_lines.add(ln)

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""

        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue

        # Line comment.
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            comments.append((line, text[i:j]))
            i = j
            continue

        # Block comment (may span lines; attribute one comment per start line).
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            comments.append((line, chunk))
            line += chunk.count("\n")
            i = j
            continue

        # Preprocessor line (only when '#' begins the logical line). Consume
        # through backslash continuations; emit one opaque token.
        if c == "#":
            back = i - 1
            while back >= 0 and text[back] in " \t":
                back -= 1
            if back < 0 or text[back] == "\n":
                start_line = line
                j = i
                while j < n:
                    k = text.find("\n", j)
                    if k == -1:
                        j = n
                        break
                    if text[k - 1] == "\\" if k > 0 else False:
                        line += 1
                        j = k + 1
                        continue
                    j = k
                    break
                emit("pp", text[i:j], start_line)
                i = j
                continue

        # Raw string literal R"delim( ... )delim".
        if c == "R" and nxt == '"':
            k = text.find("(", i + 2)
            if k != -1 and k - (i + 2) <= 16:
                delim = text[i + 2 : k]
                close = ")" + delim + '"'
                j = text.find(close, k + 1)
                j = n if j == -1 else j + len(close)
                chunk = text[i:j]
                emit("str", chunk, line)
                line += chunk.count("\n")
                i = j
                continue

        # String / char literal (with escapes). Also covers prefixed forms
        # via the identifier path below falling through? No: handle u8"" etc
        # by letting the identifier lexer grab the prefix, then the quote
        # lands here — acceptable: the literal still lexes as 'str'.
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            emit("str" if quote == '"' else "chr", text[i:j], line)
            line += text.count("\n", i, j)
            i = j
            continue

        # Identifier / keyword.
        if c in IDENT_START:
            j = i + 1
            while j < n and text[j] in IDENT_CONT:
                j += 1
            emit("id", text[i:j], line)
            i = j
            continue

        # Number (grab a pp-number blob; exactness is irrelevant here).
        if c in DIGITS or (c == "." and nxt in DIGITS):
            j = i + 1
            while j < n and (text[j] in IDENT_CONT or text[j] in ".'+-"
                             and text[j - 1] in "eEpP"):
                if text[j] in "+-" and text[j - 1] not in "eEpP":
                    break
                j += 1
            emit("num", text[i:j], line)
            i = j
            continue

        # Punctuator.
        for p in _PUNCTS:
            if text.startswith(p, i):
                emit("punct", p, line)
                i += len(p)
                break
        else:
            emit("punct", c, line)
            i += 1

    return LexedFile(tokens=tokens, comments=comments, code_lines=code_lines)
