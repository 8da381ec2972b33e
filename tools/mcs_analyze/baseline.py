"""Baseline handling: accepted findings recorded in a JSON file so the tool
can gate on *new* findings only (clang-tidy style).

Keys are (path, check, normalized-line-text) — line numbers drift with every
edit, line text rarely does, so a baseline survives unrelated churn but a
reworded or moved-to-a-new-file finding correctly shows up as new. Each
entry carries a human `why` so the baseline stays justified, not a dumping
ground (CI reviews it like code).
"""

from __future__ import annotations

import json
from pathlib import Path


def load(path: Path) -> dict:
    """-> {(path, check, context): why}"""
    if not path.is_file():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    out = {}
    for entry in data.get("findings", []):
        key = (entry["path"], entry["check"], entry["context"])
        out[key] = entry.get("why", "")
    return out


TODO_WHY = "TODO: justify or fix"


def apply(findings, accepted: dict) -> None:
    """Mark findings present in the baseline; mutates in place."""
    for f in findings:
        if f.key() in accepted:
            f.baselined = True


def stale(accepted: dict, findings, in_scope) -> list:
    """Baseline keys that match no non-suppressed finding, among the keys
    `in_scope(path, check)` says this run analyzed. A stale entry would
    silently accept a future finding that happens to share its key."""
    found = {f.key() for f in findings if not f.suppressed}
    return sorted(key for key in accepted
                  if in_scope(key[0], key[1]) and key not in found)


def write(path: Path, findings):
    """Write every active (non-suppressed) finding as the new baseline,
    preserving `why` strings for keys that already existed.

    Returns (entries written, new keys given the TODO why, previous keys
    dropped because no finding matches them)."""
    previous = load(path) if path.is_file() else {}
    entries = []
    seen = set()
    todo = []
    for f in findings:
        if f.suppressed:
            continue
        key = f.key()
        if key in seen:
            continue
        seen.add(key)
        if key not in previous:
            todo.append(key)
        entries.append({
            "path": f.path,
            "line": f.line,  # informational; not part of the key
            "check": f.check,
            "context": f.context,
            "why": previous.get(key, TODO_WHY),
        })
    dropped = sorted(key for key in previous if key not in seen)
    doc = {
        "comment": "Accepted mcs_analyze findings. Keyed by "
                   "(path, check, context); 'line' is informational. "
                   "Every entry needs a real 'why' to survive review.",
        "findings": entries,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")
    return len(entries), todo, dropped
