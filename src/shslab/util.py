"""Small shared helpers: deterministic JSON output and per-object memos."""

from __future__ import annotations

import json
import weakref

# owner -> {key: value}; an entry goes when its owner is collected
_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def memo(owner, key, build):
    """build(), computed once per (owner, key) and kept while `owner` lives.

    The owner must be immutable and hashed by identity (a frozen, eq=False
    dataclass holding read-only arrays), so a value derived from it stays
    valid. The value must not refer to its owner, or the entry would keep
    the owner alive.
    """
    entries = _MEMO.setdefault(owner, {})
    if key not in entries:
        entries[key] = build()
    return entries[key]


def dump_json(obj, path, sort_keys: bool = False) -> None:
    """Write JSON with a trailing newline; float repr keeps output reproducible."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
