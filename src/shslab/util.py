"""Small shared helpers: deterministic JSON I/O, typed document values and
per-object memos."""

from __future__ import annotations

import json
import weakref

from .errors import ConfigError, ShslabError

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
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a JSON document: {exc}") from exc


_REQUIRED = object()


def doc_value(doc, key: str, kind, source, default=_REQUIRED):
    """kind(doc[key]), or `default` when the key is absent and a default is
    given. A document that is not an object, a missing required key, or a
    value kind rejects is a ConfigError that names `source` and the key. The
    kinds dict and list take only a JSON object and a JSON array as they are."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"{source}: missing key '{key}'")
        return default
    value = doc[key]
    try:
        if kind in (dict, list) and not isinstance(value, kind):
            raise TypeError(f"expected a JSON {'object' if kind is dict else 'array'}")
        return kind(value)
    except (TypeError, ValueError, ShslabError) as exc:
        raise ConfigError(f"{source}: key '{key}' has bad value {value!r}: {exc}") from exc
