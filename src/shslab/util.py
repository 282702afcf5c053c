"""Small shared helpers: deterministic JSON output."""

from __future__ import annotations

import json


def dump_json(obj, path, sort_keys: bool = False) -> None:
    """Write JSON with a trailing newline; float repr keeps output reproducible."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
