"""Run manifests: every CLI stage writes one next to its outputs, recording
the tool version, byte-exact input digests, and the effective configuration."""

from __future__ import annotations

import datetime
import hashlib
import os

from . import __version__
from .util import dump_json


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, inputs: list, config_echo: dict | None = None) -> None:
    """Write the manifest to `path`, making its directory.

    The timestamp is the only non-reproducible field; byte-level comparisons
    of two runs should exclude it.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    manifest = {
        "tool": f"shslab {__version__}",
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {
            str(p): file_digest(p) for p in sorted(str(q) for q in inputs)
        },
        "config": config_echo or {},
    }
    dump_json(manifest, path, sort_keys=True)
