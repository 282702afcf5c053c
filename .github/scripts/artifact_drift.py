"""Print how far a run's windows.npy, report.json and probe.json moved from
another run's: the largest windows.npy difference relative to its column's
largest magnitude, the largest relative drift of the residuals that lost and
of those that won, the winners' drift also relative to their window's output
norm, whether every verdict is the same, the relative drift of each float in
probe.json, and whether its other keys match.

    python .github/scripts/artifact_drift.py BASE_RUN_DIR HEAD_RUN_DIR

Both directories hold one run's artifacts (report.json, windows/). Always
exits 0: it reports, it does not gate.
"""

import json
import os
import sys

import numpy as np


def probe_drift(base_dir: str, head_dir: str) -> None:
    docs = []
    for d in (base_dir, head_dir):
        with open(os.path.join(d, "probe.json"), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    base, head = docs
    floats = sorted(k for k in base.keys() & head.keys()
                    if type(base[k]) is float and type(head[k]) is float)
    for key in floats:
        drift = abs(head[key] - base[key])
        rel = drift / abs(base[key]) if drift else 0.0
        print(f"probe.json: {key} {base[key]!r} -> {head[key]!r}, relative drift {rel:.3g}")
    others = {k: base.get(k) for k in base.keys() | head.keys() if k not in floats}
    same = all(others[k] == head.get(k) for k in others) and base.keys() == head.keys()
    print(f"probe.json: every other key {'matches' if same else 'differs'} "
          f"({', '.join(sorted(others))})")


def main(base_dir: str, head_dir: str) -> None:
    probe_drift(base_dir, head_dir)
    base, head = (np.load(os.path.join(d, "windows", "windows.npy")) for d in (base_dir, head_dir))
    if base.shape != head.shape:
        print(f"windows.npy: shapes differ, {base.shape} against {head.shape}")
        return
    scale = np.abs(base).max(axis=(0, 1))
    diff = np.abs(head - base).max(axis=(0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / scale)
    print(f"windows.npy: largest difference {rel.max():.3g} of its column's max "
          f"(column {int(rel.argmax())})")

    reports = []
    for d in (base_dir, head_dir):
        with open(os.path.join(d, "report.json"), encoding="utf-8") as fh:
            reports.append(json.load(fh)["windows"])
    rb = np.array([w["residuals"] for w in reports[0]])
    rh = np.array([w["residuals"] for w in reports[1]])
    if rb.shape != rh.shape:
        print(f"report.json: residual tables differ in shape, {rb.shape} against {rh.shape}")
        return
    won = np.zeros(rb.shape, dtype=bool)
    won[np.arange(len(rb)), [w["detected"] for w in reports[0]]] = True
    drift = np.abs(rh - rb)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(drift == 0, 0.0, drift / np.abs(rb))
    with open(os.path.join(base_dir, "windows", "meta.json"), encoding="utf-8") as fh:
        p = json.load(fh)["n_outputs"]
    # the norm of each window's output columns, t and the inputs left out
    norms = np.linalg.norm(base[:, :, 1:1 + p].reshape(len(base), -1), axis=1)
    print(f"report.json: largest relative residual drift {rel[~won].max(initial=0):.3g} "
          f"(losing), {rel[won].max(initial=0):.3g} (winning); winning drift "
          f"{(drift[won] / norms).max(initial=0):.3g} of the window's output norm")
    same = [w["detected"] for w in reports[0]] == [w["detected"] for w in reports[1]]
    print("every detected verdict matches" if same else "detected verdicts differ")


if __name__ == "__main__":
    main(*sys.argv[1:3])
