"""Span tracer that wraps shslab's cross-module call sites from outside.

Nothing under src/ is edited: `install` replaces the names one shslab module
imported from another (or calls on itself by global lookup) with wrappers that
record a span (id, parent, name, op, phase, start, end) and exact counts in
memory. A call site that a later version of shslab no longer has is skipped,
so its metrics read zero instead of failing.

Spans and counts are kept only while `phase` is set ("setup" or "measure");
output checks run with `phase = None` and leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np


def _dir_sizes(path) -> dict[str, int]:
    sizes = {}
    for root, _, files in os.walk(path):
        for f in files:
            full = os.path.join(root, f)
            sizes[full] = os.path.getsize(full)
    return sizes


def _fit_rows(b, result):
    stack = b.get("stack")
    if stack is not None:
        rows = stack.shape[0]
    else:
        rows = (b["window"].steps // b["subsample"] + 1) * b["dmodel"].p
    return {"detection.fit_calls": 1, "detection.fit_rows": rows}


def decisive_count(residual_rows) -> int:
    """Windows whose best residual is strictly below the second best."""
    n = 0
    for res in residual_rows:
        r = np.sort(np.asarray(res, dtype=float))
        n += int(r.size < 2 or r[0] < r[1])
    return n


def _verdicts(b, report):
    rows = [v.residuals for v in report.verdicts]
    return {"detection.windows": len(rows),
            "detection.decisive_windows": decisive_count(rows)}


def _bytes_read(b, result):
    with os.scandir(b["win_dir"]) as entries:
        return {"experiment.bytes_read": sum(
            e.stat().st_size for e in entries if e.is_file())}


def _written(b, result, before):
    after = _dir_sizes(b["out_dir"])
    changed = [p for p, s in after.items() if before.get(p) != s]
    return {"experiment.files_written": len(changed),
            "experiment.bytes_written": sum(after[p] for p in changed)}


# (module whose global name is replaced, attribute, counts(bound, result[, pre]),
#  pre-call snapshot(bound)). The span is named <defining module>.<function>.
CALL_SITES = [
    ("shslab.cli", "parse_network", None, None),
    ("shslab.cli", "validate", None, None),
    ("shslab.cli", "segment_network", None, None),
    ("shslab.cli", "build_family", lambda b, r: {"ssbuild.scenarios_built": len(r)}, None),
    ("shslab.cli", "design_mami", None, None),
    ("shslab.cli", "eigen_report", None, None),
    ("shslab.cli", "run_experiment", None, None),
    ("shslab.cli", "write_outputs", _written, lambda b: _dir_sizes(b["out_dir"])),
    ("shslab.cli", "read_windows", _bytes_read, None),
    ("shslab.cli", "discretize_zoh", lambda b, r: {"linsys.discretize_zoh_calls": 1}, None),
    ("shslab.cli", "detect_sequence", _verdicts, None),
    ("shslab.experiment", "simulate",
     lambda b, r: {"linsys.simulate_calls": 1, "linsys.simulate_steps": b["steps"]}, None),
    ("shslab.experiment", "discretize_zoh",
     lambda b, r: {"linsys.discretize_zoh_calls": 1}, None),
    ("shslab.experiment", "detect_sequence", _verdicts, None),
    ("shslab.experiment", "eig_sorted", None, None),
    ("shslab.detection", "simulate",
     lambda b, r: {"linsys.simulate_calls": 1, "linsys.simulate_steps": b["steps"]}, None),
    ("shslab.detection", "estimate_initial_state", _fit_rows, None),
    ("shslab.detection", "observability_stack", None, None),
    ("shslab.detection", "forced_outputs", lambda b, r: {"detection.forced_calls": 1}, None),
    ("shslab.probing", "step_response", lambda b, r: {"probing.step_response_calls": 1}, None),
    ("shslab.probing", "discretize_zoh", lambda b, r: {"linsys.discretize_zoh_calls": 1}, None),
    ("shslab.probing", "compute_delta_min", None, None),
    ("shslab.probing", "compute_mu1", None, None),
    ("shslab.probing", "eigenvalues", None, None),
]

# span name -> per-layer self-time metric
SELF_TIME = {
    "grid.parse_network": "grid.parse_s",
    "grid.validate": "grid.parse_s",
    "segmentation.segment_network": "segmentation.segment_s",
    "ssbuild.build_family": "ssbuild.build_family_s",
    "linsys.simulate": "linsys.simulate_s",
    "linsys.step_response": "linsys.step_response_s",
    "linsys.discretize_zoh": "linsys.discretize_zoh_s",
    "linsys.eig_sorted": "linsys.eig_s",
    "linsys.eigenvalues": "linsys.eig_s",
    "probing.design_mami": "probing.design_mami_s",
    "probing.compute_delta_min": "probing.delta_min_s",
    "probing.compute_mu1": "probing.mu1_s",
    "detection.detect_sequence": "detection.detect_sequence_s",
    "detection.estimate_initial_state": "detection.fit_s",
    "detection.observability_stack": "detection.stack_s",
    "detection.forced_outputs": "detection.forced_s",
    "experiment.run_experiment": "experiment.run_experiment_s",
    "experiment.eigen_report": "experiment.eigen_report_s",
    "experiment.write_outputs": "experiment.write_outputs_s",
    "experiment.read_windows": "experiment.read_windows_s",
    "cli.main": "cli.self_s",
}

COUNTS = ("ssbuild.scenarios_built", "linsys.simulate_calls", "linsys.simulate_steps",
          "linsys.discretize_zoh_calls", "probing.step_response_calls",
          "detection.fit_calls", "detection.fit_rows", "detection.forced_calls",
          "detection.windows", "detection.decisive_windows",
          "experiment.bytes_written", "experiment.files_written", "experiment.bytes_read")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [id, parent, name, op, phase, start, end]
        self.counts = {"setup": defaultdict(int), "measure": defaultdict(int)}
        self.phase: str | None = None
        self.op: int | None = None
        self._stack: list[int] = []

    def _begin(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, self.op, self.phase, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _end(self, span: list) -> None:
        span[6] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span when a phase is active."""
        if self.phase is None:
            return fn(*args, **kwargs)
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def wrap(self, fn, count=None, pre=None):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            bound = None
            if count is not None:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            state = pre(bound) if pre is not None else None
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                added = count(bound, result, state) if pre is not None else count(bound, result)
                for key, value in added.items():
                    self.counts[self.phase][key] += value
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, count, pre in CALL_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(fn, count, pre))

    def self_times(self, phase: str) -> dict[str, float]:
        """Per-layer self time (span minus its direct children), by metric."""
        child = defaultdict(float)
        for _, parent, _, _, ph, start, end in self.spans:
            if parent is not None and ph == phase:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, _, ph, start, end in self.spans:
            if ph == phase and name in SELF_TIME:
                out[SELF_TIME[name]] += (end - start) - child[sid]
        return out

    def to_json(self) -> dict:
        return {
            "spans": [dict(zip(("id", "parent", "name", "op", "phase", "start", "end"), s))
                      for s in self.spans],
            "counts": {ph: dict(c) for ph, c in self.counts.items()},
        }
