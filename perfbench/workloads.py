"""The three benchmark workloads, each a closed loop with one caller.

Every workload drives shslab through `shslab.cli.main` or public functions
only, and never sets a thread count, so the program runs at its default.
`setup` may run several times; the last set-up is the one measured against.
`op` is the timed operation; `check` verifies its output outside the timed
region and returns (windows verified, list of problems).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil

import numpy as np

import shslab
from shslab import cli, detection, experiment, grid, linsys, probing, segmentation, ssbuild

from tracer import decisive_count

BUNDLED_CONFIG = "paper6bus_experiment.json"
BUNDLED_NETWORK = "paper6bus.json"
K = 40
NOISE_SIGMA = 1e-3
# Refit tolerance against detection.estimate_initial_state, relative to the
# larger residual, with an absolute floor scaled by the window's output norm.
REFIT_RTOL = 1e-9
REFIT_ATOL = 1e-14


def derived_seeds(seed: int, tag: str, n: int) -> list[int]:
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def _load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _bundled(name: str) -> str:
    return str(shslab.data_path(name))


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _decisive(report_doc: dict) -> tuple[int, int]:
    rows = [w["residuals"] for w in report_doc["windows"]]
    return decisive_count(rows), len(rows)


class Workload:
    conditions: tuple[str, ...] = ("all",)
    setup_repeats = 3

    def __init__(self, seed: int, tmp: str, tracer=None):
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        # condition -> [decisive windows, windows]
        self.decisive = {c: [0, 0] for c in self.conditions}

    def _call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def _main(self, argv: list[str]) -> int:
        return self._call("cli.main", _cli, argv)

    def _tally(self, condition: str, decisive: int, windows: int) -> None:
        self.decisive[condition][0] += decisive
        self.decisive[condition][1] += windows


class ReproPaper(Workload):
    """`shslab repro-paper` on the bundled case; the config fixes the seed."""

    name = "repro-paper"

    def setup(self, index: int) -> None:
        self.reference: dict[str, str] | None = None

    def op(self, i: int) -> int:
        return self._main(["repro-paper", "--out-dir", os.path.join(self.tmp, f"op{i}")])

    @staticmethod
    def _digests(out_dir: str) -> dict[str, str]:
        out = {}
        for root, _, files in os.walk(out_dir):
            for f in files:
                path = os.path.join(root, f)
                with open(path, "rb") as fh:
                    data = fh.read()
                if f == "manifest.json":
                    doc = json.loads(data)
                    doc.pop("created_utc", None)
                    data = json.dumps(doc, sort_keys=True).encode()
                out[os.path.relpath(path, out_dir)] = hashlib.sha256(data).hexdigest()
        return out

    def check(self, i: int, rc: int) -> tuple[int, list[str]]:
        out_dir = os.path.join(self.tmp, f"op{i}")
        if rc != 0:
            return 0, [f"exit code {rc}"]
        report = _load(os.path.join(out_dir, "report.json"))
        decisive, windows = _decisive(report)
        self._tally("all", decisive, windows)
        problems = []
        if report.get("accuracy") != 1.0 or windows != K:
            problems.append(f"accuracy {report.get('accuracy')} over {windows} windows")
        if decisive != windows:
            problems.append(f"{windows - decisive} tied windows; accuracy there is not a verdict")
        digests = self._digests(out_dir)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            diff = sorted(set(digests.items()) ^ set(self.reference.items()))
            problems.append(f"artifacts differ from the first operation's: "
                            f"{sorted({k for k, _ in diff})[:5]}")
        shutil.rmtree(out_dir)
        return windows, problems


class ProbeSweep(Workload):
    """run_experiment at K=40 on a family and probe built once in set-up,
    cycling probe on/off and zero/random initial state per derived seed."""

    name = "probe-sweep"
    # (label, probe on, x0 mode, noise sigma)
    CONDITIONS = (("probe-on/zero-x0", True, "zero", 0.0),
                  ("probe-off/zero-x0", False, "zero", 0.0),
                  ("probe-on/random-x0", True, "random", NOISE_SIGMA),
                  ("probe-off/random-x0", False, "random", NOISE_SIGMA))
    conditions = tuple(c[0] for c in CONDITIONS)
    REFIT_WINDOWS = (0, K - 1)

    def setup(self, index: int) -> None:
        cfg = _load(_bundled(BUNDLED_CONFIG))
        net = self._call("grid.parse_network", grid.parse_network, _load(_bundled(BUNDLED_NETWORK)))
        assignment = {int(b): int(s) for s, buses in cfg["segments"].items() for b in buses}
        segments = self._call("segmentation.segment_network",
                              segmentation.segment_network, net, assignment)
        seg = next(s for s in segments if s.id == int(cfg["segment"]))
        cons = [ssbuild.contingency_from_json(c) for c in cfg["contingencies"]]
        self.family = self._call("ssbuild.build_family", ssbuild.build_family, seg, cons)
        p = cfg["probe"]
        self.probe = self._call("probing.design_mami", probing.design_mami,
                                self.family, self.family[0].x_op, p["channel"],
                                float(cfg["tau0"]), float(cfg["ts"]), margin=float(p["margin"]))
        self.cfg = cfg
        self.seeds = derived_seeds(self.seed, self.name, 64)
        self.dmodels = None

    def _config(self, i: int) -> experiment.ExperimentConfig:
        _, probe_on, x0_mode, sigma = self.CONDITIONS[i % 4]
        return experiment.ExperimentConfig(
            family=self.family, probe=self.probe,
            tau=float(self.cfg["tau"]), tau0=float(self.cfg["tau0"]), ts=float(self.cfg["ts"]),
            K=K, seed=self.seeds[i // 4 % len(self.seeds)], noise_sigma=sigma,
            subsample=int(self.cfg["subsample"]), x0_mode=x0_mode,
            probe_override_R=None if probe_on else 0.0)

    def op(self, i: int):
        config = self._config(i)
        return self._call("experiment.run_experiment", experiment.run_experiment, config)

    def check(self, i: int, result) -> tuple[int, list[str]]:
        label = self.CONDITIONS[i % 4][0]
        report = result.report
        problems = []
        if len(report.verdicts) != K or len(result.windows) != K:
            return 0, [f"{label}: {len(report.verdicts)} verdicts for K={K}"]
        rows = [v.residuals for v in report.verdicts]
        self._tally(label, decisive_count(rows), len(rows))
        if label == "probe-on/zero-x0" and report.detected != list(result.sequence.alphas):
            problems.append(f"{label}: detected sequence differs from the truth")
        if self.dmodels is None:
            self.dmodels = [linsys.discretize_zoh(sc, result.config.ts) for sc in self.family]
        for k in self.REFIT_WINDOWS:
            window = result.windows[k]
            refit = np.array([detection.estimate_initial_state(
                dm, window, subsample=result.config.subsample)[1] for dm in self.dmodels])
            got = np.asarray(report.verdicts[k].residuals)
            tol = REFIT_RTOL * np.maximum(np.abs(refit), np.abs(got)) \
                + REFIT_ATOL * np.linalg.norm(window.samples)
            if not np.all(np.abs(refit - got) <= tol):
                problems.append(f"{label} window {k}: residuals {got} != refit {refit}")
            elif int(np.argmin(refit)) != report.verdicts[k].detected:
                problems.append(f"{label} window {k}: refit argmin differs")
        return K, problems


class ReplayDetect(Workload):
    """`shslab detect` over traces recorded in set-up through `shslab run`
    (random x0, noise) with the probe on and off, at the recorded 10 us grid."""

    name = "replay-detect"
    conditions = ("probe-on/random-x0", "probe-off/random-x0")
    # one set-up is two full `shslab run`s (about 10 s), so two fit the run budget
    setup_repeats = 2

    def setup(self, index: int) -> None:
        root = os.path.join(self.tmp, f"setup{index}")
        os.makedirs(root)
        cfg = _load(_bundled(BUNDLED_CONFIG))
        network = _bundled(BUNDLED_NETWORK)
        self.segment = str(cfg["segment"])
        build_cfg = os.path.join(root, "build.json")
        with open(build_cfg, "w", encoding="utf-8") as fh:
            json.dump({"segments": cfg["segments"],
                       "contingencies": {self.segment: cfg["contingencies"]}}, fh)
        self.family = os.path.join(root, "family.json")
        if self._main(["build", "--network", network, "--config", build_cfg,
                       "--out", self.family]) != 0:
            raise RuntimeError("shslab build failed in set-up")
        self.traces = []
        for label, seed in zip(self.conditions, derived_seeds(self.seed, self.name, 2)):
            run_cfg = os.path.join(root, f"{label.split('/')[0]}.json")
            with open(run_cfg, "w", encoding="utf-8") as fh:
                json.dump(dict(cfg, network=network, seed=seed, K=K,
                               x0_mode="random", noise_sigma=NOISE_SIGMA), fh)
            out = os.path.join(root, label.split("/")[0])
            argv = ["run", "--config", run_cfg, "--out-dir", out]
            if label.startswith("probe-off"):
                argv.append("--probe-off")
            if self._main(argv) != 0:
                raise RuntimeError(f"shslab run failed in set-up ({label})")
            recorded = _load(os.path.join(out, "report.json"))
            self.traces.append((label, out, [w["detected"] for w in recorded["windows"]]))
        self.out = os.path.join(root, "detect.json")

    def op(self, i: int) -> int:
        _, trace, _ = self.traces[i % len(self.traces)]
        return self._main(["detect", "--family", self.family, "--segment", self.segment,
                           "--probe", os.path.join(trace, "probe.json"),
                           "--trace", os.path.join(trace, "windows"),
                           "--truth", os.path.join(trace, "truth.csv"),
                           "--out", self.out])

    def check(self, i: int, rc: int) -> tuple[int, list[str]]:
        label, _, recorded = self.traces[i % len(self.traces)]
        if rc != 0:
            return 0, [f"{label}: exit code {rc}"]
        replay = _load(self.out)
        os.remove(self.out)
        decisive, windows = _decisive(replay)
        self._tally(label, decisive, windows)
        detected = [w["detected"] for w in replay["windows"]]
        if detected != recorded:
            return 0, [f"{label}: replayed verdicts differ from the recorded run's"]
        return windows, []


WORKLOADS = {w.name: w for w in (ReproPaper, ProbeSweep, ReplayDetect)}
