"""shslab benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload {repro-paper,probe-sweep,replay-detect}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. shslab is imported from ./src, never from an
installed copy. Each workload is a closed loop with one caller: the next
operation starts when the previous one returns; operations run until their
summed wall time reaches --seconds. Outputs are checked after each operation,
outside the timed region. Scratch artifacts go to a temporary directory under
.bench_tmp/ (removed at exit); a result file with the machine description,
every metric, per-condition tie counts and (traced runs) the spans goes to
.bench_results/. The last stdout line is the JSON summary.

Seed 9001 is held out: do not use it while tuning a change; use it to
confirm a claimed gain once the change is final.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
IMPORT_REPEATS = 3

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "windows_per_s": "1/s", "peak_rss_mb": "MB"}

# Layers whose set-up share a later change is most likely to move, reported
# per set-up (sum over the run's set-ups divided by their number).
SETUP_LAYERS = ("ssbuild.build_family_s", "probing.design_mami_s", "probing.delta_min_s",
                "linsys.step_response_s", "linsys.simulate_s", "experiment.write_outputs_s")


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_seconds() -> list[float]:
    """Wall time of a fresh interpreter importing shslab.cli, several times."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import shslab.cli"
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t)
    return times


def machine_info() -> dict:
    import platform

    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    config = blas.get("openblas configuration", "")
    cap = re.search(r"MAX_THREADS=(\d+)", config)
    info["blas"] = {"name": blas.get("name"), "version": blas.get("version"),
                    "max_threads": int(cap.group(1)) if cap else None,
                    "configuration": config}
    info["cpu_model"] = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    info["cpu_model"] = value.strip()
                    break
    except OSError:
        pass
    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(cache_dir)):
            if idx.startswith("index"):
                vals = {}
                for key in ("level", "type", "size"):
                    with open(os.path.join(cache_dir, idx, key), "r", encoding="utf-8") as fh:
                        vals[key] = fh.read().strip()
                caches.append(f"L{vals['level']} {vals['type']} {vals['size']}")
    except OSError:
        pass
    info["caches"] = caches
    return info


def percentile_line(times: list[float]) -> str:
    """Median, plus the highest of p90/p95/p99 that has >= 10 samples beyond it."""
    parts = [f"p50 {statistics.median(times):.6g} s"]
    for p in (99, 95, 90):
        if len(times) * (100 - p) / 100 >= 10:
            parts.append(f"p{p} {statistics.quantiles(times, n=100)[p - 1]:.6g} s")
            break
    return ", ".join(parts) + f" (n={len(times)})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "shslab", "__init__.py")):
        _fail(f"no shslab sources under {SRC}")
    sys.path.insert(0, SRC)
    import shslab
    import workloads

    if not os.path.abspath(shslab.__file__).startswith(SRC + os.sep):
        _fail(f"shslab imported from {shslab.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r} (one of {sorted(workloads.WORKLOADS)})")

    imports = import_seconds()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp, tracer)
        setups = []
        for r in range(wl.setup_repeats):
            if tracer:
                tracer.phase = "setup"
            t = time.perf_counter()
            wl.setup(r)
            setups.append(time.perf_counter() - t)
        if tracer:
            tracer.phase = None

        op_times, problems = [], []
        attempted = failed = windows = 0
        while sum(op_times) < args.seconds:
            i = attempted
            attempted += 1
            if tracer:
                tracer.phase, tracer.op = "measure", i
            t = time.perf_counter()
            # a failed operation or check is counted, not fatal
            try:
                out = wl.op(i)
            except Exception as exc:
                errs = [f"{type(exc).__name__}: {exc}"]
            else:
                errs = None
            op_times.append(time.perf_counter() - t)
            if tracer:
                tracer.phase = None
            if errs is None:
                try:
                    done, errs = wl.check(i, out)
                except Exception as exc:
                    done, errs = 0, [f"check raised {type(exc).__name__}: {exc}"]
            if errs:
                failed += 1
                problems.extend(f"op {i}: {e}" for e in errs)
            else:
                windows += done
        measured_s = sum(op_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setup_s = statistics.median(imports) + statistics.median(setups)
    e2e = {"setup_s": setup_s, "op_p50_s": statistics.median(op_times),
           "windows_per_s": windows / measured_s, "peak_rss_mb": peak_rss_mb}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{attempted} ops in {measured_s:.3f} s measured")
    print(f"setup_s = {setup_s:.6g} s (import {statistics.median(imports):.4g} s + set-up "
          f"{statistics.median(setups):.4g} s, medians of {len(imports)} and {len(setups)})")
    print(f"op_p50_s = {e2e['op_p50_s']:.6g} s ({percentile_line(op_times)})")
    print(f"windows_per_s = {e2e['windows_per_s']:.6g} 1/s ({windows} windows)")
    print(f"peak_rss_mb = {peak_rss_mb:.6g} MB")
    print(f"ops_failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for cond, (dec, n) in wl.decisive.items():
        frac = f"{dec / n:.4g}" if n else "n/a"
        print(f"detection.decisive_frac[{cond}] = {frac} ({dec}/{n} windows)")
    for p in problems:
        print(f"FAILED {p}")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(),
              "attempted": attempted, "failed": failed, "problems": problems,
              "op_times_s": op_times, "import_s": imports, "setup_repeats_s": setups,
              "decisive": {c: {"decisive": d, "windows": n} for c, (d, n) in wl.decisive.items()},
              "end_to_end": e2e}
    print("machine: " + json.dumps(result["machine"]))

    if tracer:
        metrics = layer_metrics(tracer, op_times, len(setups))
        base = load_result(args.workload, args.seed, 0)
        if base is not None:
            untraced = base["end_to_end"]["op_p50_s"]
            overhead = e2e["op_p50_s"] - untraced
            result["tracing_overhead_s"] = overhead
            print(f"tracing overhead: op_p50_s {e2e['op_p50_s']:.6g} s traced vs "
                  f"{untraced:.6g} s untraced ({overhead:+.4g} s, "
                  f"{100 * overhead / untraced:+.2f} %)")
        shares = {k: v["value"] / measured_s for k, v in metrics.items()
                  if k.endswith("_s") and not k.startswith(("setup.", "bench."))}
        for k, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share >= 0.0005:
                print(f"  {k:32s} {100 * share:6.2f} % of measured time")
        result["spans"] = tracer.to_json()
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    result["metrics"] = metrics
    save_result(result)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracer, op_times: list[float], setups: int) -> dict:
    """Self times summed over the measured part; counts per operation, which
    repeat exactly from run to run when every operation does the same work."""
    measure = tracer.self_times("measure")
    setup = tracer.self_times("setup")
    counts = tracer.counts["measure"]
    ops = len(op_times)
    out = {name: {"value": measure.get(name, 0.0), "unit": "s"}
           for name in dict.fromkeys(tracing.SELF_TIME.values())}
    for name in tracing.COUNTS:
        out[name] = {"value": counts.get(name, 0) / ops,
                     "unit": "B" if ".bytes_" in name else "count"}
    n = counts.get("detection.windows", 0)
    out["detection.decisive_frac"] = {
        "value": counts.get("detection.decisive_windows", 0) / n if n else 0.0,
        "unit": "ratio"}
    for name in SETUP_LAYERS:
        out[f"setup.{name}"] = {"value": setup.get(name, 0.0) / setups, "unit": "s"}
    out["bench.ops"] = {"value": ops, "unit": "count"}
    out["bench.measured_s"] = {"value": sum(op_times), "unit": "s"}
    out["bench.traced_op_p50_s"] = {"value": statistics.median(op_times), "unit": "s"}
    return out


def _result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(ROOT, ".bench_results", f"{workload}-seed{seed}-trace{trace}.json")


def load_result(workload: str, seed: int, trace: int) -> dict | None:
    try:
        with open(_result_path(workload, seed, trace), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def save_result(result: dict) -> None:
    path = _result_path(result["workload"], result["seed"], result["trace"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
