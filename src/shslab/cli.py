"""Command-line pipeline: validate, segment, build, analyze, design-probe,
run, detect, repro-paper.

Exit codes: 0 success, 1 usage or unreadable input path, 2 a rejected
document, config or argument (ConfigError), 3 a computation that cannot
proceed on accepted inputs (NumericalError), such as scenarios the probe
cannot tell apart. Every file-producing stage writes a manifest recording
input digests and the effective configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__, data_path
from .detection import detect_sequence, forced_responses
from .errors import ConfigError, NumericalError
from .experiment import (ExperimentConfig, eigen_report, generate_sequence,
                         read_windows, run_experiment, write_outputs)
from .grid import NetworkModel, parse_network
from .manifest import write_manifest
from .probing import (channel_index, design_mami, discretized, probe_from_json,
                      probe_margin, probe_to_json)
from .segmentation import SegmentModel, segment_network, segments_to_json
from .ssbuild import (ContingencySpec, ScenarioFamily, build_family, contingency_from_json,
                      family_from_json, family_to_json)
from .util import doc_value, dump_json, integer, load_json


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_network(path) -> NetworkModel:
    return parse_network(load_json(path))


def _assignment_from_config(cfg: dict, source) -> dict[int, int]:
    """Bus -> segment id from the config's 'segments' map of id -> bus list."""
    assignment: dict[int, int] = {}
    for seg_key, buses in doc_value(cfg, "segments", dict, source).items():
        try:
            if not isinstance(buses, list):
                raise TypeError("not a list")
            seg_id, buses = int(seg_key), [integer(b) for b in buses]
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"{source}: key 'segments' maps {seg_key!r} to {buses!r}; expected "
                f"an integer segment id and a list of bus ids") from exc
        for b in buses:
            if b in assignment:
                raise ConfigError(f"{source}: bus {b} assigned to more than one segment")
            assignment[b] = seg_id
    return assignment


def _segment_by_id(segments: list[SegmentModel], seg_id: int) -> SegmentModel:
    for seg in segments:
        if seg.id == seg_id:
            return seg
    raise ConfigError(f"no segment with id {seg_id} "
                      f"(have {[s.id for s in segments]})")


def _family(seg: SegmentModel, cfg_list: list, loc: str) -> ScenarioFamily:
    """The family of `seg` for the contingency entries listed at `loc`; an
    entry that is malformed or does not fit the segment is an error at
    `loc[i]`, and a list that does not start with 'normal' one at `loc`."""
    specs = [contingency_from_json(obj, loc=f"{loc}[{i}]") for i, obj in enumerate(cfg_list)]
    return build_family(seg, specs, loc=loc)


def _reject_key(doc: dict, key: str, source, why: str) -> None:
    """A key this program does not read is an error, not ignored, where a
    config that sets it expects another model or probe."""
    if key in doc:
        raise ConfigError(f"{source}: key '{key}' is not supported: {why}")


def _pick_family(path, segment: int | None) -> ScenarioFamily:
    """The family of `segment` in the matrices document at `path`, or its
    only family when no segment is given."""
    families = doc_value(load_json(path), "families", list, path)
    if segment is None:
        if len(families) != 1:
            raise ConfigError(f"{path}: holds {len(families)} families; pass --segment")
        return family_from_json(families[0])
    for i, fam in enumerate(families):
        if doc_value(fam, "segment_id", integer, f"{path}: families[{i}]") == segment:
            return family_from_json(fam)
    raise ConfigError(f"{path}: no family for segment {segment}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        model = _load_network(args.network)
    except ConfigError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 2
    print(f"OK: {model.name} ({len(model.buses)} buses, {len(model.lines)} lines)")
    return 0


def cmd_segment(args) -> int:
    net = _load_network(args.network)
    cfg = load_json(args.config)
    segments = segment_network(net, _assignment_from_config(cfg, args.config))
    doc = segments_to_json(segments)
    if args.out:
        dump_json(doc, args.out)
        write_manifest(os.path.dirname(os.path.abspath(args.out)), "segment",
                       [args.network, args.config], cfg,
                       name=os.path.basename(args.out) + ".manifest.json")
        _say(f"wrote {args.out}")
    if args.dump or not args.out:
        json.dump(doc, sys.stdout, indent=2)
        print()
    return 0


def cmd_build(args) -> int:
    net = _load_network(args.network)
    cfg = load_json(args.config)
    _reject_key(cfg, "monitored_bus", args.config,
                "each segment monitors the load at its resource bus")
    segments = segment_network(net, _assignment_from_config(cfg, args.config))
    con_map = doc_value(cfg, "contingencies", dict, args.config, {})
    families = []
    for seg in segments:
        listed = doc_value(con_map, str(seg.id), list, f"{args.config}: contingencies",
                           [{"kind": "normal"}])
        fam = _family(seg, listed, f"{args.config}: $.contingencies.{seg.id}")
        families.append(family_to_json(fam))
        _say(f"segment {seg.id}: n={fam[0].n}, scenarios={fam.names}")
    dump_json({"families": families}, args.out)
    write_manifest(os.path.dirname(os.path.abspath(args.out)), "build",
                   [args.network, args.config], cfg,
                   name=os.path.basename(args.out) + ".manifest.json")
    _say(f"wrote {args.out}")
    return 0


def cmd_analyze(args) -> int:
    fam = _pick_family(args.family, args.segment)
    rep = eigen_report(fam)
    rep.write_csv(args.out)
    write_manifest(os.path.dirname(os.path.abspath(args.out)), "analyze",
                   [args.family], {"segment": fam.segment_id},
                   name=os.path.basename(args.out) + ".manifest.json")
    for a, name, mx in zip(rep.alphas, rep.names, rep.max_real):
        print(f"alpha{a} ({name}): max Re(lambda) = {mx:.6g} "
              f"[{'stable' if mx < 0 else 'UNSTABLE'}]")
    print(f"all scenarios stable: {'yes' if rep.all_hurwitz else 'NO'}")
    print(f"most damped dominant mode: alpha{rep.most_damped} "
          f"({rep.names[rep.most_damped]})")
    _say(f"wrote {args.out}")
    return 0


def _flag(args, name: str, check):
    """check(args.<name>); a value it rejects is a ConfigError naming the flag."""
    try:
        return check(getattr(args, name))
    except ConfigError as exc:
        raise ConfigError(f"--{name}: {exc}") from exc


def cmd_design_probe(args) -> int:
    fam = _pick_family(args.family, args.segment)
    channel, margin = _flag(args, "channel", channel_index), _flag(args, "margin", probe_margin)
    probe = design_mami(fam, fam[0].x_op, channel, args.tau0, args.ts, margin=margin)
    dump_json(probe_to_json(probe), args.out)
    write_manifest(os.path.dirname(os.path.abspath(args.out)), "design-probe",
                   [args.family],
                   {"tau0": args.tau0, "ts": args.ts, "channel": args.channel,
                    "margin": args.margin},
                   name=os.path.basename(args.out) + ".manifest.json")
    print(f"mu0 = {probe.mu0:.6g}")
    print(f"mu1 = {probe.mu1:.6g}")
    print(f"delta_min = {probe.delta_min:.6g} (closest pair {probe.argmin_pair})")
    print(f"R0 = {probe.R0:.6g}")
    print(f"R = {probe.R:.6g}")
    _say(f"wrote {args.out}")
    return 0


def _experiment_from_config(cfg_path, probe_off: bool = False,
                            k_override: int | None = None):
    """The experiment a config file describes, the config itself, the input
    files it read, and every segment of its network. A missing key or a value
    of the wrong type is a ConfigError naming the file and the key. The probe
    is designed from the config's probe channel and margin on the
    experiment's tau0 and ts."""
    cfg = load_json(cfg_path)

    def get(key, kind, *default):
        return doc_value(cfg, key, kind, cfg_path, *default)

    def probe_get(key, kind, *default):
        return doc_value(probe_cfg, key, kind, f"{cfg_path}: probe", *default)

    # relative to the config; os.path.join keeps an absolute path as it is
    net_path = os.path.join(os.path.dirname(os.path.abspath(cfg_path)), get("network", str))
    seg_id = get("segment", integer)
    contingencies = get("contingencies", list)
    tau, tau0, ts = get("tau", float), get("tau0", float), get("ts", float)
    K = k_override if k_override is not None else get("K", integer)
    seed = get("seed", integer)
    probe_cfg = get("probe", dict, {})
    for key in ("tau0", "ts"):
        _reject_key(probe_cfg, key, f"{cfg_path}: probe",
                    f"the probe is designed on the experiment's own '{key}'")
    _reject_key(probe_cfg, "file", f"{cfg_path}: probe",
                "the probe is designed from 'channel' and 'margin'")
    channel = probe_get("channel", channel_index, "delta")
    margin = probe_get("margin", probe_margin, 1.01)
    get("reference", dict, {})  # printed after the run, so checked before it

    net = _load_network(net_path)
    segments = segment_network(net, _assignment_from_config(cfg, cfg_path))
    seg = _segment_by_id(segments, seg_id)
    fam = _family(seg, contingencies, f"{cfg_path}: $.contingencies")
    if len(fam) < 2:
        raise ConfigError("a run needs at least two scenarios to tell apart, got 1",
                          f"{cfg_path}: $.contingencies")

    probe = design_mami(fam, fam[0].x_op, channel, tau0, ts, margin=margin)

    noise_sigma, subsample = get("noise_sigma", float, 0.0), get("subsample", integer, 10)
    try:
        exp = ExperimentConfig(
            family=fam, probe=probe, tau=tau, tau0=tau0, ts=ts, K=K, seed=seed,
            noise_sigma=noise_sigma, subsample=subsample, x0_mode=cfg.get("x0_mode", "zero"),
            probe_override_R=0.0 if probe_off else None)
    except ConfigError as exc:
        raise ConfigError(f"{cfg_path}: {exc}") from exc
    return exp, cfg, [cfg_path, net_path], segments


def _run_and_record(args, command: str, exp: ExperimentConfig, cfg: dict, inputs) -> None:
    """Run the experiment, write its artifacts, probe.json and the manifest
    under args.out_dir, and print the summary."""
    result = run_experiment(exp, generate_sequence(exp))
    write_outputs(result, args.out_dir, windows_mode=args.windows)
    dump_json(probe_to_json(exp.probe), os.path.join(args.out_dir, "probe.json"))
    write_manifest(args.out_dir, command, inputs, cfg)
    probe = exp.probe
    print(f"mu0 = {probe.mu0:.6g}")
    print(f"mu1 = {probe.mu1:.6g}")
    print(f"delta_min = {probe.delta_min:.6g}")
    print(f"R0 = {probe.R0:.6g}")
    print(f"R = {probe.R:.6g} (applied {exp.applied_R:.6g})")
    print(f"intervals = {exp.K}, accuracy = {result.accuracy:.4f} "
          f"({result.report.matches}/{exp.K})")
    if cfg.get("reference"):
        ref = ", ".join(f"{k}={v}" for k, v in sorted(cfg["reference"].items()))
        print(f"bundled reference values (source six-bus study): {ref}")


def cmd_run(args) -> int:
    exp, cfg, inputs, _ = _experiment_from_config(
        args.config, probe_off=args.probe_off, k_override=args.K)
    _run_and_record(args, "run", exp, cfg, inputs)
    return 0


def _read_truth(path, m: int) -> list[int]:
    """The alpha column of a truth.csv as `run` writes it (header `k,alpha`);
    its k must run 1, 2, ... in order, pairing row k with window k - 1, and
    each alpha must index one of the family's m scenarios."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    truth = []
    for line_no, row in enumerate(rows[1:], start=2):
        try:
            k = int(row[0])
            truth.append(int(row[1]))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"{path}: row {line_no} is not 'k,alpha': {row}") from exc
        if k != len(truth):
            raise ConfigError(f"{path}: row {line_no} has k={k}; rows must be numbered "
                              f"1, 2, ... in order, so it must have k={len(truth)}")
        if not 0 <= truth[-1] < m:
            raise ConfigError(f"{path}: row {line_no} has alpha {truth[-1]}; the family "
                              f"has scenarios 0..{m - 1}")
    return truth


def cmd_detect(args) -> int:
    fam = _pick_family(args.family, args.segment)
    probe = probe_from_json(load_json(args.probe), args.probe) if args.probe else None
    meta = os.path.join(args.trace, "meta.json")
    windows = read_windows(args.trace, probe=probe)
    if not windows:
        raise ConfigError(f"no window files under {args.trace}")
    truth = _read_truth(args.truth, len(fam)) if args.truth else None
    if truth is not None and len(truth) != len(windows):
        raise ConfigError(f"{args.truth}: {len(truth)} rows for {len(windows)} windows")
    widths = windows[0].samples.shape[1], windows[0].u2.shape[1]
    if widths != (fam[0].p, fam[0].B2.shape[1]):
        raise ConfigError(
            f"{meta} records {widths[0]} outputs and {widths[1]} aux inputs; "
            f"the family in {args.family} has {fam[0].p} and {fam[0].B2.shape[1]}")
    # the fit needs more equations than states, or every residual is 0
    equations = windows[0].samples.size
    if equations <= fam[0].n:
        raise ConfigError(
            f"{meta}: each window holds {equations} estimator equations for "
            f"{fam[0].n} states; it must hold more")
    # windows are stored on the estimator grid; use every recorded sample
    dmodels = discretized(fam, windows[0].ts)
    report = detect_sequence(dmodels, windows, forced_responses(dmodels, windows),
                             truth=truth, subsample=1)
    dump_json(report.to_json(), args.out)
    write_manifest(os.path.dirname(os.path.abspath(args.out)), "detect",
                   [args.family] + ([args.probe] if args.probe else [])
                   + ([args.truth] if args.truth else []),
                   {"trace": str(args.trace)},
                   name=os.path.basename(args.out) + ".manifest.json")
    if report.accuracy is not None:
        print(f"accuracy = {report.accuracy:.4f} ({report.matches}/{len(windows)})")
    else:
        print(f"detected = {report.detected}")
    _say(f"wrote {args.out}")
    return 0


def cmd_repro_paper(args) -> int:
    exp, cfg, inputs, segments = _experiment_from_config(
        str(data_path("paper6bus_experiment.json")), k_override=args.K)
    fam = exp.family
    print("== segment state dimensions ==")
    for seg in segments:
        seg_fam = fam if seg.id == fam.segment_id else build_family(seg, [ContingencySpec.normal()])
        print(f"segment {seg.id}: n = {seg_fam[0].n}")

    print("== eigenvalue analysis ==")
    rep = eigen_report(fam)
    for a, name, mx in zip(rep.alphas, rep.names, rep.max_real):
        print(f"alpha{a} ({name}): max Re(lambda) = {mx:.6g} "
              f"[{'stable' if mx < 0 else 'UNSTABLE'}]")
    print(f"most damped dominant mode: alpha{rep.most_damped} "
          f"({rep.names[rep.most_damped]})")

    print("== probing design and switched-sequence detection ==")
    _run_and_record(args, "repro-paper", exp, cfg, inputs)
    rep.write_csv(os.path.join(args.out_dir, "eigs.csv"))
    _say(f"artifacts under {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="shslab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"shslab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("validate", help="parse and validate a network document")
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("segment", help="partition a network into segments")
    p.add_argument("--network", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--dump", action="store_true", help="also print segments to stdout")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("build", help="assemble per-scenario state-space families")
    p.add_argument("--network", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="per-scenario eigenvalues and stability verdict")
    p.add_argument("--family", required=True)
    p.add_argument("--segment", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("design-probe", help="design the magnitude-modulated probe")
    p.add_argument("--family", required=True)
    p.add_argument("--segment", type=int)
    p.add_argument("--tau0", type=float, required=True)
    p.add_argument("--ts", type=float, required=True)
    p.add_argument("--channel", default="delta", help="0|1|2 or d|delta|m_a")
    p.add_argument("--margin", type=float, default=1.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design_probe)

    p = sub.add_parser("run", help="run a switched-sequence detection experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--windows", choices=("strided", "full", "none"), default="strided")
    p.add_argument("--probe-off", action="store_true",
                   help="apply R=0 instead of the designed magnitude")
    p.add_argument("--K", type=int, help="override the configured interval count")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("detect", help="replay detection from recorded windows")
    p.add_argument("--family", required=True)
    p.add_argument("--segment", type=int)
    p.add_argument("--probe")
    p.add_argument("--trace", required=True, help="windows/ directory with meta.json")
    p.add_argument("--truth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("repro-paper",
                       help="bundled six-bus reproduction: build, analyze, probe, detect")
    p.add_argument("--out-dir", default="repro-out")
    p.add_argument("--windows", choices=("strided", "full", "none"), default="strided")
    p.add_argument("--K", type=int, help="override the configured interval count")
    p.set_defaults(func=cmd_repro_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        rc = args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot read/write: {exc}", file=sys.stderr)
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
