import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shslab
from shslab import data_path
from shslab.cli import main

STAGE_CONFIG = {
    "segments": {"1": [1, 4], "2": [2, 5], "3": [3, 6]},
    "contingencies": {
        "1": [
            {"kind": "normal"},
            {"kind": "short_circuit", "line": [1, 4], "R_f_ohm": 0.001},
            {"kind": "line_outage", "line": [1, 4]},
            {"kind": "line_disconnect", "line": [1, 4], "open_end": 1},
        ]
    },
}

EXPERIMENT_CONFIG = {
    "network": "paper6bus.json",
    "segments": {"1": [1, 4], "2": [2, 5], "3": [3, 6]},
    "segment": 1,
    "contingencies": STAGE_CONFIG["contingencies"]["1"],
    "probe": {"channel": "delta", "margin": 1.01},
    "tau": 0.05, "tau0": 0.005, "ts": 1e-05,
    "K": 3, "seed": 11, "noise_sigma": 0.0, "subsample": 5,
    "x0_mode": "zero",
    "reference": {"mu0": 5.63, "mu1": 1.0, "delta_min": 112.15, "R": 0.101},
}


def _stage_inputs(root):
    shutil.copy(data_path("paper6bus.json"), root / "paper6bus.json")
    (root / "stage.json").write_text(json.dumps(STAGE_CONFIG))
    (root / "experiment.json").write_text(json.dumps(EXPERIMENT_CONFIG))
    return root


@pytest.fixture()
def workspace(tmp_path):
    return _stage_inputs(tmp_path)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A built family and one recorded run, shared read-only by the replay tests."""
    root = _stage_inputs(tmp_path_factory.mktemp("recorded"))
    assert main(["build", "--network", str(root / "paper6bus.json"),
                 "--config", str(root / "stage.json"),
                 "--out", str(root / "matrices.json")]) == 0
    assert main(["run", "--config", str(root / "experiment.json"),
                 "--out-dir", str(root / "run")]) == 0
    return root


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_validate_bundled_ok(capsys):
    assert main(["validate", str(data_path("paper6bus.json"))]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_bad_document_exits_2(tmp_path, capsys):
    doc = json.loads(data_path("paper6bus.json").read_text())
    doc["lines"][0]["L_mH"] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "non-physical" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "build", "run"])
def test_resource_bus_without_load_exits_2(workspace, capsys, command):
    # bus 4 is segment 1's resource bus; its outputs include that load's current
    doc = json.loads((workspace / "paper6bus.json").read_text())
    assert doc["buses"][3]["id"] == 4 and doc["buses"][3]["kind"] == "PVB"
    del doc["buses"][3]["load"]
    (workspace / "paper6bus.json").write_text(json.dumps(doc))
    out = workspace / "out"
    args = {
        "validate": ["validate", str(workspace / "paper6bus.json")],
        "build": ["build", "--network", str(workspace / "paper6bus.json"),
                  "--config", str(workspace / "stage.json"), "--out", str(out)],
        "run": ["run", "--config", str(workspace / "experiment.json"),
                "--out-dir", str(out)],
    }[command]
    assert main(args) == 2
    assert "$.buses[3]: PVB bus needs 'load' parameters" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exits_1(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1


def test_segment_dump(workspace, capsys):
    out = workspace / "segs.json"
    assert main(["segment", "--network", str(workspace / "paper6bus.json"),
                 "--config", str(workspace / "stage.json"),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [s["id"] for s in doc["segments"]] == [1, 2, 3]
    assert (workspace / "segs.json.manifest.json").exists()


def test_full_stage_pipeline(workspace, capsys):
    net = str(workspace / "paper6bus.json")
    matrices = workspace / "matrices.json"
    assert main(["build", "--network", net,
                 "--config", str(workspace / "stage.json"),
                 "--out", str(matrices)]) == 0
    doc = json.loads(matrices.read_text())
    assert [len(f["state_labels"]) for f in doc["families"]] == [18, 20, 18]

    eigs = workspace / "eigs.csv"
    assert main(["analyze", "--family", str(matrices), "--segment", "1",
                 "--out", str(eigs)]) == 0
    out = capsys.readouterr().out
    assert "all scenarios stable: yes" in out

    probe = workspace / "probe.json"
    assert main(["design-probe", "--family", str(matrices), "--segment", "1",
                 "--tau0", "0.005", "--ts", "1e-5", "--channel", "delta",
                 "--out", str(probe)]) == 0
    pdoc = json.loads(probe.read_text())
    assert pdoc["R"] > pdoc["R0"] > 0
    assert pdoc["channel"] == 1

    run_dir = workspace / "run1"
    assert main(["run", "--config", str(workspace / "experiment.json"),
                 "--out-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "accuracy = 1.0000" in out
    assert (run_dir / "report.json").exists()
    assert (run_dir / "manifest.json").exists()

    replay = workspace / "replay.json"
    assert main(["detect", "--family", str(matrices), "--segment", "1",
                 "--probe", str(run_dir / "probe.json"),
                 "--trace", str(run_dir / "windows"),
                 "--truth", str(run_dir / "truth.csv"),
                 "--out", str(replay)]) == 0
    run_report = json.loads((run_dir / "report.json").read_text())
    replay_report = json.loads(replay.read_text())
    assert ([w["detected"] for w in replay_report["windows"]]
            == [w["detected"] for w in run_report["windows"]])
    assert replay_report["accuracy"] == run_report["accuracy"] == 1.0
    for wa, wb in zip(run_report["windows"], replay_report["windows"]):
        assert np.allclose(wa["residuals"], wb["residuals"], rtol=1e-6, atol=1e-9)


def test_noisy_random_x0_run_replays_its_verdicts(recorded, tmp_path, capsys):
    # noise only on the estimator grid, which the strided trace records whole
    config = dict(EXPERIMENT_CONFIG, x0_mode="random", noise_sigma=1e-3, K=6)
    (tmp_path / "paper6bus.json").write_bytes((recorded / "paper6bus.json").read_bytes())
    (tmp_path / "experiment.json").write_text(json.dumps(config))
    run = tmp_path / "run"
    assert main(["run", "--config", str(tmp_path / "experiment.json"),
                 "--out-dir", str(run)]) == 0
    assert main(["detect", "--family", str(recorded / "matrices.json"), "--segment", "1",
                 "--probe", str(run / "probe.json"), "--trace", str(run / "windows"),
                 "--truth", str(run / "truth.csv"), "--out", str(tmp_path / "replay.json")]) == 0
    run_report = json.loads((run / "report.json").read_text())
    replay_report = json.loads((tmp_path / "replay.json").read_text())
    assert ([w["detected"] for w in replay_report["windows"]]
            == [w["detected"] for w in run_report["windows"]])
    assert replay_report["accuracy"] == run_report["accuracy"]
    for wa, wb in zip(run_report["windows"], replay_report["windows"]):
        assert np.allclose(wa["residuals"], wb["residuals"], rtol=1e-6, atol=1e-9)


def test_manifest_digests_match_inputs(workspace):
    run_dir = workspace / "out"
    assert main(["run", "--config", str(workspace / "experiment.json"),
                 "--out-dir", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["tool"].startswith("shslab ")
    for path, digest in manifest["inputs"].items():
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
    assert manifest["config"]["K"] == 3


def test_run_idempotent_excluding_timestamps(workspace):
    a_dir, b_dir = workspace / "a", workspace / "b"
    for d in (a_dir, b_dir):
        assert main(["run", "--config", str(workspace / "experiment.json"),
                     "--out-dir", str(d)]) == 0
    a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        fa, fb = (a_dir / rel).read_bytes(), (b_dir / rel).read_bytes()
        if rel.name == "manifest.json":
            ma, mb = json.loads(fa), json.loads(fb)
            ma.pop("created_utc"), mb.pop("created_utc")
            assert ma == mb
        else:
            assert fa == fb, f"{rel} differs between identical runs"


def test_probe_off_flag(workspace, capsys):
    run_dir = workspace / "off"
    assert main(["run", "--config", str(workspace / "experiment.json"),
                 "--out-dir", str(run_dir), "--probe-off", "--windows", "none"]) == 0
    out = capsys.readouterr().out
    assert "applied 0" in out


def test_design_probe_degenerate_family_exits_3(workspace, capsys):
    net = str(workspace / "paper6bus.json")
    matrices = workspace / "matrices.json"
    assert main(["build", "--network", net,
                 "--config", str(workspace / "stage.json"),
                 "--out", str(matrices)]) == 0
    doc = json.loads(matrices.read_text())
    fam = next(f for f in doc["families"] if f["segment_id"] == 1)
    clone = json.loads(json.dumps(fam["scenarios"][0]))
    clone["alpha"] = 1
    fam["scenarios"] = [fam["scenarios"][0], clone]
    fam["alpha_names"] = ["normal", "normal"]
    twisted = workspace / "degenerate.json"
    twisted.write_text(json.dumps({"families": [fam]}))
    rc = main(["design-probe", "--family", str(twisted), "--tau0", "0.005",
               "--ts", "1e-5", "--channel", "delta",
               "--out", str(workspace / "p.json")])
    assert rc == 3
    assert "indistinguishable" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["analyze", "--out", "eigs.csv"],
    ["design-probe", "--tau0", "0.005", "--ts", "1e-5", "--out", "p.json"],
    ["detect", "--trace", "{run}/windows", "--truth", "{run}/truth.csv", "--out", "r.json"],
], ids=lambda c: c[0])
def test_non_finite_family_exits_2(recorded, tmp_path, capsys, command):
    doc = json.loads((recorded / "matrices.json").read_text())
    fam = next(f for f in doc["families"] if f["segment_id"] == 1)
    fam["scenarios"][2]["A"][0][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    args = [a.format(run=recorded / "run") for a in command]
    args[-1] = str(tmp_path / args[-1])
    assert main(args + ["--family", str(bad), "--segment", "1"]) == 2
    err = capsys.readouterr().err
    assert "segment 1 scenario 2 (line_outage_1_4): A has a NaN or infinite entry" in err
    assert not os.path.exists(args[-1])


@pytest.mark.parametrize("command", [
    ["analyze", "--out", "eigs.csv"],
    ["design-probe", "--tau0", "0.005", "--ts", "1e-5", "--out", "p.json"],
    ["detect", "--trace", "{run}/windows", "--out", "r.json"],
], ids=lambda c: c[0])
def test_family_without_segment_id_exits_2(recorded, tmp_path, capsys, command):
    doc = json.loads((recorded / "matrices.json").read_text())
    del doc["families"][1]["segment_id"]
    bad = tmp_path / "no_id.json"
    bad.write_text(json.dumps(doc))
    args = [a.format(run=recorded / "run") for a in command]
    args[-1] = str(tmp_path / args[-1])
    assert main(args + ["--family", str(bad), "--segment", "3"]) == 2
    assert "no_id.json: families[1]: missing key 'segment_id'" in capsys.readouterr().err
    assert not os.path.exists(args[-1])


NO_SCIPY_PIPELINE = """
import json, sys
sys.modules["scipy"] = None
from shslab import data_path
from shslab.cli import main
rcs = [
    main(["repro-paper", "--K", "3", "--out-dir", "rp"]),
    main(["build", "--network", str(data_path("paper6bus.json")),
          "--config", "stage.json", "--out", "matrices.json"]),
    main(["detect", "--family", "matrices.json", "--segment", "1",
          "--probe", "rp/probe.json", "--trace", "rp/windows",
          "--truth", "rp/truth.csv", "--out", "replay.json"]),
]
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"rcs": rcs, "scipy": loaded}))
"""


def test_cli_runs_without_scipy(tmp_path):
    (tmp_path / "stage.json").write_text(json.dumps(STAGE_CONFIG))
    src = str(Path(shslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PIPELINE], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"rcs": [0, 0, 0], "scipy": []}
    assert json.loads((tmp_path / "replay.json").read_text())["accuracy"] == 1.0


def test_repro_paper_smoke(tmp_path, capsys):
    rc = main(["repro-paper", "--out-dir", str(tmp_path / "rp"), "--K", "2",
               "--windows", "none"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n = 18" in out and "n = 20" in out
    assert "R0 =" in out
    assert "delta_min =" in out
    assert "accuracy = 1.0000" in out
    assert "bundled reference values" in out


def _replay(recorded, tmp_path, truth_text=None, edit=None, probe=False):
    """`shslab detect` on a copy of the recorded run after `edit` of its
    windows/, with truth.csv replaced by `truth_text` if given; with `probe`,
    the run's probe.json is passed too."""
    run = tmp_path / "run"
    shutil.copytree(recorded / "run", run)
    if edit is not None:
        edit(run / "windows")
    if truth_text is not None:
        (run / "truth.csv").write_bytes(truth_text.encode())
    return main(["detect", "--family", str(recorded / "matrices.json"), "--segment", "1",
                 "--trace", str(run / "windows"), "--truth", str(run / "truth.csv"),
                 "--out", str(tmp_path / "replay.json")]
                + (["--probe", str(run / "probe.json")] if probe else []))


def _edit_meta(win_dir, **changes):
    meta = json.loads((win_dir / "meta.json").read_text())
    meta.update(changes)
    (win_dir / "meta.json").write_text(json.dumps(meta))


def _npy_edit(change):
    """An edit of windows/ that saves change(table) as windows.npy."""
    def edit(win_dir):
        path = win_dir / "windows.npy"
        np.save(path, change(np.load(path)))
    return edit


@pytest.mark.parametrize("probe", [True], ids=["probe"])
def test_detect_short_window_exits_2(recorded, tmp_path, capsys, probe):
    # tau0 0.005 at the recorded 5e-5 s is 101 rows; drop the last one. The
    # probe agrees with meta.json, so the table's shape is what fails
    assert _replay(recorded, tmp_path, edit=_npy_edit(lambda t: t[:, :100]), probe=probe) == 2
    err = capsys.readouterr().err
    assert (f"{tmp_path / 'run' / 'windows' / 'windows.npy'}: holds a float64 table of shape "
            f"(3, 100, 11); meta.json implies a float64 table of shape (3, 101, 11)") in err
    assert not (tmp_path / "replay.json").exists()


@pytest.mark.parametrize("alpha", [9, 4, -1])
def test_detect_truth_alpha_outside_family_exits_2(recorded, tmp_path, capsys, alpha):
    truth = f"k,alpha\r\n1,0\r\n2,{alpha}\r\n3,0\r\n"
    assert _replay(recorded, tmp_path, truth_text=truth) == 2
    err = capsys.readouterr().err
    assert f"truth.csv: row 3 has alpha {alpha}; the family has scenarios 0..3" in err
    assert not (tmp_path / "replay.json").exists()


def test_detect_too_few_equations_exits_2(recorded, tmp_path, capsys):
    # windows cut to 3 samples of 5 outputs: 15 equations for 18 states,
    # where every residual would be 0 and every verdict scenario 0
    def edit(win_dir):
        meta = json.loads((win_dir / "meta.json").read_text())
        _edit_meta(win_dir, tau0=2 * meta["ts"])
        _npy_edit(lambda t: t[:, :3])(win_dir)

    assert _replay(recorded, tmp_path, edit=edit) == 2
    err = capsys.readouterr().err
    assert "meta.json: 15 estimator equations at subsample=1 for 18 states" in err
    assert not (tmp_path / "replay.json").exists()


def _signed_zero_inputs(table):
    # window 2's u1 and u2 (columns after t and the 5 outputs) get -0.0 for 0.0
    inputs = table[2, :, 6:]
    inputs[inputs == 0.0] = -0.0
    return table


@pytest.mark.parametrize("probe", [False, True], ids=["no-probe", "probe"])
def test_detect_second_input_record_exits_2(recorded, tmp_path, capsys, probe):
    assert _replay(recorded, tmp_path, edit=_npy_edit(_signed_zero_inputs), probe=probe) == 2
    err = capsys.readouterr().err
    assert (f"{tmp_path / 'run' / 'windows' / 'windows.npy'} window 2: its u1 columns "
            f"differ from window 0's; a trace holds one input record") in err
    assert not (tmp_path / "replay.json").exists()


def _stepped_u1(table):
    # every window's u1 probe column (after t and the 5 outputs) changes at
    # row 40, so the windows still share one record, but its inputs are not held
    table[:, 40:-1, 7] *= 2.0
    return table


@pytest.mark.parametrize("probe", [False, True], ids=["no-probe", "probe"])
def test_detect_inputs_not_held_exits_2(recorded, tmp_path, capsys, probe):
    assert _replay(recorded, tmp_path, edit=_npy_edit(_stepped_u1), probe=probe) == 2
    err = capsys.readouterr().err
    assert (f"{tmp_path / 'run' / 'windows' / 'windows.npy'} window 0: its u1 record "
            f"changes at row 40; inputs must be held over rows 0..99") in err
    assert not (tmp_path / "replay.json").exists()


def test_detect_without_truth_prints_plain_ints(recorded, tmp_path, capsys):
    # a list of numpy integers would print as [np.int64(3), ...] under numpy 2
    assert main(["detect", "--family", str(recorded / "matrices.json"), "--segment", "1",
                 "--trace", str(recorded / "run" / "windows"),
                 "--out", str(tmp_path / "replay.json")]) == 0
    windows = json.loads((tmp_path / "replay.json").read_text())["windows"]
    detected = [w["detected"] for w in windows]
    assert capsys.readouterr().out == f"detected = {detected}\n"
    assert "true" not in windows[0] and len(detected) == 3


@pytest.mark.parametrize("key, value", [
    ("n_outputs", 5.9), ("n_u2", True), ("stride_applied", 10.4),
], ids=["outputs-fractional", "aux-inputs-bool", "stride-fractional"])
def test_detect_non_integer_meta_field_exits_2(recorded, tmp_path, capsys, key, value):
    assert _replay(recorded, tmp_path, edit=lambda d: _edit_meta(d, **{key: value})) == 2
    assert f"meta.json: key '{key}' has bad value {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "replay.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda fam: fam["scenarios"][1].update(alpha=True),
     "$.scenarios[1]: key 'alpha' has bad value True"),
    (lambda fam: fam.update(segment_id=1.7), "$: key 'segment_id' has bad value 1.7"),
], ids=["alpha-bool", "segment-fractional"])
def test_analyze_non_integer_family_field_exits_2(recorded, tmp_path, capsys, edit, message):
    doc = json.loads((recorded / "matrices.json").read_text())
    fam = doc["families"][0]
    edit(fam)
    bad = tmp_path / "one.json"
    bad.write_text(json.dumps({"families": [fam]}))
    out = tmp_path / "eigs.csv"
    assert main(["analyze", "--family", str(bad), "--out", str(out)]) == 2
    assert f"malformed family document: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda fam: fam["scenarios"][1]["B1"].pop(0),
     "$.scenarios[1]: B1 must be 18x3, got (17, 3)"),
    (lambda fam: fam["scenarios"][1].update(C=fam["scenarios"][1]["C"][0]),
     "$.scenarios[1]: C must be a matrix, got shape (18,)"),
    (lambda fam: fam["scenarios"][1].update(alpha=2), "scenario 1 carries alpha=2"),
    (lambda fam: fam["scenarios"][2].pop("name"), "$.scenarios[2]: missing key 'name'"),
], ids=["B1-row-missing", "C-1d", "alpha-out-of-order", "name-missing"])
def test_analyze_malformed_matrices_exits_2(recorded, tmp_path, capsys, edit, message):
    doc = json.loads((recorded / "matrices.json").read_text())
    edit(doc["families"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "eigs.csv"
    assert main(["analyze", "--family", str(bad), "--segment", "1", "--out", str(out)]) == 2
    assert f"error: malformed family document: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, row, k, expected", [
    (lambda rows: rows[::-1], 2, 3, 1),
    (lambda rows: [(k + 90, a) for k, a in rows], 2, 91, 1),
    (lambda rows: [rows[0], rows[0], rows[2]], 3, 1, 2),
], ids=["reversed", "renumbered", "duplicated"])
def test_detect_truth_rows_out_of_order_exit_2(recorded, tmp_path, capsys, edit, row, k,
                                              expected):
    lines = (recorded / "run" / "truth.csv").read_text().split()
    rows = edit([tuple(map(int, line.split(","))) for line in lines[1:]])
    truth = "".join(f"{k},{a}\r\n" for k, a in rows)
    assert _replay(recorded, tmp_path, truth_text="k,alpha\r\n" + truth) == 2
    assert (f"truth.csv: row {row} has k={k}; rows must be numbered 1, 2, ... in order, "
            f"so it must have k={expected}") in capsys.readouterr().err
    assert not (tmp_path / "replay.json").exists()


@pytest.mark.parametrize("bad_row", ["2", "2,normal", ""])
def test_detect_malformed_truth_row_exits_2(recorded, tmp_path, capsys, bad_row):
    truth = f"k,alpha\r\n1,0\r\n{bad_row}\r\n3,0\r\n"
    assert _replay(recorded, tmp_path, truth_text=truth) == 2
    assert "truth.csv: row 3 is not 'k,alpha'" in capsys.readouterr().err


def test_detect_truth_length_mismatch_exits_2(recorded, tmp_path, capsys):
    assert _replay(recorded, tmp_path, truth_text="k,alpha\r\n1,0\r\n") == 2
    assert "truth.csv: 1 rows for 3 windows" in capsys.readouterr().err


@pytest.mark.parametrize("ts", [0.0, -5e-5, float("nan"), 1e-4],
                         ids=["zero", "negative", "nan", "doubled"])
def test_detect_meta_ts_inconsistent_exits_2(recorded, tmp_path, capsys, ts):
    # recorded at ts_simulated 1e-5 with stride 5, so meta.json's ts is 5e-5
    assert _replay(recorded, tmp_path, edit=lambda d: _edit_meta(d, ts=ts)) == 2
    err = capsys.readouterr().err
    assert "meta.json: ts=" in err and "ts_simulated * stride_applied = 5e-05" in err


# the family has 5 outputs and 2 aux inputs; drop column y4 or add a column u2_2
@pytest.mark.parametrize("key, width, columns, message", [
    ("n_outputs", 4, lambda t: np.delete(t, 5, axis=2), "records 4 outputs and 2 aux inputs"),
    ("n_u2", 3, lambda t: np.concatenate([t, np.zeros(t.shape[:2] + (1,))], axis=2),
     "records 5 outputs and 3 aux inputs"),
], ids=["outputs", "aux-inputs"])
def test_detect_width_mismatch_exits_2(recorded, tmp_path, capsys, key, width, columns, message):
    def edit(win_dir):
        _edit_meta(win_dir, **{key: width})
        _npy_edit(columns)(win_dir)

    assert _replay(recorded, tmp_path, edit=edit) == 2
    err = capsys.readouterr().err
    assert message in err and "the family in" in err and "has 5 and 2" in err


def _truncate(win_dir):
    path = win_dir / "windows.npy"
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


# the recorded run holds 3 windows of 101 rows: t, 5 outputs, 3 + 2 inputs
@pytest.mark.parametrize("edit, message", [
    (_npy_edit(lambda t: t.astype(np.float32)), "holds a float32 table of shape (3, 101, 11)"),
    (_npy_edit(lambda t: t[:2]), "holds a float64 table of shape (2, 101, 11)"),
    (_npy_edit(lambda t: t[:, :100]), "holds a float64 table of shape (3, 100, 11)"),
    (_npy_edit(lambda t: t[:, :, :10]), "holds a float64 table of shape (3, 101, 10)"),
    (lambda d: (d / "windows.npy").write_bytes(b""), "not a readable .npy table"),
    (_truncate, "not a readable .npy table"),
    (lambda d: (d / "windows.npy").unlink(), "missing "),
], ids=["float32", "count", "rows", "columns", "empty", "truncated", "missing"])
def test_detect_malformed_npy_exits_2(recorded, tmp_path, capsys, edit, message):
    assert _replay(recorded, tmp_path, edit=edit) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "run" / "windows" / "windows.npy") in err and message in err
    if "shape" in message:
        assert "meta.json implies a float64 table of shape (3, 101, 11)" in err
    assert not (tmp_path / "replay.json").exists()


class _MakesDirWhenUnpickled:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (self.path,)


def test_detect_pickled_npy_exits_2_without_unpickling(recorded, tmp_path, capsys):
    marker = tmp_path / "unpickled"

    def edit(win_dir):
        np.save(win_dir / "windows.npy", np.array([_MakesDirWhenUnpickled(str(marker))]),
                allow_pickle=True)

    assert _replay(recorded, tmp_path, edit=edit) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'run' / 'windows' / 'windows.npy'}: not a readable .npy table" in err
    assert not marker.exists()
    assert not (tmp_path / "replay.json").exists()


def test_detect_unknown_window_format_exits_2(recorded, tmp_path, capsys):
    assert _replay(recorded, tmp_path, edit=lambda d: _edit_meta(d, format="csv2")) == 2
    meta = tmp_path / "run" / "windows" / "meta.json"
    assert f"{meta}: unknown window format 'csv2'" in capsys.readouterr().err
    assert not (tmp_path / "replay.json").exists()


def test_detect_csv_era_trace_exits_2(recorded, tmp_path, capsys):
    # a meta.json without a format key is a trace of window CSV files
    def edit(win_dir):
        meta = json.loads((win_dir / "meta.json").read_text())
        del meta["format"]
        (win_dir / "meta.json").write_text(json.dumps(meta))

    assert _replay(recorded, tmp_path, edit=edit) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'run' / 'windows' / 'meta.json'}: no window format" in err
    assert "`shslab run` with the config in the run's manifest.json" in err
    assert not (tmp_path / "replay.json").exists()


def test_detect_empty_trace_exits_2(recorded, tmp_path, capsys):
    def edit(win_dir):
        _edit_meta(win_dir, window_starts=[])
        _npy_edit(lambda t: t[:0])(win_dir)

    assert _replay(recorded, tmp_path, edit=edit) == 2
    assert f"no windows in {tmp_path / 'run' / 'windows'}" in capsys.readouterr().err
    assert not (tmp_path / "replay.json").exists()


def test_detect_probe_tau0_mismatch_exits_2(recorded, tmp_path, capsys):
    # recorded with tau0 0.005 at 5e-5 s: 101 samples per window, where a
    # tau0 of 0.011 implies 221
    def edit(win_dir):
        path = win_dir.parent / "probe.json"
        probe = json.loads(path.read_text())
        probe["tau0"] = 0.011
        path.write_text(json.dumps(probe))

    assert _replay(recorded, tmp_path, probe=True) == 0
    capsys.readouterr()
    assert _replay(recorded, tmp_path / "edited", edit=edit, probe=True) == 2
    err = capsys.readouterr().err
    assert "probe.json does not fit the windows" in err and "meta.json" in err
    assert "window has 101 samples, probe design implies 221" in err


def _edit_probe(**changes):
    """An edit of windows/ that sets `changes` in the run's probe.json."""
    def edit(win_dir):
        path = win_dir.parent / "probe.json"
        probe = json.loads(path.read_text())
        probe.update(changes)
        path.write_text(json.dumps(probe))
    return edit


@pytest.mark.parametrize("ts", [float("nan"), -5.0, float("inf")], ids=["nan", "negative", "inf"])
def test_detect_probe_with_a_bad_sample_period_exits_2(recorded, tmp_path, capsys, ts):
    assert _replay(recorded, tmp_path, edit=_edit_probe(ts=ts), probe=True) == 2
    err = capsys.readouterr().err
    assert f"probe.json: ts must be finite and > 0, got {ts}" in err
    assert not (tmp_path / "replay.json").exists()


def test_detect_probe_ts_mismatch_exits_2(recorded, tmp_path, capsys):
    # recorded at ts_simulated 1e-5 and kept at stride 5; a probe designed
    # at 2e-5, or at 1e-5 off by more than 1e-12 relative, does not fit
    for ts in (1e-5 * (1 + 1e-13), 1e-5 * (1 - 1e-13)):
        assert _replay(recorded, tmp_path / repr(ts), edit=_edit_probe(ts=ts), probe=True) == 0
    capsys.readouterr()
    for ts in (2e-5, 1e-5 * (1 + 1e-11)):
        assert _replay(recorded, tmp_path / repr(ts), edit=_edit_probe(ts=ts), probe=True) == 2
        err = capsys.readouterr().err
        assert "probe.json does not fit the windows" in err
        assert f"meta.json records ts_simulated=1e-05, the probe design has ts={ts}" in err
        assert not (tmp_path / repr(ts) / "replay.json").exists()


def test_design_probe_partial_sample_window_exits_2(recorded, tmp_path, capsys):
    rc = main(["design-probe", "--family", str(recorded / "matrices.json"), "--segment", "1",
               "--tau0", "0.01", "--ts", "7e-3", "--out", str(tmp_path / "p.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "tau0=0.01 is not a whole number (>= 1) of samples at ts=0.007" in err
    assert not (tmp_path / "p.json").exists()


def _drop(key):
    return lambda doc: doc.pop(key)


def _put(key, value):
    return lambda doc: doc.update({key: value})


@pytest.mark.parametrize("edit, message", [
    (_drop("tau"), "experiment.json: missing key 'tau'"),
    (_drop("K"), "experiment.json: missing key 'K'"),
    (_drop("seed"), "experiment.json: missing key 'seed'"),
    (_drop("segment"), "experiment.json: missing key 'segment'"),
    (_drop("network"), "experiment.json: missing key 'network'"),
    (_put("K", "x"), "experiment.json: key 'K' has bad value 'x'"),
    (_put("probe", {"file": "probe.json", "channel": "delta"}),
     "experiment.json: probe: key 'file' is not supported: the probe is designed "
     "from 'channel' and 'margin'"),
    (_put("probe", {"channel": "delta", "tau0": 0.0025}),
     "experiment.json: probe: key 'tau0' is not supported"),
    (_put("probe", {"channel": "delta", "ts": 2e-5}),
     "experiment.json: probe: key 'ts' is not supported"),
    (_put("segments", [1, 4]), "experiment.json: key 'segments' has bad value [1, 4]"),
    (_put("contingencies", ["normal"]),
     "experiment.json: $.contingencies[0]: expected a contingency object, got 'normal'"),
    (_put("contingencies", [{"kind": "normal"}, {"kind": "line_outage", "line": 5}]),
     "experiment.json: $.contingencies[1]: 'int' object is not iterable"),
    (_put("probe", {"channel": "bogus"}),
     "experiment.json: probe: key 'channel' has bad value 'bogus'"),
    (_put("contingencies", [{"kind": "normal"},
                            {"kind": "short_circuit", "line": [1, 4], "R_f": 50}]),
     "experiment.json: $.contingencies[1]: 'short_circuit' takes no key 'R_f'"),
    (_put("reference", [1, 2]), "experiment.json: key 'reference' has bad value [1, 2]"),
    (_put("seed", -1), "experiment.json: seed must be >= 0, got -1"),
    (_put("probe", {"channel": "delta", "margin": 0.5}),
     "experiment.json: probe: key 'margin' has bad value 0.5"),
    (_put("probe", {"channel": "delta", "margin": float("inf")}),
     "experiment.json: probe: key 'margin' has bad value inf"),
    (_put("noise_sigma", float("nan")),
     "experiment.json: noise_sigma must be finite and >= 0, got nan"),
    (_put("subsample", 1e9),
     "experiment.json: 5 estimator equations at subsample=1000000000 for 18 states"),
    (_put("contingencies", [{"kind": "normal"}, {"kind": "short_circuit", "line": [1, 2]}]),
     "experiment.json: $.contingencies[1]: scenario 1 (short_circuit_1_2): contingency "
     "references line (1, 2) which is not internal to segment 1"),
    (_put("contingencies", []),
     "experiment.json: $.contingencies: the list must start with a 'normal' entry"),
    (_put("contingencies", [{"kind": "line_outage", "line": [1, 4]}]),
     "experiment.json: $.contingencies: the list must start with a 'normal' entry"),
    (_put("K", 4.9), "experiment.json: key 'K' has bad value 4.9"),
    (_put("subsample", 10.7), "experiment.json: key 'subsample' has bad value 10.7"),
    (_put("seed", True), "experiment.json: key 'seed' has bad value True"),
    (_put("segment", 1.5), "experiment.json: key 'segment' has bad value 1.5"),
    (_put("probe", {"channel": 1.5}), "experiment.json: probe: key 'channel' has bad value 1.5"),
    (_put("probe", {"channel": True}),
     "experiment.json: probe: key 'channel' has bad value True"),
    (_put("segments", {"1": [1.9, 4], "2": [2, 5], "3": [3, 6]}),
     "experiment.json: key 'segments' maps '1' to [1.9, 4]"),
    (_put("contingencies", [{"kind": "normal"}]),
     "experiment.json: $.contingencies: a run needs at least two scenarios to tell apart, got 1"),
], ids=["no-tau", "no-K", "no-seed", "no-segment", "no-network", "K-not-int", "probe-file",
        "probe-tau0", "probe-ts", "segments-list",
        "contingency-not-object", "contingency-line-not-list", "bogus-channel",
        "contingency-unread-key", "reference-list", "negative-seed", "margin-below-1",
        "margin-inf", "noise-sigma-nan", "subsample-past-window", "contingency-foreign-line",
        "contingencies-empty", "first-not-normal", "K-fractional", "subsample-fractional",
        "seed-bool", "segment-fractional", "channel-fractional", "channel-bool",
        "segment-bus-fractional", "normal-only"])
def test_run_malformed_config_exits_2(workspace, capsys, edit, message):
    cfg = dict(EXPERIMENT_CONFIG)
    edit(cfg)
    (workspace / "experiment.json").write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(workspace / "experiment.json"),
               "--out-dir", str(workspace / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("key, value, rc, designs", [
    ("subsample", 1e9, 2, 0), ("K", 0, 2, 0), ("K", 1, 0, 1),
], ids=["subsample-past-window", "K-zero", "K-one"])
def test_run_refuses_its_config_before_designing_the_probe(workspace, monkeypatch,
                                                           key, value, rc, designs):
    # the run's own checks need no probe, so a config they refuse designs none
    calls = []
    design = shslab.cli.design_mami
    monkeypatch.setattr(shslab.cli, "design_mami",
                        lambda *args, **kwargs: calls.append(args) or design(*args, **kwargs))
    (workspace / "experiment.json").write_text(json.dumps(dict(EXPERIMENT_CONFIG, **{key: value})))
    assert main(["run", "--config", str(workspace / "experiment.json"), "--windows", "none",
                 "--out-dir", str(workspace / "out")]) == rc
    assert len(calls) == designs


@pytest.mark.parametrize("edit, message", [
    (_put("monitored_bus", {"1": 1}), "stage.json: key 'monitored_bus' is not supported"),
    (_put("contingencies", STAGE_CONFIG["contingencies"]["1"]),
     "stage.json: key 'contingencies' has bad value [{"),
    (_put("contingencies", {"1": ["normal"]}),
     "stage.json: $.contingencies.1[0]: expected a contingency object, got 'normal'"),
    (_put("segments", [1, 4]), "stage.json: key 'segments' has bad value [1, 4]"),
    (_put("segments", {"1": 5}), "stage.json: key 'segments' maps '1' to 5"),
    (_put("contingencies", {"1": [{"kind": "normal"},
                                  {"kind": "line_outage", "line": [1, 4], "open_end": 1}]}),
     "stage.json: $.contingencies.1[1]: 'line_outage' takes no key 'open_end'"),
    (_put("contingencies", {"1": [{"kind": "normal", "line": [1, 4]}]}),
     "stage.json: $.contingencies.1[0]: 'normal' takes no line reference"),
    (_put("contingencies", {"1": [{"kind": "normal"},
                                  {"kind": "short_circuit", "line": [1, 2]}]}),
     "stage.json: $.contingencies.1[1]: scenario 1 (short_circuit_1_2): contingency "
     "references line (1, 2) which is not internal to segment 1"),
    (_put("contingencies", {"1": []}),
     "stage.json: $.contingencies.1: the list must start with a 'normal' entry"),
    (_put("contingencies", {"1": [{"kind": "line_outage", "line": [1, 4]}]}),
     "stage.json: $.contingencies.1: the list must start with a 'normal' entry"),
], ids=["monitored-bus", "contingencies-list", "contingency-not-object", "segments-list",
        "segment-buses-not-list", "outage-open-end", "normal-with-line",
        "contingency-foreign-line", "contingencies-empty", "first-not-normal"])
def test_build_malformed_config_exits_2(workspace, capsys, edit, message):
    cfg = json.loads(json.dumps(STAGE_CONFIG))
    edit(cfg)
    (workspace / "stage.json").write_text(json.dumps(cfg))
    rc = main(["build", "--network", str(workspace / "paper6bus.json"),
               "--config", str(workspace / "stage.json"),
               "--out", str(workspace / "matrices.json")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (workspace / "matrices.json").exists()


def test_design_probe_bogus_channel_exits_2(recorded, tmp_path, capsys):
    rc = main(["design-probe", "--family", str(recorded / "matrices.json"), "--segment", "1",
               "--tau0", "0.005", "--ts", "1e-5", "--channel", "bogus",
               "--out", str(tmp_path / "p.json")])
    assert rc == 2
    assert "--channel: unknown probe channel 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("margin", ["0.5", "inf", "nan"])
def test_design_probe_bad_margin_exits_2(recorded, tmp_path, capsys, margin):
    rc = main(["design-probe", "--family", str(recorded / "matrices.json"), "--segment", "1",
               "--tau0", "0.005", "--ts", "1e-5", "--margin", margin,
               "--out", str(tmp_path / "p.json")])
    assert rc == 2
    assert f"--margin: margin must be finite and exceed 1, got {float(margin)}" in \
        capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


def test_run_config_not_json_exits_2(workspace, capsys):
    (workspace / "experiment.json").write_text("{")
    assert main(["run", "--config", str(workspace / "experiment.json"),
                 "--out-dir", str(workspace / "out")]) == 2
    assert "experiment.json: not a JSON document" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (_drop("mu1"), "missing key 'mu1'"),
    (_put("mu0", "abc"), "key 'mu0' has bad value 'abc'"),
    (_put("mu0", float("nan")), "mu0 must be finite"),
    (_put("argmin_pair", 3), "key 'argmin_pair' has bad value 3"),
    (_put("argmin_pair", [0, 1, 2]), "expected two scenario indices, got 3"),
    (_put("channel", 7), "probe channel index must be 0..2, got 7"),
], ids=["no-mu1", "mu0-not-a-number", "mu0-nan", "pair-not-a-list", "pair-of-three",
        "channel-7"])
def test_detect_malformed_probe_exits_2(recorded, tmp_path, capsys, edit, message):
    def edit_probe(win_dir):
        path = win_dir.parent / "probe.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    assert _replay(recorded, tmp_path, edit=edit_probe, probe=True) == 2
    err = capsys.readouterr().err
    assert "probe.json: " in err and message in err
    assert not (tmp_path / "replay.json").exists()


def test_rerun_into_same_out_dir_replays_only_its_own_windows(recorded, tmp_path, capsys):
    run = tmp_path / "run"
    config = str(recorded / "experiment.json")
    assert main(["run", "--config", config, "--out-dir", str(run), "--K", "6"]) == 0
    assert main(["run", "--config", config, "--out-dir", str(run)]) == 0
    assert sorted(f.name for f in (run / "windows").iterdir()) == ["meta.json", "windows.npy"]
    assert np.load(run / "windows" / "windows.npy").shape[0] == 3
    detect = ["detect", "--family", str(recorded / "matrices.json"), "--segment", "1",
              "--probe", str(run / "probe.json"), "--trace", str(run / "windows"),
              "--truth", str(run / "truth.csv"), "--out", str(tmp_path / "replay.json")]
    assert main(detect) == 0
    assert json.loads((tmp_path / "replay.json").read_text())["accuracy"] == 1.0
    capsys.readouterr()

    assert main(["run", "--config", config, "--out-dir", str(run), "--windows", "none"]) == 0
    assert main(detect) == 2
    assert f"missing {run / 'windows' / 'meta.json'}" in capsys.readouterr().err
