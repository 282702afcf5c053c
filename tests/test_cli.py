import hashlib
import json
import shutil

import numpy as np
import pytest

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


def _replay(recorded, tmp_path, window_text=None, truth_text=None):
    """`shslab detect` on a copy of the recorded run with window_0001.csv or
    truth.csv replaced by the given text."""
    run = tmp_path / "run"
    shutil.copytree(recorded / "run", run)
    if window_text is not None:
        (run / "windows" / "window_0001.csv").write_bytes(window_text.encode())
    if truth_text is not None:
        (run / "truth.csv").write_bytes(truth_text.encode())
    return main(["detect", "--family", str(recorded / "matrices.json"), "--segment", "1",
                 "--trace", str(run / "windows"), "--truth", str(run / "truth.csv"),
                 "--out", str(tmp_path / "replay.json")])


def _recorded_window(recorded):
    return (recorded / "run" / "windows" / "window_0001.csv").read_bytes().decode().split("\r\n")


def test_detect_header_only_window_exits_2(recorded, tmp_path, capsys):
    header = _recorded_window(recorded)[0]
    assert _replay(recorded, tmp_path, window_text=header + "\r\n") == 2
    err = capsys.readouterr().err
    assert "window_0001.csv: needs at least two data rows, has 0" in err


def test_detect_non_numeric_window_cell_exits_2(recorded, tmp_path, capsys):
    lines = _recorded_window(recorded)
    fields = lines[3].split(",")
    fields[2] = "abc"
    lines[3] = ",".join(fields)
    assert _replay(recorded, tmp_path, window_text="\r\n".join(lines)) == 2
    assert "window_0001.csv: row 4 has non-numeric field 'abc'" in capsys.readouterr().err


def test_detect_ragged_window_row_exits_2(recorded, tmp_path, capsys):
    lines = _recorded_window(recorded)
    cols = len(lines[0].split(","))
    lines[5] = lines[5].rsplit(",", 1)[0]
    assert _replay(recorded, tmp_path, window_text="\r\n".join(lines)) == 2
    err = capsys.readouterr().err
    assert f"window_0001.csv: row 6 has {cols - 1} fields, expected {cols}" in err


@pytest.mark.parametrize("bad_row", ["2", "2,normal", ""])
def test_detect_malformed_truth_row_exits_2(recorded, tmp_path, capsys, bad_row):
    truth = f"k,alpha\r\n1,0\r\n{bad_row}\r\n3,0\r\n"
    assert _replay(recorded, tmp_path, truth_text=truth) == 2
    assert "truth.csv: row 3 is not 'k,alpha'" in capsys.readouterr().err


def test_detect_truth_length_mismatch_exits_2(recorded, tmp_path, capsys):
    assert _replay(recorded, tmp_path, truth_text="k,alpha\r\n1,0\r\n") == 2
    assert "truth.csv: 1 rows for 3 windows" in capsys.readouterr().err


def test_detect_missing_window_file_exits_2(recorded, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(recorded / "run", run)
    (run / "windows" / "window_0001.csv").unlink()
    rc = main(["detect", "--family", str(recorded / "matrices.json"), "--segment", "1",
               "--trace", str(run / "windows"), "--out", str(tmp_path / "replay.json")])
    assert rc == 2
    assert "meta.json lists 3 windows, numbered 0..2; no file for 1" in capsys.readouterr().err
