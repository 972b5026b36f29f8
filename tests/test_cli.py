"""End-to-end CLI tests: subcommands, manifests, reruns, exit codes."""

import json
import struct

import numpy as np
import pytest

from poisonridge import cli


def run_cli(*argv):
    return cli.main(list(argv))


def test_theory_output(capsys):
    rc = run_cli("theory", "--c", "0.1", "--lambda", "0.1", "--theta", "0.1",
                 "--vnorm", "1.0")
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.03888018328217879" in out  # mu at the default operating point
    assert "m(-lambda)" in out


def test_theory_ridgeless_and_errors(capsys):
    rc = run_cli("theory", "--c", "0.5", "--ridgeless")
    assert rc == 0
    assert "ridgeless" in capsys.readouterr().out
    rc = run_cli("theory", "--c", "1.5", "--ridgeless")
    assert rc == 2
    assert "InterpolationThreshold" in capsys.readouterr().err


def test_simulate_deterministic(tmp_path, capsys):
    args = ["simulate", "--p", "30", "--c", "0.5", "--trials", "3",
            "--m-test", "50", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    capsys.readouterr()
    assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["master_seed"] == 7
    assert "func" not in manifest["args"]


def test_simulate_jsonl(tmp_path, capsys):
    out = tmp_path / "j"
    assert run_cli("simulate", "--p", "20", "--c", "0.5", "--trials", "2",
                   "--m-test", "50", "--format", "jsonl", "--out", str(out)) == 0
    capsys.readouterr()
    lines = (out / "simulate.jsonl").read_text().splitlines()
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert "lambda" in row and "lam" not in row and "wall_time_ms" not in row


def test_sweep_rerun_byte_identical(tmp_path, capsys):
    out = tmp_path / "s"
    rc = run_cli("sweep", "--p", "20", "--trials", "2", "--m-test", "50",
                 "--out", str(out))
    assert rc == 0
    first = (out / "sweep.csv").read_bytes()
    first_agg = (out / "sweep_agg.csv").read_bytes()
    rc = run_cli("rerun", str(out / "manifest.json"))
    assert rc == 0
    capsys.readouterr()
    assert (out / "sweep.csv").read_bytes() == first
    assert (out / "sweep_agg.csv").read_bytes() == first_agg


def test_sweep_worker_flag_matches_serial(tmp_path, capsys):
    a, b = tmp_path / "w1", tmp_path / "w2"
    base = ["sweep", "--p", "20", "--trials", "2", "--m-test", "50"]
    assert run_cli(*base, "--workers", "1", "--out", str(a)) == 0
    assert run_cli(*base, "--workers", "2", "--out", str(b)) == 0
    capsys.readouterr()
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_resolvent_check_csv(tmp_path, capsys):
    out = tmp_path / "r"
    rc = run_cli("resolvent-check", "--p", "30,60", "--seeds", "2",
                 "--out", str(out))
    assert rc == 0
    capsys.readouterr()
    lines = (out / "resolvent_checks.csv").read_text().splitlines()
    assert lines[0] == "check_name,p,n,seed,observed,predicted,abs_error"
    assert len(lines) == 1 + 4 * 2 * 2


def test_resolvent_check_beyond_dense_cap(tmp_path, capsys):
    # n = 1600 exceeds the dense-resolvent cap; the solve-based checks have none
    out = tmp_path / "r"
    assert run_cli("resolvent-check", "--p", "800", "--seeds", "1",
                   "--out", str(out)) == 0
    capsys.readouterr()
    lines = (out / "resolvent_checks.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert all(r[1] == "800" and r[2] == "1600" for r in rows)


@pytest.mark.parametrize("argv", [
    ("resolvent-check", "--c", "0", "--p", "10", "--seeds", "1"),
    ("resolvent-check", "--p", "0", "--seeds", "1"),
    ("simulate", "--c", "0", "--p", "10", "--trials", "1", "--m-test", "10"),
    ("simulate", "--p", "0", "--trials", "1", "--m-test", "10"),
])
def test_bad_shapes_exit_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "InvalidShape" in err


def test_report_from_sweep(tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli("sweep", "--p", "20", "--trials", "2", "--m-test", "50",
                   "--out", str(out)) == 0
    rc = run_cli("report", "--input", str(out / "sweep.csv"), "--kind", "mu",
                 "--axis", "theta")
    assert rc == 0
    capsys.readouterr()
    svg = (out / "sweep_mu_vs_theta.svg").read_text()
    assert svg.startswith("<svg")
    assert (out / "sweep_agg.csv").exists()


def test_mnist_cli(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 255, size=(40, 28, 28)).astype(np.uint8)
    labels = np.array([0, 1] * 20, dtype=np.uint8)
    img = tmp_path / "imgs"
    lbl = tmp_path / "lbls"
    img.write_bytes(struct.pack(">IIII", 0x803, 40, 28, 28) + pixels.tobytes())
    lbl.write_bytes(struct.pack(">II", 0x801, 40) + labels.tobytes())
    out = tmp_path / "m"
    rc = run_cli("mnist", "--images", str(img), "--labels", str(lbl),
                 "--subsample-n", "30", "--trials", "2", "--m-test", "50",
                 "--out", str(out))
    assert rc == 0
    capsys.readouterr()
    assert (out / "mnist.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["args"]["subsample_n"] == [30]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
