"""End-to-end CLI tests: subcommands, manifests, reruns, exit codes."""

import json
import math
import struct

import numpy as np
import pytest

from poisonridge import cli, mnist, simulator, sweep
from poisonridge.errors import SolveFailure
from poisonridge.theory import ModelParams


def run_cli(*argv):
    return cli.main(list(argv))


def test_theory_output(capsys):
    rc = run_cli("theory", "--c", "0.1", "--lambda", "0.1", "--theta", "0.1",
                 "--vnorm", "1.0")
    out = capsys.readouterr().out
    assert rc == 0
    # mu at the default operating point, within 4 ulp of its exact value
    mu = float(next(line.split()[1] for line in out.splitlines() if line.startswith("mu ")))
    assert abs(mu - 0.0388801832821786807206) <= 4 * math.ulp(0.0388801832821786807206)
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

    # manifests written while sweep had a --builtin flag still rerun
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["args"]["builtin"] = "default"
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("rerun", str(out / "manifest.json")) == 0
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
    ("resolvent-check", "--p", "10", "--seeds", "0"),
    # n = round(p/c) past the index range, or p/c not finite
    ("simulate", "--c", "1e-300", "--p", "10", "--trials", "1", "--m-test", "10"),
    ("simulate", "--c", "1e-320", "--p", "10", "--trials", "1", "--m-test", "10"),
    ("resolvent-check", "--c", "1e-320", "--p", "10", "--seeds", "1"),
])
def test_bad_shapes_exit_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "InvalidShape" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, error", [
    (("theory", "--c", "0.5", "--vnorm", "-1"), "InvalidTriggerNorm"),
    (("simulate", "--p", "10", "--vnorm", "-1", "--trials", "1", "--m-test", "10",
      "--out", "{tmp}/o"), "InvalidTriggerNorm"),
    (("simulate", "--p", "10", "--c", "0.5", "--trials", "1", "--m-test", "0",
      "--out", "{tmp}/o"), "InvalidTestCount"),
    (("sweep", "--p", "10", "--trials", "1", "--m-test", "0", "--out", "{tmp}/o"),
     "InvalidTestCount"),
    (("mnist", "--images", "{tmp}/missing", "--labels", "{tmp}/missing",
      "--out", "{tmp}/o"), "FileNotFoundError"),
    (("report", "--input", "{tmp}/missing.csv", "--kind", "mu"), "FileNotFoundError"),
    (("rerun", "{tmp}/missing.json"), "FileNotFoundError"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "0",
      "--trials", "1", "--m-test", "10", "--out", "{tmp}/o"), "InvalidShape"),
    (("simulate", "--p", "10", "--c", "0.5", "--trials", "0", "--m-test", "10",
      "--out", "{tmp}/o"), "InvalidTrialCount"),
    (("sweep", "--p", "10", "--trials", "0", "--m-test", "10", "--out", "{tmp}/o"),
     "InvalidTrialCount"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30",
      "--trials", "0", "--m-test", "10", "--out", "{tmp}/o"), "InvalidTrialCount"),
    (("rerun", "{tmp}/object.json"), "InvalidManifest"),
    (("rerun", "{tmp}/list.json"), "InvalidManifest"),
    (("rerun", "{tmp}/text.json"), "InvalidManifest"),
    (("simulate", "--p", "10", "--c", "0.5", "--lambda", "0", "--trials", "1",
      "--m-test", "10", "--out", "{tmp}/o"), "InvalidLambda"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30",
      "--lambda", "0", "--trials", "1", "--m-test", "10", "--out", "{tmp}/o"), "InvalidLambda"),
    (("simulate", "--p", "10", "--vnorm", "nan", "--trials", "1", "--m-test", "10",
      "--out", "{tmp}/o"), "InvalidTriggerNorm"),
    (("simulate", "--p", "10", "--vnorm", "inf", "--trials", "1", "--m-test", "10",
      "--out", "{tmp}/o"), "InvalidTriggerNorm"),
    (("simulate", "--p", "10", "--lambda", "inf", "--trials", "1", "--m-test", "10",
      "--out", "{tmp}/o"), "InvalidLambda"),
    (("sweep", "--p", "10", "--trials", "1", "--m-test", "10", "--workers", "0",
      "--out", "{tmp}/o"), "InvalidWorkerCount"),
    (("sweep", "--p", "10", "--trials", "1", "--m-test", "10", "--workers", "-1",
      "--out", "{tmp}/o"), "InvalidWorkerCount"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30",
      "--vnorm", "-1", "--trials", "1", "--m-test", "10", "--out", "{tmp}/o"),
     "InvalidTriggerNorm"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30",
      "--vnorm", "nan", "--trials", "1", "--m-test", "10", "--out", "{tmp}/o"),
     "InvalidTriggerNorm"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30",
      "--patch-size", "0", "--trials", "1", "--m-test", "10", "--out", "{tmp}/o"),
     "PatchOutOfBounds"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30",
      "--patch-size", "-1", "--trials", "1", "--m-test", "10", "--out", "{tmp}/o"),
     "PatchOutOfBounds"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30",
      "--digit-neg", "1", "--digit-pos", "1", "--trials", "1", "--m-test", "10",
      "--out", "{tmp}/o"), "SameDigits"),
    (("resolvent-check", "--p", "10", "--seeds", "1", "--tau", "nan", "--out", "{tmp}/o"),
     "NonFiniteParameter"),
    (("resolvent-check", "--p", "10", "--seeds", "1", "--tau=inf", "--out", "{tmp}/o"),
     "NonFiniteParameter"),
    (("resolvent-check", "--p", "10", "--seeds", "1", "--z=-inf", "--out", "{tmp}/o"),
     "NonFiniteParameter"),
    # finite, but the Gram of the spiked matrix overflows
    (("resolvent-check", "--p", "10", "--seeds", "1", "--tau=1e200", "--out", "{tmp}/o"),
     "SolveFailure"),
])
def test_bad_inputs_exit_2(tmp_path, capsys, argv, error):
    _write_idx_pair(tmp_path)
    # JSON files that are not run manifests
    for name, text in (("object", "{}"), ("list", "[]"), ("text", "not json")):
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and error in err
    # a refused run leaves no primary output behind
    assert not list(tmp_path.glob("o/*.csv")) and not list(tmp_path.glob("o/*.jsonl"))
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command", ["simulate", "mnist"])
def test_failed_trial_is_an_error_row(tmp_path, capsys, monkeypatch, command):
    # every Monte Carlo command keeps its other trials, marks the failed one
    # and exits 1
    img, lbl = _write_idx_pair(tmp_path)
    out = tmp_path / "o"
    if command == "mnist":
        argv = ["mnist", "--images", str(img), "--labels", str(lbl), "--subsample-n", "30"]
    else:
        argv = ["simulate", "--p", "20", "--c", "0.5"]
    solve, calls = simulator.solve_ridge, []

    def fail_second_solve(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise SolveFailure("injected")
        return solve(*args, **kwargs)

    monkeypatch.setattr(simulator, "solve_ridge", fail_second_solve)
    assert run_cli(*argv, "--trials", "3", "--m-test", "50", "--out", str(out)) == 1
    assert "3 records, 1 error rows" in capsys.readouterr().out
    rows = sweep.read_records(out / f"{command}.csv")
    assert [r.trial_index for r in rows] == [0, 1, 2]
    assert [r.is_error for r in rows] == [False, True, False]
    assert not np.isnan(rows[1].mu_theory)


def test_mnist_grid_order(tmp_path, capsys):
    # theta x lambda x subsample-n, last factor fastest, trials innermost
    img, lbl = _write_idx_pair(tmp_path)
    out = tmp_path / "m"
    assert run_cli("mnist", "--images", str(img), "--labels", str(lbl),
                   "--theta", "0.1,0.2", "--lambda", "0.1,1.0", "--subsample-n", "20,30",
                   "--trials", "2", "--m-test", "50", "--out", str(out)) == 0
    capsys.readouterr()
    rows = sweep.read_records(out / "mnist.csv")
    assert [(r.grid_index, r.trial_index) for r in rows] == [
        (g, t) for g in range(8) for t in range(2)]
    assert [(r.theta, r.lam, r.n) for r in rows[::2]] == [
        (th, lam, n) for th in (0.1, 0.2) for lam in (0.1, 1.0) for n in (20, 30)]
    assert all(r.seed == simulator.trial_seed(0, r.grid_index, r.trial_index) for r in rows)


def test_rerun_of_manifest_without_worker_count(tmp_path, capsys):
    # manifests from before --workers defaulted to 1 store "workers": null
    out = tmp_path / "s"
    assert run_cli("sweep", "--p", "10", "--trials", "1", "--m-test", "50",
                   "--out", str(out)) == 0
    first = (out / "sweep.csv").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["args"]["workers"] == 1
    manifest["args"]["workers"] = None
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("rerun", str(out / "manifest.json")) == 0
    capsys.readouterr()
    assert (out / "sweep.csv").read_bytes() == first


def test_report_unknown_axis_exit_2(tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli("sweep", "--p", "10", "--trials", "1", "--m-test", "50",
                   "--out", str(out)) == 0
    capsys.readouterr()
    report_dir = tmp_path / "r"
    report_dir.mkdir()
    rc = run_cli("report", "--input", str(out / "sweep.csv"), "--kind", "mu",
                 "--axis", "bogus", "--outdir", str(report_dir))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UnknownAxis" in err
    assert not list(report_dir.iterdir())


def _write_idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 255, size=(40, 28, 28)).astype(np.uint8)
    labels = np.array([0, 1] * 20, dtype=np.uint8)
    img, lbl = tmp_path / "imgs", tmp_path / "lbls"
    img.write_bytes(struct.pack(">IIII", 0x803, 40, 28, 28) + pixels.tobytes())
    lbl.write_bytes(struct.pack(">II", 0x801, 40) + labels.tobytes())
    return img, lbl


def test_mnist_cli(tmp_path, capsys):
    img, lbl = _write_idx_pair(tmp_path)
    out = tmp_path / "m"
    rc = run_cli("mnist", "--images", str(img), "--labels", str(lbl),
                 "--subsample-n", "30", "--trials", "2", "--m-test", "50",
                 "--out", str(out))
    assert rc == 0
    capsys.readouterr()
    assert (out / "mnist.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["args"]["subsample_n"] == [30]


@pytest.mark.parametrize("command", ["simulate", "sweep", "mnist"])
def test_seed_column_reproduces_row(tmp_path, capsys, command):
    # every command stores the per-trial seed: its stream alone redoes the trial
    out = tmp_path / "o"
    m_test = 50
    common = ["--trials", "2", "--m-test", str(m_test), "--seed", "3", "--out", str(out)]
    if command == "mnist":
        img, lbl = _write_idx_pair(tmp_path)
        argv = ["mnist", "--images", str(img), "--labels", str(lbl),
                "--subsample-n", "30", *common]
    elif command == "sweep":
        argv = ["sweep", "--p", "10", *common]
    else:
        argv = ["simulate", "--p", "20", "--c", "0.5", "--centering", "empirical", *common]
    assert run_cli(*argv) == 0
    capsys.readouterr()
    rows = sweep.read_records(out / f"{command}.csv")
    assert len({r.seed for r in rows}) == len(rows)
    for row in rows[:3]:
        params = ModelParams(c=row.c_target, lam=row.lam, theta=row.theta, v_norm=row.v_norm)
        centering = simulator.Centering(row.centering_mode)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(row.seed)))
        if command == "mnist":
            images, labels = mnist.load_pair(img, lbl)
            task = mnist.build_binary_task(images, labels)
            v = mnist.make_patch_trigger(offset=(2, 2), size=3, v_norm_target=1.0).v
            idx = rng.choice(task.X.shape[1], size=row.n, replace=False)
            X, y = task.X[:, idx], task.y[idx].copy()
        else:
            v = simulator.default_trigger(row.p, row.v_norm)
            X, y = simulator.generate_clean(simulator.SimShape(row.p, row.n, row.seed), rng)
        sol, eta = simulator.fit_poisoned(X, y, params, v, rng, centering, m_test)
        assert sol.mu_emp == row.mu_emp
        assert eta == row.eta_emp_mc


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
