"""End-to-end CLI tests: subcommands, manifests, reruns, exit codes."""

import json
import math
import struct
import threading

import numpy as np
import pytest

from poisonridge import blas, cli, mnist, simulator, sweep, theory
from poisonridge.errors import SolveFailure
from poisonridge.records import FIELD_NAMES


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


def test_theory_huge_lambda_stays_finite(capsys):
    # m(-lambda) ~ 1/lambda is representable even where (1 - c + lambda)^2 overflows
    rc = run_cli("theory", "--c", "0.1", "--lambda", "1e200")
    out = capsys.readouterr().out
    assert rc == 0
    m = float(next(line.split()[1] for line in out.splitlines()
                   if line.startswith("m(-lambda)")))
    assert math.isfinite(m)
    assert m == pytest.approx(1e-200, rel=1e-12)


def test_theory_names_a_transform_that_overflows(capsys):
    # at c = 0.5, lambda = 1e-160, mtilde'(-lambda) overflows, but predict
    # does not read it: the command says so on its line and exits 0
    assert run_cli("theory", "--c", "0.5", "--lambda", "1e-160") == 0
    lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert lines["mtilde'(-lambda)"] == "not finite in double precision"
    for name in ("m(-lambda)", "mtilde(-lambda)", "m'(-lambda)", "mu", "sigma_sq", "eta", "C"):
        assert math.isfinite(float(lines[name]))
    assert float(lines["mu"]) == 0.042959427207637235
    # where predict itself reads an overflowing m', the command still exits 2
    assert run_cli("theory", "--c", "1", "--lambda", "1e-300") == 2
    assert "NonFiniteTransform" in capsys.readouterr().err


def test_theory_ridgeless_and_errors(capsys):
    rc = run_cli("theory", "--c", "0.5", "--ridgeless")
    assert rc == 0
    assert "ridgeless" in capsys.readouterr().out
    # above the threshold, the minimum-norm interpolator: sigma^2 = 1/(c - 1) at theta = 0
    rc = run_cli("theory", "--c", "1.5", "--ridgeless", "--theta", "0")
    assert rc == 0
    out = capsys.readouterr().out
    assert float(next(line.split()[1] for line in out.splitlines()
                      if line.startswith("sigma_sq"))) == pytest.approx(2.0, rel=1e-15)
    rc = run_cli("theory", "--c", "1", "--ridgeless")
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


def test_resolvent_check_names_an_overflowing_pivot_as_a_float(tmp_path, capsys):
    # at a spike of 1e160 the bordered pivot's g_0 overflows: exit 2, nothing
    # written, and the pivot printed as a Python float
    out = tmp_path / "r"
    assert run_cli("resolvent-check", "--tau", "1e160", "--p", "20", "--seeds", "1",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: SolveFailure: bordered pivot nan at lambda=0.5 is not finite and positive\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("resolvent-check", "--c", "0", "--p", "10", "--seeds", "1"),
    ("resolvent-check", "--p", "0", "--seeds", "1"),
    ("simulate", "--c", "0", "--p", "10", "--trials", "1", "--m-test", "10"),
    ("simulate", "--p", "0", "--trials", "1", "--m-test", "10"),
    ("resolvent-check", "--p", "10", "--seeds", "0"),
    # a p x n float64 array past numpy's size limit in bytes, or p/c not finite
    ("simulate", "--c", "1e-300", "--p", "10", "--trials", "1", "--m-test", "10"),
    ("simulate", "--c", "2e-18", "--p", "2", "--trials", "1", "--m-test", "10"),
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
    # at c = 1, m'(-lambda), which predict reads, overflows below lambda ~ 1e-200
    (("theory", "--c", "1", "--lambda", "1e-300"), "NonFiniteTransform"),
    (("theory", "--c", "1", "--lambda", "1e-250"), "NonFiniteTransform"),
    # ||v||^2 overflows
    (("theory", "--c", "0.5", "--vnorm", "1e160"), "InvalidTriggerNorm"),
    (("simulate", "--p", "20", "--c", "0.5", "--vnorm", "1e160", "--trials", "1",
      "--m-test", "10", "--out", "{tmp}/o"), "InvalidTriggerNorm"),
    # 64 PiB, past any 48-bit address space: refused without touching memory
    (("simulate", "--p", "3", "--c", "1e-15", "--trials", "1", "--m-test", "10",
      "--out", "{tmp}/o"), "MemoryError"),
    # a sweep CSV with a word for a number, or a row with too few values
    (("report", "--input", "{tmp}/word.csv", "--kind", "mu"), "SchemaMismatch"),
    (("report", "--input", "{tmp}/short.csv", "--kind", "mu"), "SchemaMismatch"),
    # a comma-separated list without a value
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30",
      "--theta", "", "--trials", "1", "--m-test", "10", "--out", "{tmp}/o"), "EmptyGrid"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30",
      "--lambda", ",", "--trials", "1", "--m-test", "10", "--out", "{tmp}/o"), "EmptyGrid"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "",
      "--trials", "1", "--m-test", "10", "--out", "{tmp}/o"), "EmptyGrid"),
    (("resolvent-check", "--p", "", "--seeds", "1", "--out", "{tmp}/o"), "InvalidShape"),
    # a 64 PiB draw, refused on the thread that draws ahead and raised at its turn
    (("resolvent-check", "--p", "3", "--c", "1e-15", "--seeds", "2", "--out", "{tmp}/o"),
     "MemoryError"),
    # z >= 0 is refused before the first draw
    (("resolvent-check", "--z", "0.5", "--p", "100000", "--seeds", "1", "--out", "{tmp}/o"),
     "NonNegativeZ"),
])
def test_bad_inputs_exit_2(tmp_path, capsys, argv, error):
    _write_idx_pair(tmp_path)
    # JSON files that are not run manifests
    for name, text in (("object", "{}"), ("list", "[]"), ("text", "not json")):
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    header = ",".join(FIELD_NAMES)
    for name, row in (("word", ",".join(["abc"] * len(FIELD_NAMES))), ("short", "1,2,3,4,5")):
        (tmp_path / f"{name}.csv").write_text(f"{header}\n{row}\n", encoding="utf-8")
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and error in err
    # a refused run leaves no primary output behind
    assert not list(tmp_path.glob("o/*.csv")) and not list(tmp_path.glob("o/*.jsonl"))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--p", "20"),
    ("sweep", "--p", "20", "--trials", "1"),
    ("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30"),
    ("resolvent-check", "--p", "10", "--seeds", "1"),
], ids=lambda argv: argv[0])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    # numpy's SeedSequence refuses a negative seed; the run refuses it before any trial or draw
    _write_idx_pair(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run_cli(*argv, "--seed=-1", "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: InvalidSeed")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--p", "20"),
    ("sweep", "--p", "20", "--trials", "1"),
    ("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "30"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("m_test", ["9223372036854775808", "99999999999999999999"])
def test_test_count_past_a_c_long_exits_2(tmp_path, capsys, argv, m_test):
    # the efficacy draw's binomial takes its count as a C long; a larger one is
    # refused before any trial
    _write_idx_pair(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run_cli(*argv, "--m-test", m_test, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: InvalidTestCount")
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mnist_trigger_norm_past_the_bound_is_named(tmp_path, capsys):
    # the requested norm is refused as given, before its square overflows
    _write_idx_pair(tmp_path)
    assert run_cli("mnist", "--images", str(tmp_path / "imgs"), "--labels",
                   str(tmp_path / "lbls"), "--subsample-n", "30", "--vnorm", "1e200",
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidTriggerNorm") and err.rstrip().endswith("got 1e+200")
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bordered_solve_at_an_overflowing_square_is_no_error_row(tmp_path, capsys):
    # at ||v|| = 1e154, ||x~_0||^2 overflows but the bordered pivot, formed on
    # x~_0 / 2^e, does not: no error rows, exit 0, no warning
    assert run_cli("simulate", "--p", "20", "--c", "0.1", "--vnorm", "1e154", "--trials", "2",
                   "--m-test", "10", "--out", str(tmp_path / "o")) == 0
    assert capsys.readouterr().out.endswith(", 0 error rows)\n")


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
    # trials run side by side, so the failure is keyed to trial 1's seed, not
    # to the order of the solves: a trial's fit opens its stream from its seed
    # and then solves on the same thread
    seed, rng_from, solve = simulator.trial_seed(0, 0, 1), simulator._rng_from, simulator._solve
    trial = threading.local()

    def note_seed(seed_or_rng):
        if not isinstance(seed_or_rng, np.random.Generator):
            trial.seed = seed_or_rng
        return rng_from(seed_or_rng)

    def fail_trial_1(*args, **kwargs):
        if getattr(trial, "seed", None) == seed:
            raise SolveFailure("injected")
        return solve(*args, **kwargs)

    monkeypatch.setattr(simulator, "_rng_from", note_seed)
    monkeypatch.setattr(simulator, "_solve", fail_trial_1)
    assert run_cli(*argv, "--trials", "3", "--m-test", "50", "--out", str(out)) == 1
    assert "3 records, 1 error rows" in capsys.readouterr().out
    rows = sweep.read_records(out / f"{command}.csv")
    assert [r.trial_index for r in rows] == [0, 1, 2]
    assert [r.is_error for r in rows] == [False, True, False]
    assert not np.isnan(rows[1].mu_theory)


def test_sweep_with_one_all_error_point_writes_both_csvs(tmp_path, capsys, monkeypatch):
    # every trial of the lambda = 0.001 point fails: the run keeps it as an
    # all-error aggregate row, exits 1, and the report leaves it out
    solve = simulator._solve

    def fail_at_smallest_lambda(system, factor, lam):
        if lam == 0.001:
            raise SolveFailure("injected")
        return solve(system, factor, lam)

    monkeypatch.setattr(simulator, "_solve", fail_at_smallest_lambda)
    out = tmp_path / "w"
    assert run_cli("sweep", "--p", "20", "--trials", "2", "--m-test", "50",
                   "--out", str(out)) == 1
    capsys.readouterr()
    agg = {row["grid_index"]: row for row in sweep.read_aggregates(out / "sweep_agg.csv")}
    assert len(agg) == len(sweep.read_records(out / "sweep.csv")) // 2
    (bad,) = [row for row in agg.values() if row["lambda"] == 0.001]
    assert bad["n_errors"] == bad["n_trials"] == 2 and math.isnan(bad["mu_emp_median"])
    assert all(row["n_errors"] == 0 for row in agg.values() if row is not bad)

    for kind in ("mu", "sigma", "eta"):
        assert run_cli("report", "--input", str(out / "sweep.csv"), "--kind", kind) == 0
    capsys.readouterr()
    svgs = sorted(out.glob("sweep_*_vs_*.svg"))
    assert len(svgs) == 12
    assert not any("nan" in path.read_text() for path in svgs)


def test_tiny_lambda_simulate_writes_error_rows(tmp_path, capsys):
    # at c = 1 the solve succeeds, but m'(-1e-300), which S reads, is not
    # finite: every row is an error row, and the run exits 1 without a traceback
    out = tmp_path / "o"
    assert run_cli("simulate", "--p", "20", "--c", "1.0", "--lambda", "1e-300",
                   "--trials", "2", "--m-test", "50", "--out", str(out)) == 1
    assert "2 records, 2 error rows" in capsys.readouterr().out
    rows = sweep.read_records(out / "simulate.csv")
    assert all(r.is_error and math.isnan(r.sigma2_theory) for r in rows)


def test_tiny_lambda_simulate_reaches_the_ridgeless_theory(tmp_path, capsys):
    # away from c = 1 the closed form at lambda = 1e-300 is finite: no error
    # rows, and its theory columns are the ridgeless limit
    out = tmp_path / "o"
    assert run_cli("simulate", "--p", "20", "--c", "0.5", "--lambda", "1e-300",
                   "--trials", "2", "--m-test", "50", "--out", str(out)) == 0
    assert "2 records, 0 error rows" in capsys.readouterr().out
    ridgeless = theory.predict_ridgeless(theory.ModelParams(c=0.5, lam=0.0, theta=0.1, v_norm=1.0))
    for r in sweep.read_records(out / "simulate.csv"):
        assert not r.is_error
        for got, want in ((r.mu_theory, ridgeless.mu), (r.sigma2_theory, ridgeless.sigma_sq),
                          (r.eta_theory, ridgeless.eta), (r.C_theory, ridgeless.C_align)):
            assert got == pytest.approx(want, rel=1e-12)


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
    # points sharing subsample-n share the seed of the first of them
    first = {}
    for r in rows:
        first.setdefault((r.n, r.trial_index), r.grid_index)
    assert all(r.seed == simulator.trial_seed(0, first[r.n, r.trial_index],
                                              r.trial_index) for r in rows)
    assert first[20, 0] == 0 and first[30, 0] == 1
    assert rows[8].grid_index == 4 and rows[8].theta == 0.2 and rows[8].seed == rows[0].seed


def test_rerun_replays_negative_scientific_values(tmp_path, capsys):
    # "-1e-05" after a separate --z would read as a flag; rerun passes --z=-1e-05
    out = tmp_path / "r"
    assert run_cli("resolvent-check", "--z=-1e-05", "--tau=-1e-05", "--p", "10",
                   "--seeds", "1", "--out", str(out)) == 0
    first = (out / "resolvent_checks.csv").read_bytes()
    assert run_cli("rerun", str(out / "manifest.json")) == 0
    capsys.readouterr()
    assert (out / "resolvent_checks.csv").read_bytes() == first


@pytest.mark.parametrize("argv", [
    ("theory", "--c", "0.5", "--vnorm", "1e-170"),
    ("simulate", "--p", "20", "--c", "0.5", "--vnorm", "1e-170", "--trials", "2",
     "--m-test", "50", "--out", "{tmp}/o"),
])
def test_tiny_trigger_norm_exits_0(tmp_path, argv):
    # ||v||^2 underflows to 0 below about 1.5e-162; C comes from the alignment formula
    assert run_cli(*(a.replace("{tmp}", str(tmp_path)) for a in argv)) == 0


def test_rerun_of_manifest_without_worker_count(tmp_path, capsys):
    # manifests from before --workers defaulted to 1 store "workers": null,
    # and those from before it defaulted to the usable CPUs store 1
    out = tmp_path / "s"
    assert run_cli("sweep", "--p", "10", "--trials", "1", "--m-test", "50",
                   "--out", str(out)) == 0
    first = (out / "sweep.csv").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["args"]["workers"] == blas.usable_cpus()
    for workers in (None, 1):
        manifest["args"]["workers"] = workers
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


def test_mnist_swap_flag_exchanges_the_digits(tmp_path, capsys):
    # --swap-classes is --digit-neg and --digit-pos exchanged, and rerun keeps it
    img, lbl = _write_idx_pair(tmp_path)
    common = ("mnist", "--images", str(img), "--labels", str(lbl), "--theta", "0.1,0.3",
              "--subsample-n", "30", "--trials", "2", "--m-test", "50")
    assert run_cli(*common, "--swap-classes", "--out", str(tmp_path / "s")) == 0
    assert run_cli(*common, "--digit-neg", "1", "--digit-pos", "0",
                   "--out", str(tmp_path / "d")) == 0
    assert run_cli(*common, "--out", str(tmp_path / "u")) == 0
    swapped = (tmp_path / "s" / "mnist.csv").read_bytes()
    assert swapped == (tmp_path / "d" / "mnist.csv").read_bytes()
    assert swapped != (tmp_path / "u" / "mnist.csv").read_bytes()
    assert run_cli("rerun", str(tmp_path / "s" / "manifest.json")) == 0
    assert (tmp_path / "s" / "mnist.csv").read_bytes() == swapped
    capsys.readouterr()


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
                "--theta", "0.1,0.2", "--lambda", "0.1,1.0", "--subsample-n", "30", *common]
    elif command == "sweep":
        argv = ["sweep", "--p", "10", *common]
    else:
        argv = ["simulate", "--p", "20", "--c", "0.5", "--centering", "empirical", *common]
    assert run_cli(*argv) == 0
    capsys.readouterr()
    rows = sweep.read_records(out / f"{command}.csv")
    # rows share a seed exactly when they share c and the trial
    key = [(r.c_target, r.trial_index) for r in rows]
    seeds = [r.seed for r in rows]
    assert len(set(zip(key, seeds))) == len(set(key)) == len(set(seeds))
    if command != "simulate":
        # one draw group holds points that differ in theta and in lambda
        assert len(set(seeds)) < len(rows)
        assert len({(r.theta, r.lam) for r in rows if r.seed == rows[0].seed}) > 2
    if command == "mnist":
        images, labels = mnist.load_pair(img, lbl)
        task = mnist.build_binary_task(images, labels)
        v = mnist.make_patch_trigger(offset=(2, 2), size=3, v_norm_target=1.0).v
    for row in rows:
        # the public stage chain, which the benchmark's replay runs too
        centering = simulator.Centering(row.centering_mode)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(row.seed)))
        if command == "mnist":
            idx = rng.choice(task.X.shape[1], size=row.n, replace=False)
            X, y = task.X[:, idx], task.y[idx]
        else:
            v = simulator.default_trigger(row.p, row.v_norm)
            X, y = simulator.generate_clean(simulator.SimShape(row.p, row.n, row.seed), rng)
        ds = simulator.apply_poison(X, y, row.theta, v, rng, centering=centering)
        X_tilde, w_tilde, x_bar, w_bar = simulator.center(ds, row.theta)
        sol = simulator.score_statistics(
            simulator.solve_ridge(X_tilde, w_tilde, row.lam, x_bar, w_bar), v)
        eta = simulator.empirical_efficacy(sol, v, m_test, rng)
        assert sol.mu_emp == row.mu_emp
        assert sol.sigma_sq_emp == row.sigma2_emp
        assert eta == row.eta_emp_mc


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
