"""numpy's bundled OpenBLAS: its LAPACK against scipy's, and one BLAS thread per
process, so that output bytes do not depend on the thread count."""

import ctypes
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import poisonridge
from poisonridge import blas, cli, mnist, simulator
from poisonridge.errors import NoBundledOpenBLAS, SolveFailure

SRC = str(Path(poisonridge.__file__).resolve().parent.parent)


def _bundled() -> bool:
    try:
        blas.thread_count()
    except NoBundledOpenBLAS:
        return False
    return True


def test_one_thread_pins_every_bundled_openblas():
    if not _bundled():
        pytest.skip("numpy bundles no OpenBLAS in this installation")
    blas.one_thread()
    blas.one_thread()  # idempotent
    assert blas.thread_count() == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_map_ahead_pins_blas_before_its_first_job(threads):
    # pooled or inline, every job computes with one BLAS thread
    if not _bundled():
        pytest.skip("numpy bundles no OpenBLAS in this installation")
    set_threads = getattr(blas._openblas(), blas._symbol("openblas_set_num_threads"))
    try:
        set_threads(2)
        if blas.thread_count() != 2:
            pytest.skip("numpy's OpenBLAS cannot run on two threads in this process")
        readings = list(blas.map_ahead(lambda _: blas.thread_count(), list(range(4)), threads))
    finally:
        blas.one_thread()
    assert readings == [1] * 4


@pytest.fixture(scope="module")
def scipy_linalg():
    """scipy.linalg, the oracle, with its bundled OpenBLAS on one thread as numpy's is."""
    linalg = pytest.importorskip("scipy.linalg")
    set_threads = getattr(ctypes.CDLL(linalg._flapack.__file__),
                          "scipy_openblas_set_num_threads", None)
    if set_threads is None or not _bundled():
        pytest.skip("numpy and scipy do not both bundle an OpenBLAS in this installation")
    blas.one_thread()
    set_threads(1)
    return linalg


# (p, n) of the primal (p < n) and dual Grams that the ridge solves factor
@pytest.mark.parametrize("p, n", [(499, 5000), (499, 1667), (400, 200), (783, 4000), (60, 30),
                                  (20, 200)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_lapack_bindings_equal_scipy_bit_for_bit(scipy_linalg, p, n, order):
    A = np.array(np.random.default_rng(p + n).standard_normal((p, n)), order=order)
    A = A if p < n else A.T
    trans = int(not A.flags.f_contiguous)
    gram = blas.syrk(1.0 / n, A)
    assert np.array_equal(gram, scipy_linalg.blas.dsyrk(1.0 / n, A.T if trans else A, trans=trans))
    gram[np.diag_indices_from(gram)] += 0.1
    want, _ = scipy_linalg.cho_factor(gram, lower=False)
    assert blas.potrf(gram) == 0
    assert np.array_equal(gram, want)
    dim = gram.shape[0]
    rng = np.random.default_rng(dim)
    for rhs in (rng.standard_normal(dim), np.array(rng.standard_normal((dim, 2)), order=order)):
        assert np.array_equal(blas.potrs(gram, rhs), scipy_linalg.cho_solve((want, False), rhs))
        for side in ("N", "T"):
            assert np.array_equal(blas.trtrs(gram, rhs, trans=side == "T"),
                                  scipy_linalg.solve_triangular(want, rhs, trans=side))


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_factor_refuses_a_gram_not_finite_or_not_positive_definite(bad):
    gram = blas.syrk(0.1, np.random.default_rng(0).standard_normal((5, 10)))
    gram[2, 2 if bad == -1.0 else 4] = bad
    with pytest.raises(SolveFailure):
        simulator._factor(gram, 0.1)


@pytest.mark.parametrize("p, n", [(30, 80), (90, 40), (784, 4000)])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("transpose", [False, True], ids=["rows", "rows.T"])
def test_syrk_reads_a_row_slice_in_place(p, n, order, transpose):
    # X[1:] of a C- or F-ordered X, and its transpose, have unit stride along
    # one axis: syrk passes the other stride as the leading dimension, copies
    # nothing, and gives the bits of syrk of a contiguous copy
    X = np.array(np.random.default_rng(p).standard_normal((p, n)), order=order)
    view = X[1:].T if transpose else X[1:]
    copy = view.copy(order="K")
    assert copy.flags.c_contiguous or copy.flags.f_contiguous
    tracemalloc.start()
    try:
        gram = blas.syrk(1.0 / n, view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - gram.nbytes < view.nbytes
    assert np.array_equal(gram, blas.syrk(1.0 / n, copy))


def test_lapack_at_dimension_zero():
    # the tail of a one-feature system is empty: every call takes dimension 0
    gram = blas.syrk(1.0, np.zeros((0, 5)))
    assert gram.shape == (0, 0) and blas.potrf(gram) == 0
    for rhs in (np.zeros(0), np.zeros((0, 2))):
        assert blas.potrs(gram, rhs).shape == rhs.shape
        for trans in (False, True):
            assert blas.trtrs(gram, rhs, trans=trans).shape == rhs.shape


def test_an_illegal_lapack_argument_raises():
    # INFO < 0 names an argument the binding passed wrong: a bug, never a SolveFailure
    with pytest.raises(ValueError, match="argument 1"):
        blas._lapack("dpotrf_", b"X", 2, np.eye(2, order="F"), 2)


@pytest.fixture
def no_bundled_openblas(monkeypatch):
    """A process whose numpy seems to bundle no OpenBLAS: every lookup misses."""
    monkeypatch.setattr(blas, "_symbol", lambda name: f"no_such_{name}")
    blas._openblas.cache_clear()
    yield
    monkeypatch.undo()
    blas._openblas.cache_clear()


@pytest.mark.parametrize("argv", [("simulate", "--p", "20", "--trials", "1"),
                                  ("resolvent-check", "--p", "10", "--seeds", "1")])
def test_without_bundled_openblas_commands_exit_2_and_write_nothing(
        no_bundled_openblas, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert "NoBundledOpenBLAS" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["theory", "--c", "0.5"]) == 0


def test_importing_the_cli_loads_no_scipy():
    code = ("import poisonridge.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=60)
    assert result.stdout.strip() == "[]"


# set before a fork-context pool starts, so that its workers inherit it
_barrier = None


def _worker_threads(_) -> tuple[int, int]:
    """This worker's OS thread count and its bundled OpenBLAS thread count.

    Waits for every worker of the pool first, so that each one answers.
    """
    _barrier.wait(timeout=60)
    return len(os.listdir("/proc/self/task")), blas.thread_count()


def _skip_without(method: str) -> None:
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    if not _bundled():
        pytest.skip("numpy bundles no OpenBLAS in this installation")


def test_forked_workers_start_no_blas_thread():
    """A pinned parent's forked workers inherit its count of 1 and start no pool.

    OpenBLAS shuts its pool down at fork; setting the count again would
    rebuild it, with a spinning thread.
    """
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count a process's threads")
    _skip_without("fork")
    global _barrier
    blas.one_thread()
    context = multiprocessing.get_context("fork")
    _barrier = context.Barrier(2)
    try:
        with ProcessPoolExecutor(2, mp_context=context, initializer=blas.one_thread) as pool:
            readings = list(pool.map(_worker_threads, range(2)))
    finally:
        _barrier = None
    assert readings == [(1, 1), (1, 1)]


def test_spawned_workers_pin_themselves():
    _skip_without("spawn")
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=context, initializer=blas.one_thread) as pool:
        readings = [pool.submit(blas.thread_count) for _ in range(2)]
    assert [reading.result() for reading in readings] == [1, 1]


# a fresh interpreter that allows itself one CPU before numpy loads, so that
# OpenBLAS sizes its thread pools for that CPU
_ONE_CPU = ("import os, runpy; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "runpy.run_module('poisonridge.cli', run_name='__main__')")


def _run(tmp_path, setting, argv, name: str) -> bytes:
    """The bytes of output `name` of a CLI run in a fresh process.

    `setting` is a BLAS thread count, set through OPENBLAS_NUM_THREADS, or
    "one_cpu" for a process restricted to one CPU.  A fresh process has not
    been pinned by an earlier in-process run, so the setting holds until the
    command pins BLAS to one thread.
    """
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    if setting == "one_cpu":
        env.pop("OPENBLAS_NUM_THREADS", None)
        launch = ["-c", _ONE_CPU]
    else:
        env["OPENBLAS_NUM_THREADS"] = str(setting)
        launch = ["-m", "poisonridge.cli"]
    subprocess.run([sys.executable, *launch, *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    return (out / name).read_bytes()


def _write_idx_pair(tmp_path, count: int = 400) -> None:
    """A synthetic 28 x 28 IDX pair of alternating digits 0 and 1."""
    pixels = np.random.default_rng(0).integers(0, 255, size=(count, 28, 28), dtype=np.uint8)
    images = mnist.IdxImages(count=count, rows=28, cols=28, pixels=pixels)
    (tmp_path / "imgs").write_bytes(mnist.serialize_idx_images(images))
    (tmp_path / "lbls").write_bytes(mnist.serialize_idx_labels(np.arange(count) % 2))


# p = 300 (and mnist's p = 784 at n = 300) is large enough that a threaded
# OpenBLAS splits the Gram product and the factorization, which changes
# their last bits
@pytest.mark.parametrize("argv, name", [
    (("simulate", "--p", "300", "--c", "0.5", "--trials", "2"), "simulate.csv"),
    (("simulate", "--p", "300", "--c", "2", "--trials", "2"), "simulate.csv"),
    (("resolvent-check", "--seeds", "1"), "resolvent_checks.csv"),
    (("mnist", "--images", "{tmp}/imgs", "--labels", "{tmp}/lbls", "--subsample-n", "300",
      "--trials", "2"), "mnist.csv"),
])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, argv, name):
    if argv[0] == "mnist":
        _write_idx_pair(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    outputs = {_run(tmp_path, setting, argv, name) for setting in (1, 2, "one_cpu")}
    assert len(outputs) == 1


def test_sweep_does_not_depend_on_blas_threads_or_workers(tmp_path):
    argv = ("sweep", "--p", "300", "--trials", "2")
    outputs = {_run(tmp_path, threads, (*argv, "--workers", str(workers)), "sweep.csv")
               for threads in (1, 2) for workers in (1, 2)}
    assert len(outputs) == 1
