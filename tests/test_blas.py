"""One BLAS thread per process: output bytes that do not depend on the thread count."""

import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import poisonridge
from poisonridge import blas, mnist

SRC = str(Path(poisonridge.__file__).resolve().parent.parent)


def test_one_thread_pins_every_bundled_openblas():
    if not blas.thread_counts():
        pytest.skip("numpy and scipy bundle no OpenBLAS in this installation")
    blas.one_thread()
    blas.one_thread()  # idempotent
    assert all(count == 1 for count in blas.thread_counts())


# set before a fork-context pool starts, so that its workers inherit it
_barrier = None


def _worker_threads(_) -> tuple[int, list[int]]:
    """This worker's OS thread count and its bundled OpenBLAS thread counts.

    Waits for every worker of the pool first, so that each one answers.
    """
    _barrier.wait(timeout=60)
    return len(os.listdir("/proc/self/task")), blas.thread_counts()


def _skip_without(method: str) -> None:
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    if not blas.thread_counts():
        pytest.skip("numpy and scipy bundle no OpenBLAS in this installation")


def test_forked_workers_start_no_blas_thread():
    """A pinned parent's forked workers inherit its count of 1 and start no pool.

    OpenBLAS shuts its pool down at fork; setting the count again would
    rebuild it, one spinning thread per bundled library.
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
    for threads, counts in readings:
        assert threads == 1
        assert counts and all(count == 1 for count in counts)


def test_spawned_workers_pin_themselves():
    _skip_without("spawn")
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=context, initializer=blas.one_thread) as pool:
        readings = [pool.submit(blas.thread_counts) for _ in range(2)]
    for counts in (reading.result() for reading in readings):
        assert counts and all(count == 1 for count in counts)


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
