"""One BLAS thread per process: output bytes that do not depend on the thread count."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poisonridge
from poisonridge import blas

SRC = str(Path(poisonridge.__file__).resolve().parent.parent)

_GET_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def test_one_thread_pins_every_bundled_openblas():
    libs = blas.bundled_openblas()
    if not libs:
        pytest.skip("numpy and scipy bundle no OpenBLAS in this installation")
    blas.one_thread()
    blas.one_thread()  # idempotent
    for lib in libs:
        getter = next(getattr(lib, s) for s in _GET_SYMBOLS if hasattr(lib, s))
        getter.argtypes = []
        getter.restype = ctypes.c_int
        assert getter() == 1


def _run(tmp_path, threads: int, argv, name: str) -> bytes:
    """The bytes of output `name` of a CLI run in a fresh process.

    A fresh process has not been pinned by an earlier in-process run, so
    OPENBLAS_NUM_THREADS sets its BLAS thread count until the command pins it.
    """
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "poisonridge.cli", *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    return (out / name).read_bytes()


# p = 300 is large enough that a threaded OpenBLAS splits the Gram product
# and the factorization, which changes their last bits
@pytest.mark.parametrize("argv, name", [
    (("simulate", "--p", "300", "--c", "0.5", "--trials", "2"), "simulate.csv"),
    (("simulate", "--p", "300", "--c", "2", "--trials", "2"), "simulate.csv"),
    (("resolvent-check", "--seeds", "1"), "resolvent_checks.csv"),
])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, argv, name):
    assert _run(tmp_path, 1, argv, name) == _run(tmp_path, 2, argv, name)


def test_sweep_does_not_depend_on_blas_threads_or_workers(tmp_path):
    argv = ("sweep", "--p", "300", "--trials", "2")
    outputs = {_run(tmp_path, threads, (*argv, "--workers", str(workers)), "sweep.csv")
               for threads in (1, 2) for workers in (1, 2)}
    assert len(outputs) == 1
