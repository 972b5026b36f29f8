"""One BLAS thread per process.

The numpy and scipy wheels each bundle their own OpenBLAS, and each starts a
pool of threads.  Threaded BLAS results change in their last bits with the
thread count, and the two pools (plus those of any worker processes) contend
for the same cores.  Every command that produces outputs therefore runs its
BLAS on one thread, so output bytes do not depend on the machine's core count
and `--workers` is the one way to use more cores.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy
import scipy

# thread-count setters of the OpenBLAS builds that numpy and scipy wheels bundle
_SET_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def bundled_openblas() -> list[ctypes.CDLL]:
    """The OpenBLAS libraries bundled with the numpy and scipy wheels that load."""
    libs = []
    for package in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                              package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            try:
                libs.append(ctypes.CDLL(path))
            except OSError:
                continue
    return libs


def one_thread() -> None:
    """Run every bundled OpenBLAS on one thread from now on, in this process.

    Idempotent.  A library that is not found, or has no known setter, is
    left alone.  The old thread count is not restored: whatever runs later
    in the process computes at the same single thread.
    """
    for lib in bundled_openblas():
        for symbol in _SET_SYMBOLS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break
