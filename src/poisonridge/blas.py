"""One BLAS thread per process.

The numpy and scipy wheels each bundle their own OpenBLAS, and each starts a
pool of threads.  Threaded BLAS results change in their last bits with the
thread count, and the two pools (plus those of any worker processes) contend
for the same cores.  Every command that produces outputs therefore runs its
BLAS on one thread, so output bytes do not depend on the machine's core count
and `--workers` is the one way to use more cores.

OpenBLAS shuts its thread pool down at `fork`, and the next call that sets
its thread count, even to the count it already has, rebuilds the pool.  A
rebuilt thread spins for a while (about 2^28 cycles) before it sleeps, so in
a forked worker it would take CPU from the jobs.  `one_thread` therefore
sets only a library whose count is not already 1: a forked worker inherits
its parent's count of 1 and starts no BLAS thread.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy
import scipy

# (getter, setter) of the thread count, for each symbol naming of the OpenBLAS
# builds that numpy and scipy wheels bundle
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _bundled_openblas() -> tuple[tuple, ...]:
    """(getter, setter) of each OpenBLAS bundled with the numpy and scipy wheels.

    Loaded once per process; a forked process inherits the handles.
    """
    pairs = []
    for package in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                              package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_symbol, set_symbol in _SYMBOLS:
                getter = getattr(lib, get_symbol, None)
                setter = getattr(lib, set_symbol, None)
                if getter is not None and setter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    pairs.append((getter, setter))
                    break
    return tuple(pairs)


def thread_counts() -> list[int]:
    """The thread count of each bundled OpenBLAS that loads, in this process."""
    return [getter() for getter, _ in _bundled_openblas()]


def one_thread() -> None:
    """Run every bundled OpenBLAS on one thread from now on, in this process.

    Idempotent.  A library already at one thread is not set again: OpenBLAS
    shuts its pool down at `fork` and a set call would rebuild it, with
    threads that spin before they sleep, so a forked worker whose parent
    was pinned starts no BLAS thread here.  A library that is not found, or
    has no known getter and setter, is left alone.  The old thread count is
    not restored: whatever runs later in the process computes at the same
    single thread.
    """
    for getter, setter in _bundled_openblas():
        if getter() != 1:
            setter(1)
