"""Environment block recorded with every benchmark result.

Uses only the standard library, numpy and scipy: neither threadpoolctl nor
psutil is a dependency of the package.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# thread-count symbols of the OpenBLAS builds that numpy and scipy wheels bundle
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_threads(package) -> int | None:
    """Thread count reported by the OpenBLAS library bundled with a wheel."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                          package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas(package) -> dict:
    info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": _openblas_threads(package),
    }


def environment(loadavg_at_start, pool_workers: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": list(loadavg_at_start),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "pool_workers": pool_workers,
    }
