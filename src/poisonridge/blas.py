"""numpy's bundled OpenBLAS: the LAPACK of every solve, on one BLAS thread.

numpy's wheel (numpy >= 2.0) bundles scipy-openblas64: `scipy_`-prefixed,
`64_`-suffixed symbols with 64-bit integers.  Its `dsyrk`, `dpotrf`, `dpotrs`
and `dtrtrs` are called through ctypes, looked up through numpy's own linalg
extension module, so a process runs this one BLAS library; a numpy linked to
another (MKL, Accelerate, a system BLAS) raises `NoBundledOpenBLAS`.  A
threaded BLAS changes last bits with the thread count, so commands run BLAS
on one thread.  More cores are used by threads of the one process
(`map_ahead`), as many as it has `usable_cpus`: the workers of
`sweep.run_grid` and of `resolvent.convergence_table`, which call BLAS side
by side (ctypes releases the GIL for each call).
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy.linalg._umath_linalg

from .errors import NoBundledOpenBLAS

# Fortran arguments, by reference: C a CHARACTER (its hidden length goes last),
# I a 64-bit INTEGER, D a DOUBLE, A an F-ordered float64 array, S a float64
# array of any strides (its leading dimension is an I), O INFO
_SIGNATURES = {"dsyrk_": "CCIIDSIDAI", "dpotrf_": "CIAIO", "dpotrs_": "CIIAIAIO",
               "dtrtrs_": "CCCIIAIAIO"}
_TYPES = {"C": ctypes.c_char_p, "I": ctypes.POINTER(ctypes.c_int64),
          "D": ctypes.POINTER(ctypes.c_double), "O": ctypes.POINTER(ctypes.c_int64),
          "A": numpy.ctypeslib.ndpointer(numpy.float64, flags="F_CONTIGUOUS"),
          "S": numpy.ctypeslib.ndpointer(numpy.float64)}
_VALUES = {"I": ctypes.c_int64, "D": ctypes.c_double}


def _symbol(name: str) -> str:
    return f"scipy_{name}64_"


@functools.cache
def _openblas() -> ctypes.CDLL:
    """numpy's bundled OpenBLAS, its functions declared; loaded once."""
    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    try:
        for name, kinds in _SIGNATURES.items():
            routine = getattr(lib, _symbol(name))
            routine.argtypes = [*map(_TYPES.get, kinds), *[ctypes.c_size_t] * kinds.count("C")]
            routine.restype = None
        get, put = (getattr(lib, _symbol(f"openblas_{op}_num_threads")) for op in ("get", "set"))
    except AttributeError as exc:
        raise NoBundledOpenBLAS(f"numpy {numpy.__version__} does not link the OpenBLAS that its "
                                f"wheel bundles: {exc}") from exc
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return lib


def _call(name: str, *args) -> None:
    """Routine `name` on args in its signature's order: bytes, ints, floats, arrays, INFO."""
    kinds = _SIGNATURES[name]
    getattr(_openblas(), _symbol(name))(
        *[_VALUES[kind](arg) if kind in _VALUES else arg
          for kind, arg in zip(kinds, args, strict=True)], *[1] * kinds.count("C"))


def _lapack(name: str, *args) -> int:
    """`_call` of a LAPACK routine, INFO last; returns INFO, which must not be negative."""
    info = ctypes.c_int64()
    _call(name, *args, info)
    if info.value < 0:
        raise ValueError(f"{name} got an illegal value in argument {-info.value}")
    return info.value


def _leading_dimension(A: numpy.ndarray) -> int | None:
    """The leading dimension of 2-D float64 A read column-major, or None if
    its columns do not have unit stride; an axis of length 1 may have any."""
    m, k = A.shape
    lda, rest = divmod(A.strides[1], A.itemsize) if k > 1 else (m, 0)
    if (m < 2 or A.strides[0] == A.itemsize) and not rest and lda >= m:
        return max(1, lda)
    return None


def syrk(alpha: float, A) -> numpy.ndarray:
    """The upper triangle of alpha A A^T, F-ordered over zeros.

    An A with unit stride along either axis, such as a row slice of a C- or
    F-ordered array, is not copied: its other stride is passed as the leading
    dimension.
    """
    A = numpy.asarray(A, dtype=numpy.float64)
    m, k = A.shape
    trans = _leading_dimension(A) is None
    if trans and _leading_dimension(A.T) is None:
        A = numpy.ascontiguousarray(A)
    A_F = A.T if trans else A  # A, or A^T read transposed
    C = numpy.zeros((m, m), order="F")
    _call("dsyrk_", b"U", b"T" if trans else b"N", m, k, float(alpha), A_F,
          _leading_dimension(A_F), 0.0, C, max(1, m))
    return C


def potrf(G: numpy.ndarray) -> int:
    """Factor square F-ordered G in place into U^T U; INFO > 0: G is not positive definite."""
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"dpotrf_: a matrix of shape {G.shape} is not square")
    return _lapack("dpotrf_", b"U", G.shape[0], G, max(1, G.shape[0]))


def _by_factor(name: str, U: numpy.ndarray, B, *flags: bytes) -> numpy.ndarray:
    """Solve routine `name` on a new F-ordered copy of B, by upper triangular U."""
    X = numpy.array(B, dtype=numpy.float64, order="F")
    n = U.shape[0]
    if U.shape != (n, n) or X.shape[:1] != (n,):
        raise ValueError(f"{name}: a factor of shape {U.shape} and a right side of {X.shape}")
    ld = max(1, n)
    if _lapack(name, b"U", *flags, n, X.shape[1] if X.ndim > 1 else 1, U, ld, X, ld):
        raise ValueError(f"{name}: the factor has a zero on its diagonal")
    return X


def potrs(U: numpy.ndarray, B) -> numpy.ndarray:
    """(U^T U)^-1 B by `potrf`'s factor U, as a new F-ordered array."""
    return _by_factor("dpotrs_", U, B)


def trtrs(U: numpy.ndarray, B, trans: bool = False) -> numpy.ndarray:
    """U^-1 B, or U^-T B, by `potrf`'s factor U, as a new F-ordered array."""
    return _by_factor("dtrtrs_", U, B, b"T" if trans else b"N", b"N")


def thread_count() -> int:
    """The thread count of numpy's bundled OpenBLAS, in this process."""
    return getattr(_openblas(), _symbol("openblas_get_num_threads"))()


def one_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread from now on, in this process.

    The count is process-wide, so this is called on the calling thread before
    any other thread calls BLAS.  Idempotent, and sets nothing where the
    count already reads 1; the old count is not restored."""
    if thread_count() != 1:
        getattr(_openblas(), _symbol("openblas_set_num_threads"))(1)


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_ahead(fn: Callable, jobs: list, threads: int) -> Iterator:
    """fn(job) of each of `jobs`, in job order, computed on up to `threads` threads.

    At most one thread per job starts, and none below two: each job is then
    computed here when asked for.  The threads run jobs up to 2 * threads
    past the one yielded last, to stay busy while jobs differ in cost, so
    at most 1 + 2 * threads results are held if the caller drops each
    before asking for the next.  A job's exception is raised at its turn.
    Closing the generator cancels the jobs not started and waits for those
    running.
    """
    threads = min(threads, len(jobs))
    if threads < 2:
        yield from map(fn, jobs)
        return
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        pending = deque()
        for k in range(len(jobs)):
            for job in jobs[k + len(pending):k + 1 + 2 * threads]:
                pending.append(pool.submit(fn, job))
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
