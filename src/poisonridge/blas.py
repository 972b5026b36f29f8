"""numpy's bundled OpenBLAS: the LAPACK of every solve, on one BLAS thread.

numpy's wheel (numpy >= 2.0) bundles scipy-openblas64: `scipy_`-prefixed,
`64_`-suffixed symbols with 64-bit integers.  Its `dsyrk`, `dpotrf`, `dpotrs`
and `dtrtrs` are called through ctypes, looked up through numpy's own linalg
extension module, so a process runs this one BLAS library; a numpy linked to
another (MKL, Accelerate, a system BLAS) raises `NoBundledOpenBLAS`.  A
threaded BLAS changes last bits with the thread count, so commands run BLAS
on one thread; `--workers` processes and `resolvent.convergence_table`'s
helper thread, which runs no BLAS, use more cores.

OpenBLAS shuts its thread pool down at `fork`, and the next call that sets
its thread count, even to the count it already has, rebuilds the pool, whose
threads spin for about 2^28 cycles before they sleep.  `one_thread` therefore
sets only a count that is not already 1: a forked worker inherits its
parent's 1 and starts no BLAS thread.
"""

from __future__ import annotations

import ctypes
import functools

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
    """numpy's bundled OpenBLAS, its functions declared; loaded once, inherited at fork."""
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

    Idempotent; the old count is not restored."""
    if thread_count() != 1:
        getattr(_openblas(), _symbol("openblas_set_num_threads"))(1)
