"""Monte Carlo lab for the spiked-resolvent deterministic equivalents.

A rank-one spiked Gaussian matrix Z = X + tau*sqrt(n)*a b^T has feature and
Gram resolvents whose quadratic forms converge to explicit functions of
(c, tau, z).  The limits do not change under rotation, so the Monte Carlo
checks draw the spike along a = b = e1 only.  This module draws that spiked
matrix, evaluates the predicted quadratic forms, and exposes the low-rank
(Woodbury) update used to reconstruct the spiked resolvent from the
unspiked one for any unit a and b.  The four predictions (`det_equiv_*`)
take their spike scalars from `theory.spike_gain` and
`theory.spike_squared`: at (tau^2, m, m') on the feature side and at
(tau^2/c, mtilde, mtilde') on the Gram side.  The checks read all four
quadratic forms of one spiked draw from one Cholesky factorization of the
p x p feature system; the dense resolvents remain as reference oracles.
Every solve of a system (G - z I) x = rhs with G = (1/n) A A^T, the
oracles' included, passes one residual check (`_checked`): ||r|| <= 1e-10
((tr G + |z|) ||x|| + ||rhs||), a normwise backward error of at most 1e-10.

`convergence_table` draws ahead: while the main thread factors and solves
one draw, a helper thread fills the standard normals of the next two
(`_normal_draw`, which runs no BLAS and calls no public function; numpy
fills them without holding the GIL).  Everything else, the spike
included, runs on the main thread in draw order, so the rows do not depend
on the helper.  Where the process may use only one CPU, the draws are made
inline and no thread starts.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from typing import Callable, Iterator

import numpy as np

from . import mp, simulator, theory
from .blas import one_thread
from .errors import (
    InnerSingular, InvalidSeed, InvalidShape, NonFiniteParameter, NonNegativeZ, SolveFailure,
)

# dense O(dim^3) inverses, kept as test oracles; the checks use solves
MAX_DENSE_DIM = 800

# draws that `convergence_table`'s helper thread fills beyond the one being
# factored; with one, the helper waits for the GIL before each fill
_DRAWS_AHEAD = 2


def _normal_draw(p: int, n: int, seed: int) -> np.ndarray:
    """The i.i.d. standard normal p x n matrix X of `seed`, before the spike.

    Runs no BLAS and calls no public function of the package, so it may run
    on `convergence_table`'s helper thread.
    """
    return simulator._rng_from(seed).standard_normal((p, n))


def build_spiked(p: int, n: int, tau: float, seed: int, X: np.ndarray | None = None) -> np.ndarray:
    """Z = X + tau*sqrt(n)*e1 e1^T with i.i.d. standard normal X.

    X is drawn from `seed` here unless the same draw is given, made ahead
    (`_normal_draw(p, n, seed)`).  The spike changes entry (0, 0) of X
    only, in place.
    """
    if X is None:
        X = _normal_draw(p, n, seed)
    X[0, 0] += tau * np.sqrt(n)
    return X


def _dense_resolvent(A: np.ndarray, n: int, z: float) -> np.ndarray:
    """((1/n) A A^T - z I)^-1 for a matrix A of dim rows, dense and symmetric."""
    if z >= 0.0:
        raise NonNegativeZ(f"z must be negative, got {z}")
    dim = A.shape[0]
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense resolvent capped at dimension {MAX_DENSE_DIM}, got {dim}")
    solve = simulator.gram_cholesky(A, 1.0 / n, -z)
    Q = solve(np.eye(dim))
    return _checked(A, n, z, solve.trace, 0.5 * (Q + Q.T), np.eye(dim))


def feature_resolvent(Z: np.ndarray, z: float) -> np.ndarray:
    """Q1(z) = ((1/n) Z Z^T - z I_p)^-1, dense and symmetric."""
    return _dense_resolvent(Z, Z.shape[1], z)


def gram_resolvent(Z: np.ndarray, z: float) -> np.ndarray:
    """Qtilde1(z) = ((1/n) Z^T Z - z I_n)^-1, dense and symmetric."""
    return _dense_resolvent(Z.T, Z.shape[1], z)


# Each form is summed as iso + spike, e.g. m' + (T - m'), which can differ
# from the bare T in the last bit; resolvent_checks.csv rows keep that sum.
def det_equiv_feature(c: float, tau: float, z: float) -> float:
    """a^T Q1 a <-> m(z) - m(z)(1 - 1/(1 + tau^2(1 + z m(z))))."""
    m = mp.mp_stieltjes(c, z)
    return m - m * (1.0 - 1.0 / theory.spike_gain(tau * tau, m, z))


def det_equiv_feature_squared(c: float, tau: float, z: float) -> float:
    """a^T Q1^2 a <-> m'(z) + (T - m'(z)), T = `theory.spike_squared`(tau^2, m, m', z)."""
    m, m_prime = mp.mp_stieltjes(c, z), mp.mp_stieltjes_derivative(c, z)
    return m_prime + (theory.spike_squared(tau * tau, m, m_prime, z) - m_prime)


def det_equiv_gram(c: float, tau: float, z: float) -> float:
    """b^T Qtilde1 b <-> mtilde(z) - mtilde(z)(1 - 1/B(z)), B = 1 + c^-1 tau^2 (1 + z mtilde)."""
    mt = mp.mp_companion(c, z)
    return mt - mt * (1.0 - 1.0 / theory.spike_gain(tau * tau / c, mt, z))


def det_equiv_gram_squared(c: float, tau: float, z: float) -> float:
    """b^T Qtilde1^2 b <-> mtilde'(z) + (T - mtilde'(z)), T = `theory.spike_squared` at tau^2/c."""
    mt, mtp = mp.mp_companion(c, z), mp.mp_companion_derivative(c, z)
    return mtp + (theory.spike_squared(tau * tau / c, mt, mtp, z) - mtp)


def woodbury_update(
    apply_A_inv: Callable[[np.ndarray], np.ndarray],
    U: np.ndarray,
    V: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse action of (A + U V^T) given the inverse action of A.

    Only the k x k inner matrix I + V^T A^-1 U is inverted; k is capped at 8
    because the construction is meant for finite-rank perturbations.
    """
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    if U.ndim != 2 or V.shape != U.shape:
        raise ValueError("U and V must be p x k matrices of equal shape")
    k = U.shape[1]
    if k > 8:
        raise ValueError(f"low-rank update capped at k <= 8, got k={k}")
    if k == 0:
        return apply_A_inv
    AinvU = np.column_stack([apply_A_inv(U[:, j]) for j in range(k)])
    inner = np.eye(k) + V.T @ AinvU
    cond = np.linalg.cond(inner)
    if not np.isfinite(cond) or cond > 1e14:
        raise InnerSingular(f"inner {k}x{k} matrix is numerically singular (cond={cond:.3e})")
    inner_inv = np.linalg.inv(inner)

    def apply(x: np.ndarray) -> np.ndarray:
        Ainv_x = apply_A_inv(x)
        return Ainv_x - AinvU @ (inner_inv @ (V.T @ Ainv_x))

    return apply


def spike_blocks(X: np.ndarray, tau: float, a: np.ndarray, b: np.ndarray):
    """The rank-3 blocks with (1/n) Z Z^T = (1/n) X X^T + U V^T.

    Entries are normalized to O(1): U = [tau a, Xb/sqrt(n), tau a] and
    V = [Xb/sqrt(n), tau a, tau a].
    """
    n = X.shape[1]
    xb = X @ b / np.sqrt(n)
    U = np.column_stack([tau * a, xb, tau * a])
    V = np.column_stack([xb, tau * a, tau * a])
    return U, V


def reconstruct_spiked_resolvent(
    X: np.ndarray, tau: float, a: np.ndarray, b: np.ndarray, z: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse action of (1/n) Z Z^T - z I built from the unspiked resolvent."""
    if z >= 0.0:
        raise NonNegativeZ(f"z must be negative, got {z}")
    U, V = spike_blocks(X, tau, a, b)
    return woodbury_update(simulator.gram_cholesky(X, 1.0 / X.shape[1], -z), U, V)


def _checked(A: np.ndarray, n: int, z: float, trace: float, x: np.ndarray, rhs) -> np.ndarray:
    """x, a solve of (G - z I) x = rhs with G = (1/n) A A^T and tr G = trace, or
    a `SolveFailure` unless its residual r has ||r|| <= tol ((tr G + |z|) ||x|| + ||rhs||).

    G is positive semidefinite, so tr G + |z| >= ||G - z I|| and the bound
    caps the normwise backward error (Rigal and Gaches) at tol =
    `simulator._RESIDUAL_TOL`, at any z and spike.  A matrix x takes
    Frobenius norms.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a residual that is not finite is refused
        norm = float(np.linalg.norm(A @ (A.T @ x) / n - z * x - rhs))
        bound = simulator._RESIDUAL_TOL * ((trace + abs(z)) * float(np.linalg.norm(x))
                                           + float(np.linalg.norm(rhs)))
    if not norm <= bound:
        raise SolveFailure(f"resolvent residual {norm:.3e} is not within {bound:.3e} at z={z}")
    return x


def _gram_apply(Z: np.ndarray, z: float, solve, b: np.ndarray) -> np.ndarray:
    """Qtilde1(z) b through the p x p system, never forming an n x n matrix.

    Push-through: Z Qtilde1 = Q1 Z, so Qtilde1 b = -(1/z)(b - Z^T Q1 (Z b) / n).
    Both solves are `_checked`; (1/n) Z^T Z has the factored Gram's trace.
    """
    n, Zb = Z.shape[1], Z @ b
    with np.errstate(over="ignore", invalid="ignore"):  # `_checked` refuses what this makes
        y = -(b - Z.T @ _checked(Z, n, z, solve.trace, solve(Zb), Zb) / n) / z
    return _checked(Z.T, n, z, solve.trace, y, b)


# check name -> deterministic equivalent, in the row order of convergence_table
_EQUIVALENTS = {
    "feature": det_equiv_feature,
    "feature_sq": det_equiv_feature_squared,
    "gram": det_equiv_gram,
    "gram_sq": det_equiv_gram_squared,
}
ALL_CHECKS = tuple(_EQUIVALENTS)

CHECK_FIELDS = ("check_name", "p", "n", "seed", "observed", "predicted", "abs_error")


def spiked_draw_checks(
    c: float, tau: float, z: float, p: int, seed: int, X: np.ndarray | None = None
) -> dict[str, dict]:
    """Every check's row from one Monte Carlo draw of the spiked matrix.

    One Cholesky factorization of (1/n) Z Z^T - z I serves both solves:
    w = Q1 e1 on the feature side and w = Qtilde1 e1 (push-through) on the
    Gram side; each check reads the solve of its family.  The observed form
    is e1.w = w[0], or w.w for a squared resolvent, and the predicted one is
    the limit at the draw's own aspect ratio p/n, which differs from c where
    n = round(p/c) rounds.  Maps each check name to a row dict keyed by
    CHECK_FIELDS.  X, if given, is the unspiked draw made ahead
    (`_normal_draw(p, n, seed)`); the spike is added to it in place.
    """
    if z >= 0.0:
        raise NonNegativeZ(f"z must be negative, got {z}")
    n = simulator.shape_for(p, c, seed).n
    Z = build_spiked(p, n, tau, seed, X)
    solve = simulator.gram_cholesky(Z, 1.0 / n, -z)
    e1 = np.eye(1, p)[0]
    solved = {"feature": _checked(Z, n, z, solve.trace, solve(e1), e1),
              "gram": _gram_apply(Z, z, solve, np.eye(1, n)[0])}
    rows = {}
    for check_name, equivalent in _EQUIVALENTS.items():
        w = solved[check_name.removesuffix("_sq")]
        observed = float(w @ w) if check_name.endswith("_sq") else float(w[0])
        predicted = equivalent(p / n, tau, z)
        rows[check_name] = dict(zip(CHECK_FIELDS, (
            check_name, p, n, seed, observed, predicted, abs(observed - predicted),
        )))
    return rows


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draws(jobs) -> Iterator[np.ndarray]:
    """`_normal_draw` of each (p, n, seed) job, in job order.

    Where two or more CPUs are usable, one helper thread fills the draws of
    the next `_DRAWS_AHEAD` jobs while the caller works on the one yielded
    last, so at most 1 + `_DRAWS_AHEAD` draws are held at once if the caller
    drops each before asking for the next.  A job's exception is raised at
    that job's turn.  Closing the generator cancels the jobs not started
    and joins the thread.  With one usable CPU, each draw is made inline
    when asked for.
    """
    if _usable_cpus() < 2:
        for job in jobs:
            yield _normal_draw(*job)
        return
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        pending = deque()
        for k in range(len(jobs)):
            for job in jobs[k + len(pending):k + 1 + _DRAWS_AHEAD]:
                pending.append(pool.submit(_normal_draw, *job))
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def convergence_table(
    c: float, tau: float, z: float, sizes, n_seeds: int, master_seed: int = 0
) -> list[dict]:
    """Quadratic-form error rows for every check over a grid of sizes and seeds.

    One spiked draw per (p, seed index) serves all four checks, so rows are
    dependent across checks and independent across seeds.  Rows run check,
    then p, then seed.  BLAS runs on one thread (`one_thread`), so the rows
    do not depend on the core count.  Every input is checked, and every
    seed and n derived, before the first draw.  The standard normals of the
    next two draws are filled on a helper thread while one is factored
    (`_draws`), inline where one CPU is usable; the rows are the same
    either way.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise InvalidShape(f"c must be positive and finite, got {c}")
    if not (math.isfinite(tau) and math.isfinite(z)):
        raise NonFiniteParameter(f"tau and z must be finite, got tau={tau}, z={z}")
    if not sizes or any(p < 1 for p in sizes):
        raise InvalidShape(f"at least one size p, each >= 1, is needed, got {list(sizes)}")
    if n_seeds < 1:
        raise InvalidShape(f"n_seeds must be >= 1, got {n_seeds}")
    if master_seed < 0:
        raise InvalidSeed(f"the master seed must be >= 0, got {master_seed}")
    if z >= 0.0:
        raise NonNegativeZ(f"z must be negative, got {z}")
    jobs = []
    for p in sizes:
        seeds = [int(np.random.SeedSequence(master_seed, spawn_key=(0, p, s)).generate_state(1)[0])
                 for s in range(n_seeds)]
        n = simulator.shape_for(p, c, seeds[0]).n
        jobs += [(p, n, seed) for seed in seeds]
    one_thread()
    draws = []
    with closing(_draws(jobs)) as ahead:
        for p, _, seed in jobs:
            # the draw is not bound to a name here, so it is freed before the next is asked for
            draws.append(spiked_draw_checks(c, tau, z, p, seed, next(ahead)))
    return [draw[check] for check in ALL_CHECKS for draw in draws]
