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
quadratic forms of one spiked draw from one Cholesky factor of its unspiked
tail, two at p = n (`_solves`); the dense resolvents remain as reference
oracles.  Every Gram is formed by `blas.syrk`, and a draw's spiked row 0 is
bordered on as the last pivot (`simulator._bordered`) on each side that can
be: its smaller side, and at p = n, where the other side's tail has full
rank, both.  Every solve of a system (G - z I) x = rhs with G = (1/n) A
A^T, the oracles' included, passes one residual check (`_checked`): ||r||
<= 1e-10 ((tr G + |z|) ||x|| + ||rhs||), a normwise backward error of at
most 1e-10.

`convergence_table` runs each draw as a job in two phases, as
`sweep.run_grid` runs a trial.  On a worker thread (`blas.map_ahead`),
`_solves` draws and spikes Z, factors its tail and returns its two checked
solves; it calls no public function of the package.  Then on the calling
thread, in job order, `_rows` turns them into the draw's four rows.
"""

from __future__ import annotations

import math
from contextlib import closing
from typing import Callable

import numpy as np

from . import blas, mp, simulator, theory
from .blas import map_ahead
from .errors import (
    InnerSingular, InvalidSeed, InvalidShape, NonFiniteParameter, NonNegativeZ, SolveFailure,
)

# dense O(dim^3) inverses, kept as test oracles; the checks use solves
MAX_DENSE_DIM = 800


def build_spiked(p: int, n: int, tau: float, seed: int) -> np.ndarray:
    """Z = X + tau*sqrt(n)*e1 e1^T with i.i.d. standard normal p x n X drawn from `seed`."""
    Z = simulator._rng_from(seed).standard_normal((p, n))
    Z[0, 0] += tau * math.sqrt(n)
    return Z


def _dense_resolvent(A: np.ndarray, n: int, z: float) -> np.ndarray:
    """((1/n) A A^T - z I)^-1 for a matrix A of dim rows, dense and symmetric."""
    if z >= 0.0:
        raise NonNegativeZ(f"z must be negative, got {z}")
    dim = A.shape[0]
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense resolvent capped at dimension {MAX_DENSE_DIM}, got {dim}")
    gram = blas.syrk(1.0 / n, A)
    trace = float(np.trace(gram))
    Q = blas.potrs(simulator._factor(gram, -z), np.eye(dim))
    return _checked(A, n, z, trace, 0.5 * (Q + Q.T), np.eye(dim))


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
    factor = simulator._factor(blas.syrk(1.0 / X.shape[1], X), -z)
    return woodbury_update(lambda x: blas.potrs(factor, x), U, V)


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


# check name -> deterministic equivalent, in the row order of convergence_table
_EQUIVALENTS = {
    "feature": det_equiv_feature,
    "feature_sq": det_equiv_feature_squared,
    "gram": det_equiv_gram,
    "gram_sq": det_equiv_gram_squared,
}
ALL_CHECKS = tuple(_EQUIVALENTS)

CHECK_FIELDS = ("check_name", "p", "n", "seed", "observed", "predicted", "abs_error")


def _bordered_side(A: np.ndarray, n: int, lam: float):
    """(w, factor, tr G) of one side of a draw, G = (1/n) A A^T: w = (G + lam
    I)^-1 e1, with A's row 0 bordered on (`simulator._bordered`) onto
    `factor`, `_factor`'s factor of G[1:, 1:] + lam I."""
    gram = blas.syrk(1.0 / n, A[1:])
    border = np.stack((A @ A[0] / n, np.eye(1, len(A))[0]), axis=1)
    trace = float(np.trace(gram) + border[0, 0])
    factor = simulator._factor(gram, lam)
    return simulator._bordered(factor, border, lam), factor, trace


def _solves(job, tau: float, z: float) -> dict[str, np.ndarray]:
    """The worker phase of one (p, n, seed) job: w = Q1 e1 ("feature") and
    w = Qtilde1 e1 ("gram") of its spiked draw, both `_checked`.

    B is Z on its smaller side, Z^T if p > n: its spike s = tau sqrt(n) sits
    in its row 0, b = x + s e1, and its rows 1:, B_1, are unspiked.  On B's
    side row 0 is bordered on as the last pivot onto the factor R of (1/n)
    B_1 B_1^T + lam, lam = -z (`_bordered_side`).  At p = n the other side,
    Z^T, is bordered on too, onto its own tail's factor, which then has full
    rank.  Otherwise R serves the other side too: M = (1/n) B_1^T B_1 + lam has
    M^-1 v = (v - B_1^T R^-1 R^-T B_1 v / n) / lam, and b comes in by
    Sherman-Morrison with its s^2 terms cancelled: at a = M^-1 e1, q = M^-1
    x and u = x.q, w = (a (n + u) - q q_0 + s (q_0 a - a_0 q)) / (n + u + 2 s
    q_0 + s^2 a_0).  Calls no public function of the package, so it may run
    on a worker thread of `convergence_table`.
    """
    p, n, seed = job
    Z = simulator._rng_from(seed).standard_normal((p, n))
    B, s, lam = Z if p <= n else Z.T, tau * math.sqrt(n), -z
    rows, x, e1 = B[1:], B[0].copy(), np.eye(1, B.shape[1])[0]
    Z[0, 0] += s  # the spike enters through row 0 alone, never a factor
    with np.errstate(over="ignore", invalid="ignore"):  # `_pivot` and `_checked` refuse these
        near, factor, trace = _bordered_side(B, n, lam)
        if p == n:
            far = _bordered_side(Z.T, n, lam)[0]
        else:
            V = np.stack((e1, x), axis=1)
            a, q = ((V - rows.T @ blas.potrs(factor, rows @ V) / n) / lam).T
            u, q0, a0 = x @ q, q[0], a[0]
            far = ((a * (n + u) - q * q0 + s * (q0 * a - a0 * q))
                   / (n + u + 2 * s * q0 + s * s * a0))
    feature, gram_side = (near, far) if p <= n else (far, near)
    return {"feature": _checked(Z, n, z, trace, feature, np.eye(1, p)[0]),
            "gram": _checked(Z.T, n, z, trace, gram_side, np.eye(1, n)[0])}


def _rows(job, tau: float, z: float, solved: dict[str, np.ndarray]) -> dict[str, dict]:
    """The calling thread's phase of one (p, n, seed) job: each check's row
    from the job's solves (`_solves`).

    Each check reads the solve of its family: the observed form is
    e1.w = w[0], or w.w for a squared resolvent, and the predicted one is
    the limit at the draw's own aspect ratio p/n, which differs from c
    where n = round(p/c) rounds.
    """
    p, n, seed = job
    rows = {}
    for check_name, equivalent in _EQUIVALENTS.items():
        w = solved[check_name.removesuffix("_sq")]
        observed = float(w @ w) if check_name.endswith("_sq") else float(w[0])
        predicted = equivalent(p / n, tau, z)
        rows[check_name] = dict(zip(CHECK_FIELDS, (
            check_name, p, n, seed, observed, predicted, abs(observed - predicted),
        )))
    return rows


def spiked_draw_checks(c: float, tau: float, z: float, p: int, seed: int) -> dict[str, dict]:
    """Every check's row from one Monte Carlo draw of the spiked matrix, at n = round(p/c).

    Runs both phases of a `convergence_table` job here, `_solves` then
    `_rows`.  Maps each check name to a row dict keyed by CHECK_FIELDS.
    """
    if z >= 0.0:
        raise NonNegativeZ(f"z must be negative, got {z}")
    job = (p, simulator.shape_for(p, c, seed).n, seed)
    return _rows(job, tau, z, _solves(job, tau, z))


def convergence_table(
    c: float, tau: float, z: float, sizes, n_seeds: int, master_seed: int = 0
) -> list[dict]:
    """Quadratic-form error rows for every check over a grid of sizes and seeds.

    One spiked draw per (p, seed index) serves all four checks, so rows are
    dependent across checks and independent across seeds.  Rows run check,
    then p, then seed.  Every input is checked, and every seed and n
    derived, before the first draw.  Each draw is one job: its solves
    (`_solves`) run on worker threads (`blas.map_ahead`), and its rows
    (`_rows`) on this thread, in job order.
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
    with closing(map_ahead(lambda job: _solves(job, tau, z), jobs)) as ahead:
        draws = [_rows(job, tau, z, solved) for job, solved in zip(jobs, ahead)]
    return [draw[check] for check in ALL_CHECKS for draw in draws]
