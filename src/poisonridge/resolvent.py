"""Monte Carlo lab for the spiked-resolvent deterministic equivalents.

A rank-one spiked Gaussian matrix Z = X + tau*sqrt(n)*a b^T has feature and
Gram resolvents whose quadratic forms converge to explicit functions of
(c, tau, z).  This module builds the random objects, evaluates the predicted
coefficients, and exposes the low-rank (Woodbury) update used to reconstruct
the spiked resolvent from the unspiked one.  The Monte Carlo checks read each
quadratic form from one residual-guarded Cholesky solve of the p x p feature
system; the dense resolvents remain as reference oracles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mp, simulator, theory
from .blas import one_thread
from .errors import InnerSingular, InvalidShape, NonFiniteParameter, NonNegativeZ, SolveFailure

# dense O(dim^3) inverses, kept as test oracles; the checks use solves
MAX_DENSE_DIM = 800

_UNIT_NORM_TOL = 1e-12
_RESOLVENT_RESIDUAL_TOL = 1e-10


class Side(enum.Enum):
    FEATURE_AAT = "feature_aaT"
    GRAM_BBT = "gram_bbT"


@dataclass(frozen=True)
class EquivalentCoefficients:
    """Identity and rank-one coefficients of a deterministic equivalent.

    Functions of (c, tau, z) only; the poison fraction never enters.
    """

    iso: float
    spike: float
    direction: Side

    def quadratic_form(self) -> float:
        """Predicted value of the quadratic form along the spike direction."""
        return self.iso + self.spike


@dataclass(frozen=True)
class ResolventExperiment:
    p: int
    n: int
    tau: float
    a: np.ndarray  # unit p-vector
    b: np.ndarray  # unit n-vector
    z: float
    seed: int

    def __post_init__(self) -> None:
        if abs(float(np.linalg.norm(self.a)) - 1.0) > _UNIT_NORM_TOL:
            raise ValueError("spike vector a must have unit norm")
        if abs(float(np.linalg.norm(self.b)) - 1.0) > _UNIT_NORM_TOL:
            raise ValueError("spike vector b must have unit norm")
        if self.z >= 0.0:
            raise NonNegativeZ(f"z must be negative, got {self.z}")


def make_experiment(p: int, n: int, tau: float, z: float, seed: int) -> ResolventExperiment:
    """Experiment with the canonical spike directions a = e1, b = e1."""
    a = np.zeros(p)
    a[0] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    return ResolventExperiment(p=p, n=n, tau=tau, a=a, b=b, z=z, seed=seed)


def build_spiked(experiment: ResolventExperiment) -> np.ndarray:
    """Z = X + tau*sqrt(n)*a b^T with i.i.d. standard normal X."""
    X = simulator._rng_from(experiment.seed).standard_normal((experiment.p, experiment.n))
    return X + experiment.tau * np.sqrt(experiment.n) * np.outer(experiment.a, experiment.b)


def _dense_resolvent(A: np.ndarray, n: int, z: float) -> np.ndarray:
    """((1/n) A A^T - z I)^-1 for a matrix A of dim rows, dense and symmetric."""
    if z >= 0.0:
        raise NonNegativeZ(f"z must be negative, got {z}")
    dim = A.shape[0]
    if dim > MAX_DENSE_DIM:
        raise ValueError(
            f"dense resolvent capped at dimension {MAX_DENSE_DIM}, got {dim}"
        )
    Q = simulator.gram_cholesky(A, 1.0 / n, -z)(np.eye(dim))
    Q = 0.5 * (Q + Q.T)
    resid = float(np.max(np.abs(A @ (A.T @ Q) / n - z * Q - np.eye(dim))))
    if resid > _RESOLVENT_RESIDUAL_TOL:
        raise SolveFailure(f"resolvent residual {resid:.3e} too large at z={z}")
    return Q


def feature_resolvent(Z: np.ndarray, z: float) -> np.ndarray:
    """Q1(z) = ((1/n) Z Z^T - z I_p)^-1, dense and symmetric."""
    return _dense_resolvent(Z, Z.shape[1], z)


def gram_resolvent(Z: np.ndarray, z: float) -> np.ndarray:
    """Qtilde1(z) = ((1/n) Z^T Z - z I_n)^-1, dense and symmetric."""
    return _dense_resolvent(Z.T, Z.shape[1], z)


def _feature_gain(tau: float, z: float, m: float) -> float:
    """The feature-side spike scalar 1 + tau^2(1 + z m(z))."""
    return 1.0 + tau * tau * (1.0 + z * m)


def det_equiv_feature(c: float, tau: float, z: float) -> EquivalentCoefficients:
    """Q1 <-> m(z) I_p - m(z)(1 - 1/(1 + tau^2(1 + z m(z)))) a a^T."""
    m = mp.mp_stieltjes(c, z)
    spike = -m * (1.0 - 1.0 / _feature_gain(tau, z, m))
    return EquivalentCoefficients(iso=m, spike=spike, direction=Side.FEATURE_AAT)


def det_equiv_feature_squared(c: float, tau: float, z: float) -> EquivalentCoefficients:
    """Q1^2 <-> m'(z) I_p + (spiked squared coefficient) a a^T."""
    m = mp.mp_stieltjes(c, z)
    m_prime = mp.mp_stieltjes_derivative(c, z)
    tau2 = tau * tau
    denom = _feature_gain(tau, z, m) ** 2
    spike = (m_prime * (tau2 + 1.0) - m * m * tau2) / denom - m_prime
    return EquivalentCoefficients(iso=m_prime, spike=spike, direction=Side.FEATURE_AAT)


def det_equiv_gram(c: float, tau: float, z: float) -> EquivalentCoefficients:
    """Qtilde1 <-> mtilde(z)(I_n - (1 - 1/B(z)) b b^T), B = 1 + c^-1 tau^2 (1 + z mtilde)."""
    mt = mp.mp_companion(c, z)
    spike = -mt * (1.0 - 1.0 / theory.spike_scalars(c, tau * tau, z).B)
    return EquivalentCoefficients(iso=mt, spike=spike, direction=Side.GRAM_BBT)


def det_equiv_gram_squared(c: float, tau: float, z: float) -> EquivalentCoefficients:
    """Qtilde1^2 <-> mtilde'(z) I_n + (T(z) - mtilde'(z)) b b^T."""
    mtp = mp.mp_companion_derivative(c, z)
    T = theory.spike_scalars(c, tau * tau, z).T
    return EquivalentCoefficients(iso=mtp, spike=T - mtp, direction=Side.GRAM_BBT)


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


def _check_residual(resid: np.ndarray, rhs: np.ndarray, z: float) -> None:
    err = float(np.max(np.abs(resid)))
    bound = _RESOLVENT_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(rhs))))
    if not err <= bound:
        raise SolveFailure(f"resolvent residual {err:.3e} exceeds {bound:.3e} at z={z}")


def _feature_solve(Z: np.ndarray, z: float, rhs: np.ndarray) -> np.ndarray:
    """Q1(z) rhs by one Cholesky solve of the p x p feature system."""
    n = Z.shape[1]
    x = simulator.gram_cholesky(Z, 1.0 / n, -z)(rhs)
    _check_residual(Z @ (Z.T @ x) / n - z * x - rhs, rhs, z)
    return x


def _gram_apply(Z: np.ndarray, z: float, b: np.ndarray) -> np.ndarray:
    """Qtilde1(z) b through the p x p system, never forming an n x n matrix.

    Push-through: Z Qtilde1 = Q1 Z, so Qtilde1 b = -(1/z)(b - Z^T Q1 (Z b) / n).
    """
    n = Z.shape[1]
    y = -(b - Z.T @ _feature_solve(Z, z, Z @ b) / n) / z
    _check_residual(Z.T @ (Z @ y) / n - z * y - b, b, z)
    return y


# check name -> deterministic equivalent; the order keys the per-check seeds
_EQUIVALENTS = {
    "feature": det_equiv_feature,
    "feature_sq": det_equiv_feature_squared,
    "gram": det_equiv_gram,
    "gram_sq": det_equiv_gram_squared,
}
ALL_CHECKS = tuple(_EQUIVALENTS)

CHECK_FIELDS = ("check_name", "p", "n", "seed", "observed", "predicted", "abs_error")


def quadratic_form_check(
    check_name: str, c: float, tau: float, z: float, p: int, seed: int
) -> dict:
    """One Monte Carlo draw of a spike-direction quadratic form vs its limit.

    With w = Q u for the spike direction u (a on the feature side, b on the
    Gram side), the observed form is u.w, or w.w for the squared resolvent.
    Returns a row dict keyed by CHECK_FIELDS.
    """
    if check_name not in _EQUIVALENTS:
        raise ValueError(f"unknown check {check_name!r}")
    coeff = _EQUIVALENTS[check_name](c, tau, z)
    n = simulator.shape_for(p, c, seed).n
    exp = make_experiment(p, n, tau, z, seed)
    Z = build_spiked(exp)
    if coeff.direction is Side.FEATURE_AAT:
        u, w = exp.a, _feature_solve(Z, z, exp.a)
    else:
        u, w = exp.b, _gram_apply(Z, z, exp.b)
    observed = float(w @ w) if check_name.endswith("_sq") else float(u @ w)
    predicted = coeff.quadratic_form()
    return dict(zip(CHECK_FIELDS, (
        check_name, p, n, seed, observed, predicted, abs(observed - predicted),
    )))


def convergence_table(
    c: float, tau: float, z: float, sizes, n_seeds: int, master_seed: int = 0
) -> list[dict]:
    """Quadratic-form error rows for every check over a grid of sizes and seeds.

    BLAS runs on one thread (`one_thread`), so the rows do not depend
    on the core count.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise InvalidShape(f"c must be positive and finite, got {c}")
    if not (math.isfinite(tau) and math.isfinite(z)):
        raise NonFiniteParameter(f"tau and z must be finite, got tau={tau}, z={z}")
    if any(p < 1 for p in sizes):
        raise InvalidShape(f"every size p must be >= 1, got {list(sizes)}")
    if n_seeds < 1:
        raise InvalidShape(f"n_seeds must be >= 1, got {n_seeds}")
    one_thread()
    rows = []
    for check_idx, check in enumerate(ALL_CHECKS):
        for p in sizes:
            for s in range(n_seeds):
                seed = int(
                    np.random.SeedSequence(
                        master_seed, spawn_key=(check_idx, p, s)
                    ).generate_state(1)[0]
                )
                rows.append(quadratic_form_check(check, c, tau, z, p, seed))
    return rows
