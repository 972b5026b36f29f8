"""Synthetic data generation, poisoning, centering and the exact ridge solve.

Each trial draws from one Philox counter stream seeded by its per-trial
seed, which is derived statelessly from (master_seed, grid_index,
trial_index).  Sweeps are therefore bit-reproducible regardless of execution
order or worker count, and the seed stored in a row reproduces that row byte
for byte on any core count, for the OpenBLAS builds that the numpy and scipy
wheels bundle: `sweep.run_grid` runs every trial with one BLAS thread.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, cho_factor, cho_solve

from . import theory
from .errors import (
    InvalidLambda, InvalidShape, InvalidTestCount, SolveFailure, ThetaOutOfRange,
)
from .records import SweepRecord
from .theory import ModelParams, TheoryPrediction

_RESIDUAL_TOL = 1e-8


class Centering(enum.Enum):
    POPULATION = "population"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class SimShape:
    p: int
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.n < 1:
            raise InvalidShape(f"p and n must be >= 1, got p={self.p}, n={self.n}")

    @property
    def c_effective(self) -> float:
        return self.p / self.n


@dataclass
class PoisonedDataset:
    X: np.ndarray          # p x n, columns are samples, post-poison
    y: np.ndarray          # post-flip labels in {-1, +1}
    u: np.ndarray          # poison indicator
    v: np.ndarray          # trigger vector
    centering: Centering


@dataclass(frozen=True)
class RidgeSolution:
    beta: np.ndarray
    b0: float
    mu_emp: float        # beta . v
    sigma_sq_emp: float  # ||beta||^2


def trial_seed(master_seed: int, grid_index: int, trial_index: int) -> int:
    """64-bit per-trial seed, stateless in (master, grid, trial)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(grid_index, trial_index))
    return int(ss.generate_state(1, np.uint64)[0])


def trial_rng(master_seed: int, grid_index: int, trial_index: int) -> np.random.Generator:
    """The trial's Philox stream, seeded by its per-trial seed alone."""
    return _rng_from(trial_seed(master_seed, grid_index, trial_index))


def _rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def shape_for(p: int, c: float, seed: int) -> SimShape:
    """Derive n = round(p/c) at fixed p, recording the seed."""
    if not p * (p / c) <= np.iinfo(np.intp).max:  # also refuses p/c = inf
        raise InvalidShape(f"a p x p/c matrix exceeds the index range at p={p}, c={c}")
    return SimShape(p=p, n=max(1, round(p / c)), seed=seed)


def default_trigger(p: int, v_norm: float) -> np.ndarray:
    """Trigger along the first coordinate; the model is rotation-invariant."""
    v = np.zeros(p)
    if p > 0:
        v[0] = v_norm
    return v


def generate_clean(shape: SimShape, rng: np.random.Generator | None = None):
    """I.i.d. standard normal features and uniform +-1 labels.

    Draws from `rng` when given, so a trial's stream continues into its
    poison flips; otherwise from a fresh stream seeded by shape.seed.
    """
    rng = _rng_from(shape.seed if rng is None else rng)
    X = rng.standard_normal((shape.p, shape.n))
    y = rng.integers(0, 2, size=shape.n) * 2 - 1
    return X, y.astype(np.float64)


def apply_poison(X, y, theta: float, v, seed, centering: Centering = Centering.POPULATION) -> PoisonedDataset:
    """Shift a theta-fraction of the -1 class by v and flip those labels to +1."""
    if not (0.0 <= theta <= 1.0):
        raise ThetaOutOfRange(f"theta must be in [0, 1], got {theta}")
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("trigger vector must be finite")
    rng = _rng_from(seed)
    n = y.shape[0]
    u = np.zeros(n, dtype=np.int64)
    neg = y < 0
    u[neg] = rng.random(int(neg.sum())) < theta
    Xp = X.copy()
    Xp[:, u == 1] += v[:, None]
    yp = y.copy()
    yp[u == 1] = 1.0
    return PoisonedDataset(X=Xp, y=yp, u=u, v=v, centering=centering)


def center(dataset: PoisonedDataset, theta: float):
    """Remove the feature/label means, by expectation or empirically.

    Population mode uses the model expectations of `theory.population_moments`,
    x_bar = (theta/2) v and w_bar = theta; Empirical mode uses sample means
    (the only option when theta and v are unknown, e.g. on real data).
    """
    if dataset.centering is Centering.POPULATION:
        moments = theory.population_moments(theta)
        x_bar = moments.x_bar_coeff * dataset.v
        w_bar = moments.w_bar
    else:
        x_bar = dataset.X.mean(axis=1)
        w_bar = float(dataset.y.mean())
    X_tilde = dataset.X - x_bar[:, None]
    w_tilde = dataset.y - w_bar
    return X_tilde, w_tilde, x_bar, w_bar


def gram_cholesky(A, scale: float, shift: float):
    """x -> (scale A A^T + shift I)^-1 x, by one Cholesky factorization.

    The one place that forms and factors a regularized Gram: the ridge
    solve's primal and dual systems and the resolvent's (1/n) Z Z^T - z I.
    syrk forms only the upper triangle, which the factorization overwrites.
    A matrix that is not finite or not positive definite is a `SolveFailure`.
    """
    A = np.asarray(A, dtype=np.float64)
    trans = int(not A.flags.f_contiguous)  # syrk reads A.T of a C-ordered A without a copy
    G = blas.dsyrk(scale, A.T if trans else A, trans=trans)
    G[np.diag_indices_from(G)] += shift
    try:
        factor = cho_factor(G, lower=False, overwrite_a=True)
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: G is not finite
        raise SolveFailure(
            f"regularized Gram at shift={shift} is not finite and positive definite") from exc
    return lambda rhs: cho_solve(factor, rhs)


def solve_ridge(X_tilde, w_tilde, lam: float, x_bar, w_bar: float) -> RidgeSolution:
    """Exact centered ridge solve: beta = (1/n)((1/n)XX^T + lam I)^-1 X w.

    Uses the p x p primal system when p <= n and the equivalent n x n dual
    system otherwise; both are SPD Cholesky solves by `gram_cholesky`.
    """
    if lam <= 0.0:
        raise InvalidLambda(f"ridge solve requires lambda > 0, got {lam}")
    X_tilde = np.asarray(X_tilde, dtype=np.float64)
    w_tilde = np.asarray(w_tilde, dtype=np.float64)
    p, n = X_tilde.shape
    if p <= n:
        beta = gram_cholesky(X_tilde, 1.0 / n, lam)(X_tilde @ w_tilde / n)
    else:
        beta = X_tilde @ gram_cholesky(X_tilde.T, 1.0 / n, lam)(w_tilde) / n

    # normal-equations residual guards against ill-conditioning
    resid = X_tilde @ (X_tilde.T @ beta) / n + lam * beta - X_tilde @ w_tilde / n
    bound = _RESIDUAL_TOL * (1.0 + float(np.linalg.norm(w_tilde)))
    if float(np.linalg.norm(resid)) > bound:
        raise SolveFailure(
            f"normal-equations residual {np.linalg.norm(resid):.3e} exceeds {bound:.3e}"
        )

    b0 = float(w_bar - beta @ x_bar)
    return RidgeSolution(
        beta=beta,
        b0=b0,
        mu_emp=float("nan"),  # filled by callers that know the trigger
        sigma_sq_emp=float(beta @ beta),
    )


def score_statistics(solution: RidgeSolution, v) -> RidgeSolution:
    """Attach mu_emp = beta . v to a solution."""
    return RidgeSolution(
        beta=solution.beta,
        b0=solution.b0,
        mu_emp=float(solution.beta @ np.asarray(v)),
        sigma_sq_emp=solution.sigma_sq_emp,
    )


def empirical_efficacy(solution: RidgeSolution, v, m_test: int, seed) -> float:
    """Fraction of m_test fresh standard-normal test points with triggered score > 0.

    A test point x0 ~ N(0, I_p) scores beta . (x0 + v) ~ N(beta . v, ||beta||^2),
    so given beta the m_test hits are i.i.d. Bernoulli(theory.efficacy(beta . v,
    ||beta||^2)).  Their count is drawn as one Binomial, which is exact in
    distribution and costs O(p) whatever m_test is.  Ties at exactly zero count
    as not-attacked (strict inequality), as in theory.efficacy.
    """
    if m_test < 1:
        raise InvalidTestCount(f"m_test must be >= 1, got {m_test}")
    beta = solution.beta
    # the hit probability depends on beta's direction only; rescaling keeps
    # ||beta||^2 from underflowing, so only beta = 0 gives a constant score
    direction = beta / (float(np.max(np.abs(beta), initial=0.0)) or 1.0)
    shift = float(direction @ np.asarray(v, dtype=np.float64))
    hit_prob = theory.efficacy(shift, float(direction @ direction))
    return int(_rng_from(seed).binomial(m_test, hit_prob)) / m_test


def fit_poisoned(
    X, y, params: ModelParams, v, rng: np.random.Generator, centering: Centering, m_test: int
) -> tuple[RidgeSolution, float]:
    """Poison, center, solve and score one training set; also the MC efficacy.

    Every stage draws from `rng` in turn, so one stream covers the trial.
    """
    dataset = apply_poison(X, y, params.theta, v, rng, centering=centering)
    X_tilde, w_tilde, x_bar, w_bar = center(dataset, params.theta)
    solution = score_statistics(solve_ridge(X_tilde, w_tilde, params.lam, x_bar, w_bar), v)
    return solution, empirical_efficacy(solution, v, m_test, rng)


def make_record(
    params: ModelParams,
    shape: SimShape,
    pred: TheoryPrediction | None,
    centering: Centering,
    grid_index: int,
    trial_index: int,
    solution: RidgeSolution | None = None,
    eta_mc: float = math.nan,
) -> SweepRecord:
    """The row of one trial; `sweep.run_grid` fills in its wall time.

    Without a solution the empirical columns are NaN, which marks an error
    row; without a prediction the theory columns are NaN.
    """
    if solution is None:
        mu = sigma_sq = eta_plugin = math.nan
    else:
        mu, sigma_sq = solution.mu_emp, solution.sigma_sq_emp
        eta_plugin = theory.efficacy(mu, sigma_sq)
    if pred is None:
        pred = TheoryPrediction(mu=math.nan, sigma_sq=math.nan, eta=math.nan, C_align=math.nan)
    return SweepRecord(
        grid_index=grid_index,
        trial_index=trial_index,
        c_target=params.c,
        c_effective=shape.c_effective,
        lam=params.lam,
        theta=params.theta,
        v_norm=params.v_norm,
        p=shape.p,
        n=shape.n,
        seed=shape.seed,
        mu_emp=mu,
        sigma2_emp=sigma_sq,
        eta_emp_mc=eta_mc,
        eta_emp_plugin=eta_plugin,
        mu_theory=pred.mu,
        sigma2_theory=pred.sigma_sq,
        eta_theory=pred.eta,
        C_theory=pred.C_align,
        centering_mode=centering.value,
        wall_time_ms=0.0,
    )


def run_trial(
    params: ModelParams,
    shape: SimShape,
    *,
    centering: Centering = Centering.POPULATION,
    grid_index: int = 0,
    trial_index: int = 0,
    m_test: int = 10000,
) -> SweepRecord:
    """One full synthetic trial: generate, poison, center, solve, join with theory."""
    v = default_trigger(shape.p, params.v_norm)
    # one Philox stream per trial: generation, poison flips and the efficacy
    # hit count all advance the same counter
    rng = _rng_from(shape.seed)
    X, y = generate_clean(shape, rng)
    solution, eta_mc = fit_poisoned(X, y, params, v, rng, centering, m_test)
    return make_record(params, shape, theory.predict(params), centering, grid_index,
                       trial_index, solution, eta_mc)
