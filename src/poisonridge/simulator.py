"""Synthetic data generation, poisoning, centering and the exact ridge solve.

Each trial draws from one Philox counter stream seeded by its per-trial
seed, which is derived statelessly from (master_seed, grid_index,
trial_index), where grid_index is the first grid point of the trial's
group: the points that share c.  One trial of a group draws its data once
and then its poison flip uniforms once, one per -1 label; each (theta,
||v||) subgroup of it poisons the -1 samples whose uniform is below theta
and solves at each lambda, and each row draws its efficacy count from a
copy of the stream as the flips left it (`run_trial_path`), so the rows of
a group are common random numbers.  Every system is solved split, in any
memory order and in both its primal (p <= n) and its dual (p > n) form:
each lambda factors the Gram of rows 1:, the tail, and row 0 is brought in
onto that factor, as a bordered last pivot (primal; `_bordered`) or a
rank-one term (dual; `_solve`), so a huge trigger in row 0 stays out of
the factor.  Every Gram of the package is formed by `blas.syrk` and
factored by `_factor`; the resolvent lab calls `_bordered` on each side of
its draw it can border, which at p = n is both sides.
The synthetic trigger lies in row 0, so a trial centers the tail of its
draw once, under either centering, and its subgroups, which differ only in
row 0, share one pass over the tail for their borders (`_split_systems`)
and one tail factor per lambda; a lone system, as in `solve_ridge`, is
solved the same way, so sharing changes no bit.  Sweeps are therefore
bit-reproducible regardless of execution order or worker count, and the
seed stored in a row reproduces that row byte for byte, through
`run_trial` or the copying public stages, on any core count, for the
OpenBLAS that numpy's wheel bundles, whose LAPACK `blas` calls.  A trial
runs in two phases: its fits (`_path_fits`), which call no public function
and so may run on a worker thread of `sweep.run_grid`, then its rows
(`_trial_records`), which join the fits with the closed form and draw the
efficacy counts.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import blas, theory
from .errors import (
    InvalidLambda, InvalidShape, InvalidTestCount, PoisonRidgeError, SolveFailure,
    ThetaOutOfRange,
)
from .records import SweepRecord
from .theory import ModelParams, TheoryPrediction

_RESIDUAL_TOL = 1e-10

# the largest count Generator.binomial takes, a C long
_MAX_TEST_COUNT = int(np.iinfo("l").max)


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
    # numpy bounds an array's size in bytes, 8 to a float64
    if not 8 * p * (p / c) <= np.iinfo(np.intp).max:  # also refuses p/c = inf
        raise InvalidShape(f"a float64 p x p/c matrix exceeds the array size limit at p={p}, c={c}")
    return SimShape(p=p, n=max(1, round(p / c)), seed=seed)


def default_trigger(p: int, v_norm: float) -> np.ndarray:
    """Trigger along the first coordinate; the model is rotation-invariant."""
    v = np.zeros(p)
    if p > 0:
        v[0] = v_norm
    return v


# a worker-phase name: perfbench's tracer wraps public attributes only
_trigger = default_trigger


def generate_clean(shape: SimShape, rng: np.random.Generator | None = None):
    """I.i.d. standard normal features and uniform +-1 labels.

    Draws from `rng` when given, so a trial's stream continues into its
    poison flips; otherwise from a fresh stream seeded by shape.seed.
    """
    rng = _rng_from(shape.seed if rng is None else rng)
    X = rng.standard_normal((shape.p, shape.n))
    y = rng.integers(0, 2, size=shape.n) * 2 - 1
    return X, y.astype(np.float64)


# a worker-phase name: perfbench's tracer wraps public attributes only
_draw = generate_clean


def apply_poison(X, y, theta: float, v, seed, centering: Centering = Centering.POPULATION) -> PoisonedDataset:
    """Shift a theta-fraction of the -1 class by v and flip those labels to +1.

    Draws the flip uniforms from `seed`, a seed or a stream, first.  Works on
    a float64 copy of X in X's memory order; X and y are left as they are.
    """
    Xp, yp = np.array(X, dtype=np.float64, order="K"), np.array(y, dtype=np.float64)
    u, v = _poison(Xp, yp, theta, v, _flip_uniforms(yp, _rng_from(seed)))
    return PoisonedDataset(X=Xp, y=yp, u=u, v=v, centering=centering)


def _flip_uniforms(y, rng: np.random.Generator) -> np.ndarray:
    """One U(0, 1) draw per -1 label of y, in sample order: the flips of every theta."""
    return rng.random(int(np.count_nonzero(np.asarray(y) < 0)))


def _poison(X, y, theta: float, v, uniforms: np.ndarray):
    """The poison stage, in place on float64 X and y; returns (u, v).

    Poisons the -1 samples whose uniform (`_flip_uniforms`) is below theta,
    so a smaller theta's poisoned set lies inside a larger one's.
    """
    if not (0.0 <= theta <= 1.0):
        raise ThetaOutOfRange(f"theta must be in [0, 1], got {theta}")
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("trigger vector must be finite")
    if v.shape != X.shape[:1]:
        raise ValueError(f"trigger vector has shape {v.shape}, expected ({X.shape[0]},)")
    u = np.zeros(y.shape[0], dtype=np.int64)
    u[y < 0] = uniforms < theta
    rows = np.flatnonzero(v)  # the shift writes only the trigger's rows
    X[np.ix_(rows, np.flatnonzero(u))] += v[rows, None]
    y[u == 1] = 1.0
    return u, v


def center(dataset: PoisonedDataset, theta: float):
    """Remove the feature/label means, by expectation or empirically.

    Population mode uses the model expectations of `theory.population_moments`,
    x_bar = (theta/2) v and w_bar = theta; Empirical mode uses sample means
    (the only option when theta and v are unknown, e.g. on real data).
    Works on a float64 copy of dataset.X in its memory order.
    """
    X = np.array(dataset.X, dtype=np.float64, order="K")
    return _center(X, dataset.y, dataset.v, theta, dataset.centering)


def _center(X, y, v, theta: float, centering: Centering):
    """The centering stage: subtracts x_bar from float64 X in place.

    Population centering writes only the rows where x_bar, a multiple of the
    trigger, is nonzero.
    """
    if centering is Centering.POPULATION:
        moments = theory._population_moments(theta)
        x_bar = moments.x_bar_coeff * v
        rows = np.flatnonzero(x_bar)
        X[rows] -= x_bar[rows, None]
        return X, y - moments.w_bar, x_bar, moments.w_bar
    x_bar = X.mean(axis=1)
    w_bar = float(y.mean())
    X -= x_bar[:, None]
    return X, y - w_bar, x_bar, w_bar


def _factor(G, shift: float) -> np.ndarray:
    """The upper Cholesky factor of G + shift I, from the upper triangle G.

    Factors G in place.  A matrix that is not finite or not positive definite
    is a `SolveFailure`.
    """
    G[np.diag_indices_from(G)] += shift
    if not np.isfinite(G).all() or blas.potrf(G):
        raise SolveFailure(
            f"regularized Gram at shift={shift} is not finite and positive definite")
    return G


def _rows_gram(rows) -> np.ndarray:
    """(1/n) rows rows^T when rows has fewer than n rows, else the dual (1/n) rows^T rows.

    One syrk, which reads a row slice of X~ in place.  The tail of X~ with
    p <= n rows is thus primal (its p - 1 rows 1: are fewer than n), and
    dual at p > n, also at p = n + 1; at p = 1 it is empty.
    """
    m, n = rows.shape
    return blas.syrk(1.0 / n, rows if m < n else rows.T)


# a border pass multiplies about this many bytes of rows while they are in cache
_PANEL_BYTES = 1 << 20


def _panels(rows) -> list[slice]:
    """Consecutive slices of rows' rows: of C-ordered rows each of about
    _PANEL_BYTES, and of rows in any other order, whose rows interleave in
    memory, one slice of all of them."""
    m, n = rows.shape
    step = max(1, _PANEL_BYTES // (8 * n) if rows.flags.c_contiguous else m)
    return [slice(start, start + step) for start in range(0, m, step)]


@dataclass(frozen=True)
class _System:
    """One centered ridge system, as its solve and its residual guard read it.

    X~, in any memory order, is kept split: as its row 0, `head`, and its
    rows 1:, `rows`, from which the Gram's tail comes (`_rows_gram`);
    `border` is (1/n) X~ [x~_0, w~], the primal Gram's row 0 and the
    right-hand side side by side.
    """
    rows: np.ndarray
    head: np.ndarray
    border: np.ndarray
    w_tilde: np.ndarray
    x_bar: np.ndarray
    w_bar: float


def _split_systems(rows, parts) -> list[_System]:
    """The split `_System` of each (head, w~, x_bar, w_bar) of `parts`, all of
    whose X~ have the rows 1: `rows`.

    Their borders are formed in one pass over rows: each panel (`_panels`)
    is multiplied by every system's two columns [head, w~] while it is in
    cache, into borders that are C-ordered for C-ordered rows and F-ordered
    otherwise, so that BLAS reads the rows along their unit stride.  The
    products are those of a lone system, so a border has the same bits alone
    as among others.  Row 0 of a border is formed on head / 2^e, 2^e the
    power of two just above max|head|, and scaled back after the 1/n, so
    ||x~_0||^2 does not overflow before it is divided by n; scaling by a
    power of two is exact.
    """
    n = rows.shape[1]
    columns = [np.stack((head, w_tilde), axis=1) for head, w_tilde, *_ in parts]
    order = "C" if rows.flags.c_contiguous else "F"
    borders = [np.empty((rows.shape[0] + 1, 2), order=order) for _ in parts]
    exponents = [math.frexp(float(np.max(np.abs(head))))[1] for head, *_ in parts]
    for border, (head, *_), cols, e in zip(borders, parts, columns, exponents):
        border[0] = np.ldexp(head, -e) @ cols
    for panel in _panels(rows):
        for border, cols in zip(borders, columns):
            np.matmul(rows[panel], cols, out=border[1:][panel])
    systems = []
    for border, (head, w_tilde, x_bar, w_bar), e in zip(borders, parts, exponents):
        border /= n
        with np.errstate(over="ignore"):  # `_pivot` refuses a g_0 that overflows
            border[0] = np.ldexp(border[0], e)
        systems.append(_System(rows=rows, head=head, border=border, w_tilde=w_tilde,
                               x_bar=x_bar, w_bar=w_bar))
    return systems


def _system(X_tilde, w_tilde, x_bar, w_bar: float) -> _System:
    """The `_System` of float64 X_tilde and w_tilde, holding a view of X_tilde's rows 1:."""
    (system,) = _split_systems(X_tilde[1:], [(X_tilde[0].copy(), w_tilde, x_bar, w_bar)])
    return system


def _solve(system: _System, factor, lam: float) -> np.ndarray:
    """beta of one system at lam, from `factor`, `_factor`'s factor of its Gram + lam I.

    The factor is that of the Gram of the system's rows 1:, its tail
    (`_rows_gram`): the primal one when they number fewer than n, else the
    dual one.  Row 0 comes in onto it in two ways.  On a primal tail it is
    bordered on as the last pivot (`_bordered`).  On a dual tail K = T + lam
    I it is the rank-one term h h^T / n of X~^T X~ / n = T + h h^T / n, h =
    x~_0 (Sherman-Morrison): [b, a] = K^-1 [h, w~], delta = 1 + h.b / n,
    beta_0 = (h.a / n) / delta and beta_1 = rows (a - b beta_0) / n.  A pivot
    delta that is not finite and positive is a `SolveFailure`.
    """
    m, n = system.rows.shape
    if m < n:
        return _bordered(factor, system.border, lam)
    head = system.head
    b, a = blas.potrs(factor, np.stack((head, system.w_tilde), axis=1)).T
    with np.errstate(over="ignore", invalid="ignore"):  # `_pivot` refuses what these make
        pivot = 1.0 + head @ b / n
    beta0 = head @ a / n / _pivot(pivot, "rank-one", lam)
    return np.concatenate(([beta0], system.rows @ (a - b * beta0) / n))


def _bordered(factor, border, lam: float) -> np.ndarray:
    """x of (G + lam I) x = rhs from `border`, [g, rhs] with g = G[:, 0], and R =
    `factor`, `_factor`'s factor of G[1:, 1:] + lam I: row 0 is bordered on as
    the last pivot, R^T [r, z] = [g_1, rhs_1], delta^2 = g_0 + lam - r.r, x_0 =
    (rhs_0 - r.z) / delta^2 and R x_1 = z - r x_0.  A pivot delta^2 that is not
    finite and positive is a `SolveFailure`."""
    r, z = blas.trtrs(factor, border[1:], trans=True).T
    g0, rhs0 = border[0]
    x0 = (rhs0 - r @ z) / _pivot(g0 + lam - r @ r, "bordered", lam)
    return np.concatenate(([x0], blas.trtrs(factor, z - r * x0)))


def _pivot(value: float, kind: str, lam: float) -> float:
    """value, a pivot of `_solve` or `_bordered`; one that is not finite and
    positive is a `SolveFailure`."""
    if not 0.0 < value < math.inf:
        raise SolveFailure(
            f"{kind} pivot {float(value)} at lambda={lam} is not finite and positive")
    return value


def _solve_at(lam: float, gram, systems) -> list:
    """Each system's beta at lam, or the `PoisonRidgeError` of its solve, from
    one factorization of gram + lam I, which consumes gram."""
    try:
        if not lam > 0.0:
            raise InvalidLambda(f"ridge solve requires lambda > 0, got {lam}")
        factor = _factor(gram, lam)
    except PoisonRidgeError as exc:
        return [exc] * len(systems)
    betas = []
    for system in systems:
        try:
            betas.append(_solve(system, factor, lam))
        except PoisonRidgeError as exc:
            betas.append(exc)
    return betas


def _check_residuals(solved, rows_sq: float) -> list:
    """Each (system, lam, beta) of `solved`: beta, or a `SolveFailure` if its
    normal-equations residual is not finite or exceeds the tolerance.

    The residual r = (1/n) X~ (X~^T beta) + lam beta - rhs guards against
    ill-conditioning.  Its norm may be at most _RESIDUAL_TOL times the sum of
    the scales of its three terms: ||X~||_F ||X~^T beta|| / n for the
    product, which can cancel, then lam ||beta|| and ||rhs||, so the bound
    follows the data at any trigger norm; rows_sq is ||rows||_F^2, and a
    head's norm is taken on head / max|head|, which does not overflow.  A
    residual or a bound that is not finite refuses beta.  The
    systems share their rows, so every beta is checked in one pass: one gemm
    forms X~^T B of the betas B side by side and one X~ (X~^T B), where
    X~^T beta = rows^T beta_1 + head beta_0.
    """
    if not solved:
        return []
    rows = solved[0][0].rows
    n = rows.shape[1]
    B = np.stack([beta for _, _, beta in solved], axis=1)
    U = rows.T @ B[1:]
    XU = np.empty_like(B)
    for j, (system, _, _) in enumerate(solved):
        U[:, j] += system.head * B[0, j]
        XU[0, j] = system.head @ U[:, j]
    XU[1:] = rows @ U
    out = []
    for (system, lam, beta), u, xu in zip(solved, U.T, XU.T):
        rhs = system.border[:, 1]
        head_max = float(np.max(np.abs(system.head)))
        x_norm = math.hypot(math.sqrt(rows_sq), head_max and head_max * float(
            np.linalg.norm(system.head / head_max)))
        norm = float(np.linalg.norm(xu / n + lam * beta - rhs))
        bound = _RESIDUAL_TOL * float(x_norm * np.linalg.norm(u) / n + lam * np.linalg.norm(beta)
                                      + np.linalg.norm(rhs))
        out.append(beta if norm <= bound < math.inf else SolveFailure(
            f"normal-equations residual {norm:.3e} exceeds {bound:.3e}"))
    return out


def _solve_path(paths) -> list[dict]:
    """Each (system, lambdas) of `paths` solved at each of its lambdas.

    The systems share their rows 1:, and so their Gram's tail (`_rows_gram`),
    which is formed once and factored once per distinct lambda: each lambda
    but the last factors a copy of it that keeps its memory order, and the
    last the Gram itself, so a path holds the Gram and at most one factor.  Every solution's residual
    is then checked at once (`_check_residuals`).  Returns, per path,
    {lambda: solution, or that lambda's `PoisonRidgeError`}.
    """
    systems = [system for system, _ in paths]
    lams = list(dict.fromkeys(lam for _, path in paths for lam in path))
    gram = _rows_gram(systems[0].rows)
    rows_sq = systems[0].rows.shape[1] * float(np.trace(gram))  # ||rows||_F^2, for the guard
    betas = {}
    for i, lam in enumerate(lams):
        at = [k for k, (_, path) in enumerate(paths) if lam in path]
        # the copy is bound to no name, so it and its factor are dropped
        # before the next lambda's copy is made
        betas.update(zip([(k, lam) for k in at], _solve_at(
            lam, gram if i == len(lams) - 1 else gram.copy(order="K"), [systems[k] for k in at])))
    solved = [key for key, beta in betas.items() if isinstance(beta, np.ndarray)]
    betas.update(zip(solved, _check_residuals([(systems[k], lam, betas[k, lam])
                                               for k, lam in solved], rows_sq)))
    return [{lam: _solution(system, betas[k, lam]) for lam in path}
            for k, (system, path) in enumerate(paths)]


def _solution(system: _System, beta):
    """The `RidgeSolution` of beta (mu_emp NaN until `score_statistics`), or beta's error."""
    if isinstance(beta, PoisonRidgeError):
        return beta
    return RidgeSolution(
        beta=beta,
        b0=float(system.w_bar - beta @ system.x_bar),
        mu_emp=math.nan,
        sigma_sq_emp=float(beta @ beta),
    )


def solve_ridge(X_tilde, w_tilde, lam: float, x_bar, w_bar: float) -> RidgeSolution:
    """Exact centered ridge solve: beta = (1/n)((1/n)XX^T + lam I)^-1 X w.

    Data in any memory order, at any p >= 1, are solved split (`_solve`):
    by one SPD Cholesky factor of the Gram of rows 1:, the primal
    (p - 1) x (p - 1) one when p <= n and the dual n x n one otherwise, with
    row 0 brought in, bordered onto a primal tail or as a rank-one term of a
    dual one.  The one-system, one-lambda case of `_solve_path`, so a
    trial's row equals it bit for bit.
    Raises the solve's failure; mu_emp is NaN until `score_statistics`.
    """
    X_tilde = np.asarray(X_tilde, dtype=np.float64)
    w_tilde = np.asarray(w_tilde, dtype=np.float64)
    (fits,) = _solve_path([(_system(X_tilde, w_tilde, x_bar, w_bar), (lam,))])
    solution = fits[lam]
    if isinstance(solution, PoisonRidgeError):
        raise solution
    return solution


def score_statistics(solution: RidgeSolution, v) -> RidgeSolution:
    """Attach mu_emp = beta . v to a solution."""
    return replace(solution, mu_emp=float(solution.beta @ np.asarray(v)))


def _check_test_count(m_test: int) -> None:
    """Refuse an m_test that `empirical_efficacy` cannot draw: below 1 or past a C long."""
    if not 1 <= m_test <= _MAX_TEST_COUNT:
        raise InvalidTestCount(f"m_test must be in [1, {_MAX_TEST_COUNT}], got {m_test}")


def empirical_efficacy(solution: RidgeSolution, v, m_test: int, seed) -> float:
    """Fraction of m_test fresh standard-normal test points with triggered score > 0.

    A test point x0 ~ N(0, I_p) scores beta . (x0 + v) ~ N(beta . v, ||beta||^2),
    so given beta the m_test hits are i.i.d. Bernoulli(theory.efficacy(beta . v,
    ||beta||^2)).  Their count is drawn as one Binomial, which is exact in
    distribution and costs O(p) whatever m_test is.  Ties at exactly zero count
    as not-attacked (strict inequality), as in theory.efficacy.
    """
    _check_test_count(m_test)
    beta = solution.beta
    # the hit probability depends on beta's direction only; rescaling keeps
    # ||beta||^2 from underflowing, so only beta = 0 gives a constant score
    direction = beta / (float(np.max(np.abs(beta), initial=0.0)) or 1.0)
    shift = float(direction @ np.asarray(v, dtype=np.float64))
    hit_prob = theory.efficacy(shift, float(direction @ direction))
    return int(_rng_from(seed).binomial(m_test, hit_prob)) / m_test


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


@dataclass(frozen=True)
class _TrialFits:
    """The worker phase's result for one trial: its points, split into
    subgroups (`_subgroups`), each subgroup's trigger and
    {lambda: `RidgeSolution` or the fit's `PoisonRidgeError`}, and the
    trial's stream as the flips left it."""
    subgroups: list
    triggers: list
    fits: list
    rng: np.random.Generator


def _trial_records(fitted: _TrialFits, shape: SimShape, centering: Centering, trial_index: int,
                   m_test: int) -> list[SweepRecord]:
    """The calling thread's phase of a trial: its rows, from its fits, in
    subgroup order.

    Each row with a solution draws its efficacy count from a copy of the
    stream as the flips left it.  A row has NaN empirical columns when its
    lambda's fit or efficacy or its closed-form prediction failed, and NaN
    theory columns when the prediction failed.
    """
    records = []
    for subgroup, v, fits in zip(fitted.subgroups, fitted.triggers, fitted.fits):
        for grid_index, params in subgroup:
            fit = fits.get(params.lam)
            pred, solved = None, ()  # a failure leaves NaN columns
            try:
                pred = theory.predict(params)
                if isinstance(fit, RidgeSolution):
                    fit = score_statistics(fit, v)
                    solved = fit, empirical_efficacy(fit, v, m_test, copy.deepcopy(fitted.rng))
            except PoisonRidgeError:
                pass
            records.append(make_record(params, shape, pred, centering, grid_index, trial_index,
                                       *solved))
    return records


def _subgroups(points) -> list:
    """The (grid_index, params) of `points` split by (theta, ||v||) into
    subgroups, in grid order."""
    subgroups = {}
    for grid_index, params in points:
        subgroups.setdefault((params.theta, params.v_norm), []).append((grid_index, params))
    return list(subgroups.values())


def _path_fits(points, shape: SimShape, centering: Centering) -> _TrialFits:
    """The worker phase of `run_trial_path`: every fit, and no row.

    Calls no public function of the package, so it may run on a worker
    thread of `sweep.run_grid`.
    """
    # one Philox stream per trial: generation, poison flips and the efficacy
    # hit counts all continue the same counter
    rng = _rng_from(shape.seed)
    X, y = _draw(shape, rng)
    uniforms = _flip_uniforms(y, rng)
    subgroups = _subgroups(points)
    # every trigger lies in row 0 (`default_trigger`), so no subgroup writes the
    # tail X[1:]: it is centered once, by its population mean 0 or its row means
    tail = X[1:]
    tail_bar = np.zeros(shape.p - 1)
    if centering is Centering.EMPIRICAL:
        tail_bar = tail.mean(axis=1)
        tail -= tail_bar[:, None]
    triggers, parts = [], {}
    for k, subgroup in enumerate(subgroups):
        first = subgroup[0][1]
        v = _trigger(shape.p, first.v_norm)
        triggers.append(v)
        head, y_k = X[:1].copy(), y.copy()
        try:
            _poison(head, y_k, first.theta, v[:1], uniforms)
            head, w_tilde, head_bar, w_bar = _center(head, y_k, v[:1], first.theta, centering)
        except PoisonRidgeError:
            continue
        parts[k] = (head[0], w_tilde, np.concatenate((head_bar, tail_bar)), w_bar)
    fits = [{} for _ in subgroups]
    if parts:
        paths = [(system, [params.lam for _, params in subgroups[k]])
                 for k, system in zip(parts, _split_systems(tail, list(parts.values())))]
        for k, fit in zip(parts, _solve_path(paths)):
            fits[k] = fit
    return _TrialFits(subgroups, triggers, fits, rng)


def run_trial_path(points, shape: SimShape, *, centering: Centering = Centering.POPULATION,
                   trial_index: int = 0, m_test: int = 10000) -> list[SweepRecord]:
    """One synthetic trial at each (grid_index, params) of `points`, one row each.

    The points share c.  The data are drawn once and their tail, rows 1:,
    centered once; each (theta, ||v||) subgroup poisons and centers its own
    copy of row 0, where its trigger lies, so under either centering the
    subgroups share the tail, their borders' pass over it and each lambda's
    factor of its Gram (`_path_fits`).  Each row equals bit for bit what
    `run_trial` gives at its point from shape.seed.
    """
    return _trial_records(_path_fits(points, shape, centering), shape, centering, trial_index,
                          m_test)


def run_trial(
    params: ModelParams,
    shape: SimShape,
    *,
    centering: Centering = Centering.POPULATION,
    grid_index: int = 0,
    trial_index: int = 0,
    m_test: int = 10000,
) -> SweepRecord:
    """One full synthetic trial: generate, poison, center, solve, join with theory.

    The one-point case of `run_trial_path`; a failed trial is an error row.
    """
    (record,) = run_trial_path(((grid_index, params),), shape, centering=centering,
                               trial_index=trial_index, m_test=m_test)
    return record
