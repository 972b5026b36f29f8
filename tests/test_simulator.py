"""Simulator tests: generation, poisoning, centering, the ridge solve, efficacy."""

import dataclasses
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from poisonridge import mnist, simulator, sweep, theory
from poisonridge.errors import InvalidLambda, SolveFailure, ThetaOutOfRange
from poisonridge.simulator import Centering, SimShape
from poisonridge.theory import ModelParams


def test_generate_clean_moments():
    X, y = simulator.generate_clean(SimShape(p=4, n=100000, seed=11))
    assert X.shape == (4, 100000)
    assert set(np.unique(y)) == {-1.0, 1.0}
    n = X.shape[1]
    assert np.all(np.abs(X.mean(axis=1)) < 4.0 / math.sqrt(n))
    assert np.all(np.abs(X.var(axis=1) - 1.0) < 0.05)
    assert abs(y.mean()) < 4.0 / math.sqrt(n)


def test_generate_clean_deterministic():
    a = simulator.generate_clean(SimShape(p=10, n=50, seed=3))
    b = simulator.generate_clean(SimShape(p=10, n=50, seed=3))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = simulator.generate_clean(SimShape(p=10, n=50, seed=4))
    assert not np.array_equal(a[0], c[0])


def test_apply_poison_extremes():
    X, y = simulator.generate_clean(SimShape(p=5, n=400, seed=0))
    v = simulator.default_trigger(5, 2.0)

    none = simulator.apply_poison(X, y, 0.0, v, seed=1)
    assert np.array_equal(none.X, X)
    assert np.array_equal(none.y, y)
    assert none.u.sum() == 0

    full = simulator.apply_poison(X, y, 1.0, v, seed=1)
    neg = y < 0
    assert np.array_equal(full.u.astype(bool), neg)
    assert np.all(full.y == 1.0)
    assert np.allclose(full.X[:, neg] - X[:, neg], v[:, None])
    assert np.array_equal(full.X[:, ~neg], X[:, ~neg])


def test_apply_poison_rate_and_support():
    X, y = simulator.generate_clean(SimShape(p=3, n=100000, seed=5))
    theta = 0.1
    ds = simulator.apply_poison(X, y, theta, simulator.default_trigger(3, 1.0), seed=6)
    # poison only ever hits the -1 class
    assert np.all(y[ds.u == 1] == -1.0)
    n_neg = int((y < 0).sum())
    k = int(ds.u.sum())
    sd = math.sqrt(n_neg * theta * (1.0 - theta))
    assert abs(k - n_neg * theta) < 5.0 * sd
    with pytest.raises(ThetaOutOfRange):
        simulator.apply_poison(X, y, 1.5, ds.v, seed=6)
    # the shift writes only the trigger's rows, so a trigger of the wrong length is refused
    for v in (simulator.default_trigger(2, 1.0), simulator.default_trigger(4, 1.0)):
        with pytest.raises(ValueError):
            simulator.apply_poison(X, y, theta, v, seed=6)


def test_population_centering_identity():
    # centered features must equal the clean matrix plus v r^T, r = u - theta/2
    shape = SimShape(p=8, n=300, seed=9)
    X, y = simulator.generate_clean(shape)
    theta = 0.2
    v = simulator.default_trigger(8, 1.5)
    ds = simulator.apply_poison(X, y, theta, v, seed=10)
    X_tilde, w_tilde, x_bar, w_bar = simulator.center(ds, theta)
    r = ds.u - theta / 2.0
    assert np.allclose(X_tilde, X + np.outer(v, r), atol=1e-12)
    assert np.allclose(w_tilde, ds.y - theta, atol=1e-15)
    assert np.allclose(x_bar, (theta / 2.0) * v)
    assert w_bar == theta


def test_empirical_centering_matches_population_mean():
    shape = SimShape(p=6, n=100000, seed=12)
    X, y = simulator.generate_clean(shape)
    theta = 0.1
    v = simulator.default_trigger(6, 1.0)
    ds = simulator.apply_poison(X, y, theta, v, seed=13, centering=Centering.EMPIRICAL)
    X_tilde, w_tilde, x_bar, w_bar = simulator.center(ds, theta)
    assert np.linalg.norm(x_bar - (theta / 2.0) * v) < 5.0 * math.sqrt(6 / shape.n)
    assert abs(w_bar - theta) < 5.0 / math.sqrt(shape.n)
    assert np.allclose(X_tilde.mean(axis=1), 0.0, atol=1e-12)
    assert abs(w_tilde.mean()) < 1e-12


def test_apply_poison_converts_to_float64():
    # integer pixels and float32 features are poisoned in float64, like float64 input
    rng = np.random.default_rng(14)
    X8 = rng.integers(0, 256, size=(6, 40)).astype(np.uint8)
    y = np.where(rng.random(40) < 0.5, -1.0, 1.0)
    v = simulator.default_trigger(6, 0.7)
    for X in (X8, X8.astype(np.float32) / np.float32(3.0)):
        kept = X.copy()
        ds = simulator.apply_poison(X, y, 0.5, v, seed=15)
        ref = simulator.apply_poison(X.astype(np.float64), y, 0.5, v, seed=15)
        assert ds.X.dtype == np.float64
        assert np.array_equal(ds.X, ref.X) and np.array_equal(ds.u, ref.u)
        assert ds.u.sum() > 0
        assert np.array_equal(X, kept) and X.dtype == kept.dtype


def _c_ordered_draw(seed):
    return simulator.generate_clean(SimShape(p=30, n=80, seed=seed))


def _f_ordered_subsample(seed):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(200, 6, 5)).astype(np.uint8)
    labels = np.arange(200, dtype=np.uint8) % 2
    task = mnist.build_binary_task(
        mnist.IdxImages(count=200, rows=6, cols=5, pixels=pixels), labels)
    idx = rng.choice(200, size=120, replace=False)
    X = task.X[:, idx]
    assert X.flags.f_contiguous  # the layout of an mnist trial's subsample
    return X, task.y[idx]


@pytest.mark.parametrize("draw", [_c_ordered_draw, _f_ordered_subsample])
@pytest.mark.parametrize("centering", list(Centering))
def test_subgroup_row_matches_literal_chain(draw, centering):
    # a trial poisons and centers its X in place; the copying public stages
    # must give the same bits, and keep their inputs and the memory order
    X, y = draw(17)
    p, n = X.shape
    params = ModelParams(c=p / n, lam=0.2, theta=0.3, v_norm=1.5)
    v = simulator.default_trigger(p, params.v_norm)
    X_in, y_in = X.copy(order="K"), y.copy()

    rng = simulator._rng_from(18)
    ds = simulator.apply_poison(X, y, params.theta, v, rng, centering=centering)
    ds_X = ds.X.copy(order="K")
    X_tilde, w_tilde, x_bar, w_bar = simulator.center(ds, params.theta)
    sol = simulator.score_statistics(
        simulator.solve_ridge(X_tilde, w_tilde, params.lam, x_bar, w_bar), v)
    eta = simulator.empirical_efficacy(sol, v, 500, rng)

    assert np.array_equal(X, X_in) and np.array_equal(y, y_in)
    assert np.array_equal(ds.X, ds_X)
    for out in (ds.X, X_tilde):
        assert (out.flags.c_contiguous, out.flags.f_contiguous) == (
            X.flags.c_contiguous, X.flags.f_contiguous)

    (row,) = simulator.subgroup_records([(0, params)], SimShape(p=p, n=n, seed=18), centering,
                                        0, 500, simulator._rng_from(18), y, lambda k, _: (X, v))
    assert row.mu_emp == sol.mu_emp
    assert row.sigma2_emp == sol.sigma_sq_emp
    assert row.eta_emp_mc == eta
    assert np.array_equal(y, y_in)
    assert np.array_equal(X, X_tilde)  # X was consumed: it now holds the centered features


def _trial_peak(shape, lams, centering):
    """The traced peak bytes of one trial at theta 0.2, ||v|| 1 and each lambda,
    above its p x n draw."""
    points = [(k, ModelParams(c=shape.c_effective, lam=lam, theta=0.2, v_norm=1.0))
              for k, lam in enumerate(lams)]
    tracemalloc.start()
    try:
        simulator.run_trial_path(points, shape, centering=centering, m_test=1000)
        return tracemalloc.get_traced_memory()[1] - 8 * shape.p * shape.n
    finally:
        tracemalloc.stop()


def test_trial_allocates_no_copy_of_x():
    shape = SimShape(p=200, n=2000, seed=19)
    for centering in Centering:
        assert _trial_peak(shape, (0.1,), centering) < 0.25 * 8 * shape.p * shape.n


def test_lambda_path_holds_at_most_one_gram_fork():
    # each solve consumes its fork of the Gram before the next is copied, so
    # a 4-lambda path holds the Gram and one fork, not four Grams
    shape = SimShape(p=200, n=2000, seed=21)
    many = _trial_peak(shape, (0.01, 0.1, 1.0, 10.0), Centering.POPULATION)
    assert many - _trial_peak(shape, (0.1,), Centering.POPULATION) < 1.5 * shape.p * shape.p * 8


def _sweep_c01_group():
    """The sweep's c = 0.1 draw group, at p = 40: 12 (theta, ||v||) subgroups."""
    grid = sweep.SweepGrid.builtin(p=40, trials=1)
    (group,) = [g for g in sweep.draw_groups(dict(enumerate(grid.points(
        sweep.AxisMode.ONE_AT_A_TIME)))) if g[0][1].c == 0.1]
    assert len({(params.theta, params.v_norm) for _, params in group}) == 12
    return group


def test_sweep_c01_draw_group_forms_one_syrk_per_trial(monkeypatch):
    # the 12 (theta, ||v||) subgroups of the sweep's c = 0.1 group differ only
    # in the trigger's row 0 under population centering, so one syrk of rows
    # 1: serves them all; each subgroup's row 0 is a matvec
    group = _sweep_c01_group()
    calls = []
    gram = simulator._gram
    monkeypatch.setattr(simulator, "_gram", lambda A, scale: calls.append(A.shape) or gram(A, scale))
    records = simulator.run_trial_path(group, simulator.shape_for(40, 0.1, seed=5), m_test=50)
    assert calls == [(39, 400)]
    assert len(records) == len(group) and not any(r.is_error for r in records)


def test_sweep_c01_draw_group_draws_its_flips_once(monkeypatch):
    # the labels are common to every (theta, ||v||) subgroup, and so are the
    # flip uniforms: one trial draws them once, and each subgroup poisons the
    # -1 samples whose uniform is below its theta
    group = _sweep_c01_group()
    seen = []
    poison = simulator._poison

    def record_poison(X, y, theta, v, uniforms):
        seen.append(uniforms)
        return poison(X, y, theta, v, uniforms)

    monkeypatch.setattr(simulator, "_poison", record_poison)
    records = simulator.run_trial_path(group, simulator.shape_for(40, 0.1, seed=5), m_test=50)
    assert len(seen) == 12
    assert all(uniforms is seen[0] for uniforms in seen)
    assert len(records) == len(group) and not any(r.is_error for r in records)


def test_sweep_c01_draw_group_factors_one_tail_per_lambda(monkeypatch):
    # the population-centered subgroups of a draw share rows 1:, so each
    # lambda's factor of the Gram's tail serves every subgroup at it: 6
    # factorizations for the group's 17 solves, each of the 39 x 39 tail
    group = _sweep_c01_group()
    shapes = []
    factor = simulator._factor
    monkeypatch.setattr(simulator, "_factor",
                        lambda G, shift: shapes.append(G.shape) or factor(G, shift))
    records = simulator.run_trial_path(group, simulator.shape_for(40, 0.1, seed=5), m_test=50)
    assert len({params.lam for _, params in group}) == 6
    assert shapes == [(39, 39)] * 6
    assert len(records) == len(group) and not any(r.is_error for r in records)


@pytest.mark.parametrize("centering", list(Centering))
def test_split_solve_ridge_equals_shared_factor_path(centering):
    # each row of a multi-subgroup trial equals, bit for bit, the public
    # stages on its own copy of the draw, ending in a split solve_ridge
    group = _sweep_c01_group()
    shape = simulator.shape_for(40, 0.1, seed=5)
    rows = {r.grid_index: r for r in simulator.run_trial_path(group, shape, centering=centering,
                                                              m_test=50)}
    for grid_index, params in group:
        rng = simulator._rng_from(shape.seed)
        X, y = simulator.generate_clean(shape, rng)
        v = simulator.default_trigger(shape.p, params.v_norm)
        ds = simulator.apply_poison(X, y, params.theta, v, rng, centering=centering)
        X_tilde, w_tilde, x_bar, w_bar = simulator.center(ds, params.theta)
        sol = simulator.score_statistics(
            simulator.solve_ridge(X_tilde, w_tilde, params.lam, x_bar, w_bar), v)
        row = rows[grid_index]
        assert (row.mu_emp, row.sigma2_emp) == (sol.mu_emp, sol.sigma_sq_emp)
        assert row.eta_emp_mc == simulator.empirical_efficacy(sol, v, 50, rng)
        dense = np.linalg.solve(X_tilde @ X_tilde.T / shape.n + params.lam * np.eye(shape.p),
                                X_tilde @ w_tilde / shape.n)
        assert np.allclose(sol.beta, dense, rtol=1e-12, atol=1e-14)


def test_corrupt_solution_is_one_error_row(monkeypatch):
    # a NaN beta and a finite but wrong one, each at one (subgroup, lambda) of
    # the shared path, fail the batched residual guard: each is an error row
    # that keeps its theory columns, and every other row keeps its bytes
    group = _sweep_c01_group()
    shape = simulator.shape_for(40, 0.1, seed=5)
    clean = simulator.run_trial_path(group, shape, m_test=50)
    solve, calls = simulator._solve, []

    def corrupt(system, factor, lam):
        beta = solve(system, factor, lam)
        calls.append(lam)
        if lam == 0.1 and calls.count(0.1) in (3, 11):
            beta = beta + (math.nan if calls.count(0.1) == 3 else 1e-3)
        return beta

    monkeypatch.setattr(simulator, "_solve", corrupt)
    records = simulator.run_trial_path(group, shape, m_test=50)
    bad = [k for k, r in enumerate(records) if r.is_error]
    assert len(bad) == 2 and all(records[k].lam == 0.1 for k in bad)
    for k, (got, want) in enumerate(zip(records, clean, strict=True)):
        if k in bad:
            assert (got.mu_theory, got.sigma2_theory, got.eta_theory, got.C_theory) == (
                want.mu_theory, want.sigma2_theory, want.eta_theory, want.C_theory)
        else:
            assert repr(got.to_row()) == repr(want.to_row())
    # solve_ridge's own guard fails a NaN solution too
    monkeypatch.setattr(simulator, "_solve", lambda system, factor, lam: np.full(5, math.nan))
    X, _ = simulator.generate_clean(SimShape(p=5, n=20, seed=1))
    with pytest.raises(SolveFailure):
        simulator.solve_ridge(X, np.ones(20), 0.1, np.zeros(5), 0.0)


def _huge_trigger_points(c, lams, v_norms=(1e10, 1e50, 1e100)):
    return dict(enumerate(ModelParams(c=c, lam=lam, theta=0.1, v_norm=v_norm)
                          for v_norm in v_norms for lam in lams))


@pytest.mark.parametrize("centering", list(Centering))
@pytest.mark.parametrize("c", [0.5, 2.0])
def test_huge_trigger_norm_solves_are_no_error_rows(centering, c):
    # the residual's rounding grows with ||v||, and so does the guard's bound:
    # correct solves of C-ordered data pass it at any trigger norm
    records = sweep.run_grid(_huge_trigger_points(c, (1e-10, 0.1)), 60, 10, 0, 100,
                             centering=centering)
    assert len(records) == 60 and not any(r.is_error for r in records)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_huge_trigger_norm_rows_agree_with_theory(c):
    # where mu saturates in ||v||, the population-centered means of mu_emp and
    # sigma2_emp over 200 trials are within 4 standard errors of predict
    points = _huge_trigger_points(c, (0.1,))
    records = sweep.run_grid(points, 100, 200, 0, 100)
    for grid_index, params in points.items():
        rows = [r for r in records if r.grid_index == grid_index]
        assert len(rows) == 200 and not any(r.is_error for r in rows)
        pred = theory.predict(params)
        for column, want in (("mu_emp", pred.mu), ("sigma2_emp", pred.sigma_sq)):
            values = np.array([getattr(r, column) for r in rows])
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean() - want) <= 4 * se, (params, column)


@pytest.mark.parametrize("centering", list(Centering))
@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("coordinates", [slice(None), slice(0, 1)], ids=["beta", "beta_0"])
def test_perturbed_solution_is_an_error_row(monkeypatch, centering, c, coordinates):
    # a beta off by 1e-6 relative, with random signs in all of it or only in
    # the trigger's coordinate, fails the guard at a unit and a huge trigger norm
    solve, rng = simulator._solve, np.random.default_rng(7)

    def perturbed(system, factor, lam):
        beta = solve(system, factor, lam)
        beta[coordinates] *= 1.0 + 1e-6 * rng.choice((-1.0, 1.0), beta[coordinates].shape)
        return beta

    monkeypatch.setattr(simulator, "_solve", perturbed)
    records = sweep.run_grid(_huge_trigger_points(c, (1e-10, 0.1), (1.0, 1e50)), 60, 3, 0, 100,
                             centering=centering)
    assert len(records) == 12 and all(r.is_error for r in records)


def _rows_gram_of(X):
    """The Gram that a ridge solve of X factors: its tail, of a split X."""
    p, n = X.shape
    return simulator._rows_gram(simulator._system(X, np.zeros(n), np.zeros(p), 0.0).rows)


def test_bordered_pivot_not_finite_and_positive_is_a_solve_failure():
    X, y = simulator.generate_clean(SimShape(p=5, n=20, seed=2))
    system = simulator._system(X, y, np.zeros(5), 0.0)
    factor = simulator._factor(simulator._rows_gram(system.rows), 0.1)
    assert np.all(np.isfinite(simulator._solve(system, factor, 0.1)))
    for g0 in (-1.0, math.nan, math.inf):
        border = system.border.copy()
        border[0, 0] = g0
        with pytest.raises(SolveFailure):
            simulator._solve(dataclasses.replace(system, border=border), factor, 0.1)


def test_shared_tail_gram_equals_fresh_gram():
    X, _ = simulator.generate_clean(SimShape(p=60, n=300, seed=23))
    tail = _rows_gram_of(X)
    for v_norm in (0.0, 1.0, 3.0):
        Xt = X.copy()
        Xt[0] += v_norm * 0.5  # subgroups differ only in row 0
        fresh, shared = _rows_gram_of(Xt), tail
        assert fresh.flags.f_contiguous and shared.flags.f_contiguous
        assert np.array_equal(fresh, shared)
        dense = np.triu(Xt[1:] @ Xt[1:].T / 300)
        assert np.max(np.abs(np.triu(fresh) - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("centering", list(Centering))
@pytest.mark.parametrize("c", [1.0, 2.0])
def test_f_ordered_huge_trigger_norm_is_solved_split(c, centering):
    # F-ordered data, the layout of an mnist subsample, are split too, so
    # the huge rank-one term of row 0 stays out of the dual tail's factor;
    # a Cholesky factor of the whole dual Gram loses its O(1) part under it
    for seed, v_norm in enumerate((1e6, 1e10, 1e50)):
        shape = simulator.shape_for(60, c, seed)
        rng = simulator._rng_from(shape.seed)
        X, y = simulator.generate_clean(shape, rng)
        v = simulator.default_trigger(shape.p, v_norm)
        ds = simulator.apply_poison(np.asfortranarray(X), y, 0.1, v, rng, centering=centering)
        X_tilde, w_tilde, x_bar, w_bar = simulator.center(ds, 0.1)
        assert X_tilde.flags.f_contiguous and not X_tilde.flags.c_contiguous
        beta = simulator.solve_ridge(X_tilde, w_tilde, 0.1, x_bar, w_bar).beta
        want = _dense_primal_beta(X_tilde, w_tilde, 0.1)
        assert np.max(np.abs(beta - want)) <= 1e-10 * np.max(np.abs(want)), v_norm


@pytest.mark.parametrize("n", [1, 7])
def test_one_feature_is_a_bordered_pivot_on_an_empty_tail(n):
    # p = 1: rows 1: are empty, so beta is row 0's bordered pivot alone
    x, w = np.random.default_rng(n).standard_normal((2, n))
    for X in (x[None, :], np.asfortranarray(x[None, :])):
        beta = simulator.solve_ridge(X, w, 0.1, np.zeros(1), 0.0).beta
        assert beta.shape == (1,)
        assert np.isclose(beta[0], (x @ w / n) / (x @ x / n + 0.1), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_one_feature_trials_are_no_error_rows(c):
    points = dict(enumerate(ModelParams(c=c, lam=lam, theta=theta, v_norm=1.0)
                            for theta in (0.1, 0.5) for lam in (1e-3, 0.1)))
    records = sweep.run_grid(points, 1, 3, 0, 50)
    assert len(records) == 12 and not any(r.is_error for r in records)


@pytest.mark.parametrize("p, n", [(20, 200), (40, 400), (500, 5000)])
def test_panel_borders_equal_each_systems_own(p, n):
    # the borders of K subgroups, formed in one pass over the shared rows 1:,
    # have the bits of each subgroup's lone `_system` border
    X, y = simulator.generate_clean(SimShape(p=p, n=n, seed=p))
    rng = np.random.default_rng(p)
    parts = [(X[0] + shift * rng.standard_normal(n), y - shift, np.zeros(p), 0.0)
             for shift in (0.0, 0.5, 2.0, 1e3)]
    systems = simulator._split_systems(X[1:], parts)
    assert (len(simulator._panels(X[1:])) > 1) == (p == 500)  # 1 MiB panels of rows
    for system, (head, w_tilde, *_) in zip(systems, parts, strict=True):
        X_k = X.copy()
        X_k[0] = head
        alone = simulator._system(X_k, w_tilde, np.zeros(p), 0.0)
        assert np.array_equal(system.border, alone.border)
        assert np.array_equal(system.rhs, alone.rhs)
        dense = X_k @ np.stack((head, w_tilde), axis=1) / n
        assert np.allclose(system.border, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())


def _dense_primal_beta(X_tilde, w_tilde, lam):
    """beta of the dense p x p primal system, by Gaussian elimination in
    50-digit decimal arithmetic on the exact binary values of its inputs."""
    p, n = X_tilde.shape
    with localcontext() as ctx:
        ctx.prec = 50
        X = [[Decimal(x) for x in row] for row in X_tilde.tolist()]
        w = [Decimal(x) for x in w_tilde.tolist()]
        A = [[sum(a * b for a, b in zip(X[i], X[j])) / n + (Decimal(lam) if i == j else 0)
              for j in range(p)] + [sum(a * b for a, b in zip(X[i], w)) / n] for i in range(p)]
        for k in range(p):  # positive definite: no pivoting
            for i in range(k + 1, p):
                f = A[i][k] / A[k][k]
                A[i] = [a - f * b for a, b in zip(A[i], A[k])]
        beta = [Decimal(0)] * p
        for i in reversed(range(p)):
            beta[i] = (A[i][p] - sum(A[i][j] * beta[j] for j in range(i + 1, p))) / A[i][i]
        return np.array([float(b) for b in beta])


@pytest.mark.parametrize("lam", [1e-10, 0.1])
@pytest.mark.parametrize("centering", list(Centering))
def test_dual_split_solve_matches_dense_primal(centering, lam):
    # a C-ordered draw at p > n is split: a shared tail factor of the dual
    # Gram of rows 1:, row 0 as a rank-one term.  The oracle is the dense
    # primal system in 50 digits: in float64 its condition number is 1/lam,
    # and at lam = 1e-10 np.linalg.solve of it is accurate to only ~1e-4
    for seed in range(3):
        shape = simulator.shape_for(20, 2.0, seed)
        rng = simulator._rng_from(shape.seed)
        X, y = simulator.generate_clean(shape, rng)
        v = simulator.default_trigger(shape.p, 1.5)
        ds = simulator.apply_poison(X, y, 0.3, v, rng, centering=centering)
        X_tilde, w_tilde, x_bar, w_bar = simulator.center(ds, 0.3)
        assert shape.p > shape.n
        sol = simulator.solve_ridge(X_tilde, w_tilde, lam, x_bar, w_bar)
        want = _dense_primal_beta(X_tilde, w_tilde, lam)
        assert np.allclose(sol.beta, want, rtol=1e-12, atol=1e-14)


def test_guard_at_an_overflowing_trigger_norm_refuses_or_keeps_an_accurate_beta():
    # at ||v|| = 1e154 and c = 2, ||x~_0||^2 overflows; the guard takes ||x~_0||
    # on x~_0 / max|x~_0| and refuses a beta whose bound is not finite, so a
    # trial's beta either fails or matches a 50-digit solve, and nothing warns
    params = ModelParams(c=2.0, lam=0.1, theta=0.1, v_norm=1e154)
    for t in range(10):
        shape = simulator.shape_for(20, params.c, simulator.trial_seed(0, 0, t))
        rng = simulator._rng_from(shape.seed)
        X, y = simulator.generate_clean(shape, rng)
        v = simulator.default_trigger(shape.p, params.v_norm)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ds = simulator.apply_poison(X, y, params.theta, v, rng)
            X_tilde, w_tilde, x_bar, w_bar = simulator.center(ds, params.theta)
            try:
                beta = simulator.solve_ridge(X_tilde, w_tilde, params.lam, x_bar, w_bar).beta
            except SolveFailure:
                continue
        want = _dense_primal_beta(X_tilde, w_tilde, params.lam)
        assert np.max(np.abs(beta - want)) <= 1e-10 * np.max(np.abs(want)), t


def test_bordered_pivot_at_an_overflowing_trigger_norm_is_accurate():
    # at ||v|| = 1e154 and c = 0.1, ||x~_0||^2 overflows but ||x~_0||^2 / n
    # does not: the border's row 0 is formed on x~_0 / 2^e, so every trial
    # solves, nothing warns, and beta matches a 50-digit solve
    params = ModelParams(c=0.1, lam=0.1, theta=0.1, v_norm=1e154)
    for t in range(3):
        shape = simulator.shape_for(20, params.c, simulator.trial_seed(0, 0, t))
        rng = simulator._rng_from(shape.seed)
        X, y = simulator.generate_clean(shape, rng)
        v = simulator.default_trigger(shape.p, params.v_norm)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ds = simulator.apply_poison(X, y, params.theta, v, rng)
            X_tilde, w_tilde, x_bar, w_bar = simulator.center(ds, params.theta)
            beta = simulator.solve_ridge(X_tilde, w_tilde, params.lam, x_bar, w_bar).beta
        with np.errstate(over="ignore"):
            assert X_tilde[0] @ X_tilde[0] == math.inf
        want = _dense_primal_beta(X_tilde, w_tilde, params.lam)
        assert np.max(np.abs(beta - want)) <= 1e-10 * np.max(np.abs(want)), t


@pytest.mark.parametrize("lam", [1e-14, 1e-10])
def test_square_tail_is_solved_dual(lam):
    # at p = n + 1 rows 1: are square; the split solve takes the dual form,
    # in C and in F order, whose beta stays close to the oracle at tiny
    # lambda; a bordered primal row 0 there lost 1e-3 of mu_emp at lambda = 1e-14
    for seed in range(3):
        X, y = simulator.generate_clean(SimShape(p=21, n=20, seed=seed))
        want = _dense_primal_beta(X, y, lam)
        for data in (X, np.asfortranarray(X)):
            beta = simulator.solve_ridge(data, y, lam, np.zeros(21), 0.0).beta
            assert np.max(np.abs(beta - want)) <= 1e-10 * np.max(np.abs(want))


def test_rank_one_pivot_not_finite_and_positive_is_that_rows_solve_failure():
    X, y = simulator.generate_clean(SimShape(p=30, n=12, seed=3))
    system = simulator._system(X, y, np.zeros(30), 0.0)
    assert system.head is not None and system.rows.shape[0] > system.rows.shape[1]
    lams = (0.01, 0.1)
    (alone,) = simulator._solve_path([(system, lams)])
    assert all(isinstance(fit, simulator.RidgeSolution) for fit in alone.values())
    # NaN, and a head whose h . K^-1 h overflows to inf
    for head in (np.full(12, math.nan), np.full(12, 1e200)):
        bad = dataclasses.replace(system, head=head)
        with pytest.raises(SolveFailure, match="rank-one pivot"):
            simulator._solve(bad, simulator._factor(_rows_gram_of(X), 0.1), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits, kept = simulator._solve_path([(bad, lams), (system, lams)])
        assert all(isinstance(fit, SolveFailure) for fit in fits.values())
        for lam in lams:
            assert np.array_equal(kept[lam].beta, alone[lam].beta)


def test_tiny_lambda_dual_solve_matches_interpolator_theory():
    # c = 2 at lambda = 1e-10: the n x n dual solve, near the minimum-norm
    # interpolator, against the ridgeless limit above c = 1, with the
    # tolerances of acceptance criteria 4 (mu) and 5 (sigma^2)
    params = ModelParams(c=2.0, lam=1e-10, theta=0.1, v_norm=1.0)
    limit = theory.predict_ridgeless(ModelParams(c=2.0, lam=0.0, theta=0.1, v_norm=1.0))
    records = sweep.run_grid({0: params}, 400, 40, 0, 50)
    assert records[0].n == 200 and not any(r.is_error for r in records)
    mus = np.array([r.mu_emp for r in records])
    s2s = np.array([r.sigma2_emp for r in records])
    se_mu = mus.std(ddof=1) / math.sqrt(len(mus))
    se_s2 = s2s.std(ddof=1) / math.sqrt(len(s2s))
    assert abs(mus.mean() - limit.mu) <= max(4.0 * se_mu, 0.02 * limit.mu)
    assert abs(s2s.mean() - limit.sigma_sq) <= max(4.0 * se_s2, 0.05 * limit.sigma_sq)


def test_solve_ridge_explicit_inverse():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((3, 5))
    w = rng.standard_normal(5)
    lam = 0.3
    n = 5
    expected = np.linalg.solve(X @ X.T / n + lam * np.eye(3), X @ w / n)
    sol = simulator.solve_ridge(X, w, lam, x_bar=np.zeros(3), w_bar=0.25)
    assert np.allclose(sol.beta, expected, atol=1e-12)
    assert sol.b0 == pytest.approx(0.25 - expected @ np.zeros(3))
    assert sol.sigma_sq_emp == pytest.approx(float(expected @ expected), rel=1e-12)


def test_solve_ridge_zero_labels():
    sol = simulator.solve_ridge(np.eye(4), np.zeros(4), 0.5, np.zeros(4), w_bar=0.7)
    assert np.allclose(sol.beta, 0.0)
    assert sol.b0 == 0.7


def test_solve_ridge_primal_dual_agree():
    rng = np.random.default_rng(22)
    for p, n in ((40, 90), (90, 40)):
        X = rng.standard_normal((p, n))
        w = rng.standard_normal(n)
        lam = 0.05
        primal = np.linalg.solve(X @ X.T / n + lam * np.eye(p), X @ w / n)
        dual = X @ np.linalg.solve(X.T @ X / n + lam * np.eye(n), w) / n
        assert np.allclose(primal, dual, atol=1e-10)
        sol = simulator.solve_ridge(X, w, lam, np.zeros(p), 0.0)
        assert np.allclose(sol.beta, primal, atol=1e-10)


def test_solve_ridge_large_penalty_shrinks():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((10, 30))
    w = rng.standard_normal(30)
    small = simulator.solve_ridge(X, w, 0.01, np.zeros(10), 0.0)
    big = simulator.solve_ridge(X, w, 100.0, np.zeros(10), 0.0)
    assert big.sigma_sq_emp < small.sigma_sq_emp
    # beta -> (1/(n lam)) X w as lam -> inf
    assert np.allclose(big.beta, X @ w / (30 * 100.0), rtol=0.2)
    with pytest.raises(InvalidLambda):
        simulator.solve_ridge(X, w, 0.0, np.zeros(10), 0.0)


def test_norm_identity_via_gram_resolvent():
    # ||beta||^2 = (1/n) w^T (z Qt^2 + Qt) w at z = -lam, Qt the Gram resolvent
    rng = np.random.default_rng(24)
    p, n, lam = 60, 100, 0.1
    X = rng.standard_normal((p, n))
    w = rng.standard_normal(n)
    sol = simulator.solve_ridge(X, w, lam, np.zeros(p), 0.0)
    Qt = np.linalg.inv(X.T @ X / n + lam * np.eye(n))
    z = -lam
    quad = float(w @ (z * (Qt @ Qt) + Qt) @ w) / n
    assert sol.sigma_sq_emp == pytest.approx(quad, rel=1e-8)


def test_empirical_efficacy_exact_gaussian():
    # beta = K v/||v|| gives score N(K||v||, K^2), so eta = Phi(||v||)
    p = 7
    v = np.zeros(p)
    v[2] = 3.0
    beta = 0.4 * v / np.linalg.norm(v)
    sol = simulator.RidgeSolution(beta=beta, b0=0.0, mu_emp=float(beta @ v),
                                  sigma_sq_emp=float(beta @ beta))
    m_test = 200000
    eta = simulator.empirical_efficacy(sol, v, m_test, seed=31)
    target = theory.normal_cdf(3.0)
    assert abs(eta - target) < 4.0 * math.sqrt(target * (1 - target) / m_test) + 1e-4


def test_empirical_efficacy_zero_beta():
    sol = simulator.RidgeSolution(beta=np.zeros(4), b0=0.0, mu_emp=0.0, sigma_sq_emp=0.0)
    assert simulator.empirical_efficacy(sol, np.ones(4), 1000, seed=1) == 0.0
    with pytest.raises(ValueError):
        simulator.empirical_efficacy(sol, np.ones(4), 0, seed=1)


def _literal_efficacy(solution, v, m_test, seed):
    """The m_test x p Gaussian estimator: score fresh test points one by one."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x0 = rng.standard_normal((m_test, solution.beta.shape[0]))
    shift = float(solution.beta @ np.asarray(v, dtype=np.float64))
    return int(np.count_nonzero(x0 @ solution.beta + shift > 0.0)) / m_test


def _solution(beta):
    beta = np.asarray(beta, dtype=np.float64)
    return simulator.RidgeSolution(beta=beta, b0=0.0, mu_emp=math.nan,
                                   sigma_sq_emp=float(beta @ beta))


def _moment_z(a, b):
    """Two-sample z statistics for the means and the variances of a and b."""
    def var_of_var(x):
        d = x - x.mean()
        return (np.mean(d ** 4) - np.var(x) ** 2) / len(x)
    z_mean = (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    z_var = (a.var(ddof=1) - b.var(ddof=1)) / math.sqrt(var_of_var(a) + var_of_var(b))
    return z_mean, z_var


@pytest.mark.parametrize("beta, v", [
    ([0.3, -0.2, 0.1, 0.0, 0.5, -0.4, 0.2], [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    ([0.1, 0.1, -0.1, 0.2, 0.0, 0.0, 0.3], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    ([0.2, 0.0, 0.0, 0.1, 0.0, -0.1, 0.0], [-1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
    ([0.05, 0.02, 0.0, 0.0, 0.0, 0.0, 0.01], [1.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
])
def test_empirical_efficacy_matches_literal_draw(beta, v):
    # the Binomial hit count and the literal m_test x p draw agree in distribution
    sol, m_test, seeds = _solution(beta), 40, 400
    fast = np.array([simulator.empirical_efficacy(sol, v, m_test, s) for s in range(seeds)])
    slow = np.array([_literal_efficacy(sol, v, m_test, s + seeds) for s in range(seeds)])
    q = theory.efficacy(float(sol.beta @ np.asarray(v)), sol.sigma_sq_emp)
    for est in (fast, slow):
        assert abs(est.mean() - q) < 4.0 * math.sqrt(q * (1 - q) / (m_test * seeds))
    z_mean, z_var = _moment_z(fast * m_test, slow * m_test)
    assert abs(z_mean) < 4.0 and abs(z_var) < 4.0


@pytest.mark.parametrize("beta_0, v_0, expected", [
    (1e-170, 1e170, 1.0),    # ||beta||^2 rounds to 0 while beta . v = 1 > 0
    (1e-170, -1e170, 0.0),   # beta . v = -1 < 0
    (0.0, 1.0, 0.0),         # beta = 0: the score is exactly 0, and a tie is not a hit
])
def test_empirical_efficacy_degenerate_beta(beta_0, v_0, expected):
    beta, v = np.zeros(5), np.zeros(5)
    beta[0], v[0] = beta_0, v_0
    sol = _solution(beta)
    assert sol.sigma_sq_emp == 0.0
    assert simulator.empirical_efficacy(sol, v, 1000, seed=2) == expected
    assert _literal_efficacy(sol, v, 1000, seed=2) == expected


def test_empirical_efficacy_tiny_beta_zero_shift():
    # ||beta||^2 underflows to 0, yet beta != 0: the score is N(0, ||beta||^2),
    # a fair coin, not the constant 0
    sol, v, m_test = _solution([1e-170, 0.0, 0.0]), np.zeros(3), 10000
    for eta in (simulator.empirical_efficacy(sol, v, m_test, seed=4),
                _literal_efficacy(sol, v, m_test, seed=4)):
        assert abs(eta - 0.5) < 4.0 * 0.5 / math.sqrt(m_test)


def test_empirical_efficacy_memory_independent_of_m_test():
    # the literal draw at m_test = 1e9 would need 4 TB; the hit count needs O(p)
    rng = np.random.default_rng(5)
    sol, v = _solution(rng.standard_normal(500) / 20.0), rng.standard_normal(500)
    m_test = 10 ** 9
    tracemalloc.start()
    try:
        eta = simulator.empirical_efficacy(sol, v, m_test, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    q = theory.efficacy(float(sol.beta @ v), sol.sigma_sq_emp)
    assert abs(eta - q) < 6.0 * math.sqrt(q * (1 - q) / m_test)


def test_run_trial_all_poisoned_efficacies_agree():
    # theta = 1 flips every label, so beta = 0 and the score is exactly zero:
    # theory, plug-in and Monte Carlo efficacy must all read 0
    params = ModelParams(c=0.5, lam=0.1, theta=1.0, v_norm=1.0)
    rec = simulator.run_trial(params, SimShape(p=20, n=40, seed=3), m_test=100)
    assert rec.sigma2_emp == 0.0
    assert rec.eta_emp_mc == rec.eta_emp_plugin == rec.eta_theory == 0.0


def test_run_trial_deterministic():
    params = ModelParams(c=0.5, lam=0.1, theta=0.1, v_norm=1.0)
    shape = SimShape(p=50, n=100, seed=77)
    a = simulator.run_trial(params, shape, m_test=500)
    b = simulator.run_trial(params, shape, m_test=500)
    assert a.mu_emp == b.mu_emp
    assert a.sigma2_emp == b.sigma2_emp
    assert a.eta_emp_mc == b.eta_emp_mc
    assert a.mu_theory == b.mu_theory
    assert not a.is_error


def test_run_trial_clean_has_no_alignment():
    params = ModelParams(c=0.5, lam=0.1, theta=0.0, v_norm=1.0)
    mus = [
        simulator.run_trial(params, SimShape(p=50, n=100, seed=s), m_test=100).mu_emp
        for s in range(30)
    ]
    mus = np.array(mus)
    assert abs(mus.mean()) < 4.0 * mus.std(ddof=1) / math.sqrt(len(mus))


def test_rotation_invariance_of_alignment():
    # the trigger direction is immaterial: e1 and a random unit vector agree
    rng = np.random.default_rng(41)
    p, n, lam, theta = 80, 400, 0.1, 0.1
    v1 = simulator.default_trigger(p, 1.0)
    v2 = rng.standard_normal(p)
    v2 /= np.linalg.norm(v2)

    def mean_mu(v, base_seed):
        vals = []
        for s in range(60):
            X, y = simulator.generate_clean(SimShape(p=p, n=n, seed=base_seed + s))
            ds = simulator.apply_poison(X, y, theta, v, seed=base_seed + 1000 + s)
            Xt, wt, xb, wb = simulator.center(ds, theta)
            sol = simulator.score_statistics(simulator.solve_ridge(Xt, wt, lam, xb, wb), v)
            vals.append(sol.mu_emp)
        return np.array(vals)

    a, b = mean_mu(v1, 0), mean_mu(v2, 5000)
    pooled_se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    assert abs(a.mean() - b.mean()) < 4.0 * pooled_se


def test_trial_rng_streams_are_stable():
    a = simulator.trial_rng(0, 3, 7).standard_normal(4)
    b = simulator.trial_rng(0, 3, 7).standard_normal(4)
    c = simulator.trial_rng(0, 3, 8).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_shape_for_rounds_n():
    s = simulator.shape_for(500, 0.3, seed=1)
    assert s.n == 1667
    assert s.c_effective == pytest.approx(500 / 1667)
    with pytest.raises(ValueError):
        SimShape(p=0, n=10, seed=1)
