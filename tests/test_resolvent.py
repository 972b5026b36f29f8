"""Spiked-resolvent lab tests: dense resolvents, coefficients, Woodbury updates."""

import inspect
import math
import os
import threading
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from poisonridge import blas, mp, resolvent, simulator, theory
from poisonridge.errors import InnerSingular, InvalidShape, NonNegativeZ, SolveFailure
from poisonridge.theory import ModelParams


def _e1(dim):
    e = np.zeros(dim)
    e[0] = 1.0
    return e


def test_build_spiked_structure():
    Z = resolvent.build_spiked(p=6, n=9, tau=2.0, seed=4)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    X = rng.standard_normal((6, 9))
    expected = X.copy()
    expected[0, 0] = X[0, 0] + 2.0 * math.sqrt(9)
    assert np.array_equal(Z, expected)
    assert np.array_equal(resolvent.build_spiked(6, 9, 0.0, 4), X)


def test_experiment_validation():
    # z >= 0 is refused before any draw
    for z in (0.0, 0.5):
        with pytest.raises(NonNegativeZ):
            resolvent.spiked_draw_checks(c=0.5, tau=1.0, z=z, p=4, seed=0)


def test_feature_resolvent_small_exact():
    Z = np.array([[1.0, 2.0], [0.0, 1.0]])
    z = -0.5
    n = 2
    M = Z @ Z.T / n
    Q = resolvent.feature_resolvent(Z, z)
    assert np.allclose(Q, np.linalg.inv(M - z * np.eye(2)), atol=1e-12)
    assert np.allclose(Q, Q.T)
    Qg = resolvent.gram_resolvent(Z, z)
    assert np.allclose(Qg, np.linalg.inv(Z.T @ Z / n - z * np.eye(2)), atol=1e-12)
    with pytest.raises(NonNegativeZ):
        resolvent.feature_resolvent(Z, 0.0)
    with pytest.raises(ValueError):
        resolvent.feature_resolvent(np.zeros((900, 10)), -0.5)


def test_trace_matches_transforms():
    # (1/p) tr Q1 -> m(z) and (1/n) tr Qt1 -> mtilde(z) without a spike
    c, z, p = 0.5, -0.5, 400
    n = round(p / c)
    Z = resolvent.build_spiked(p, n, 0.0, seed=17)
    m_emp = float(np.trace(resolvent.feature_resolvent(Z, z))) / p
    mt_emp = float(np.trace(resolvent.gram_resolvent(Z, z))) / n
    assert abs(m_emp - mp.mp_stieltjes(c, z)) < 5.0 / math.sqrt(p)
    assert abs(mt_emp - mp.mp_companion(c, z)) < 5.0 / math.sqrt(p)


def test_coefficients_tau_zero():
    c, z = 0.5, -0.5
    t = mp.transforms(c, z)
    assert resolvent.det_equiv_feature(c, 0.0, z) == pytest.approx(t.m)
    assert resolvent.det_equiv_feature_squared(c, 0.0, z) == (
        pytest.approx(t.m_prime)
    )
    assert resolvent.det_equiv_gram(c, 0.0, z) == pytest.approx(t.m_tilde)
    assert resolvent.det_equiv_gram_squared(c, 0.0, z) == (
        pytest.approx(t.m_tilde_prime)
    )


def test_squared_forms_are_z_derivatives():
    # Q' = Q^2, so each squared form is the z-derivative of its plain form;
    # a central difference of the plain form checks `theory.spike_squared`
    # independently, on both sides, at the tau of the variance derivation
    for c, lam, th in ((0.1, 0.1, 0.1), (0.5, 0.05, 0.2), (1.5, 0.5, 0.05)):
        tau = math.sqrt(theory.tau_squared(ModelParams(c=c, lam=lam, theta=th, v_norm=1.0)))
        for plain, squared in ((resolvent.det_equiv_feature, resolvent.det_equiv_feature_squared),
                               (resolvent.det_equiv_gram, resolvent.det_equiv_gram_squared)):
            h = 1e-4 * lam
            slope = (plain(c, tau, -lam + h) - plain(c, tau, -lam - h)) / (2.0 * h)
            assert squared(c, tau, -lam) == pytest.approx(slope, rel=1e-7)


def test_quadratic_forms_concentrate():
    # single largish draw of every check lands near its predicted limit
    rows = resolvent.spiked_draw_checks(c=0.5, tau=1.0, z=-0.5, p=300, seed=3)
    for check in resolvent.ALL_CHECKS:
        row = rows[check]
        scale = max(1.0, abs(row["predicted"]))
        assert row["abs_error"] < 0.3 * scale
        assert row["n"] == 600


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_quadratic_form_check_matches_dense_inverse(c):
    # the solve-based observed value equals a.Q.a / a.Q^2.a from the dense oracle
    tau, z = 1.0, -0.5
    for p in (30, 60):
        n = round(p / c)
        for seed in (0, 5, 11):
            Z = resolvent.build_spiked(p, n, tau, seed)
            Q1 = resolvent.feature_resolvent(Z, z)
            Qt = resolvent.gram_resolvent(Z, z)
            a, b = _e1(p), _e1(n)
            dense = {
                "feature": a @ Q1 @ a,
                "feature_sq": a @ (Q1 @ Q1) @ a,
                "gram": b @ Qt @ b,
                "gram_sq": b @ (Qt @ Qt) @ b,
            }
            rows = resolvent.spiked_draw_checks(c, tau, z, p, seed)
            for check in resolvent.ALL_CHECKS:
                row = rows[check]
                assert row["n"] == n
                assert row["observed"] == pytest.approx(dense[check], rel=1e-12)


def test_quadratic_form_check_residual_guard(monkeypatch):
    # every solve is checked; a residual above the tolerance is a SolveFailure
    monkeypatch.setattr(simulator, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(SolveFailure):
        resolvent.spiked_draw_checks(0.5, 1.0, -0.5, 20, 0)


def _decimal_forms(p, n, tau, seed, z):
    """Every check's observed form of one draw, from w = ((1/n) A A^T - z I)^-1 e1
    by Gaussian elimination in 50-digit decimal arithmetic on the exact binary
    values of the spiked draw and z: A = Z on the feature side, Z^T on the Gram side."""
    Z = resolvent.build_spiked(p, n, tau, seed)
    forms = {}
    with localcontext() as ctx:
        ctx.prec = 50
        for side, A in (("feature", Z), ("gram", Z.T)):
            dim = A.shape[0]
            rows = [[Decimal(x) for x in row] for row in A.tolist()]
            M = [[sum(a * b for a, b in zip(rows[i], rows[j])) / n - (Decimal(z) if i == j else 0)
                  for j in range(dim)] + [Decimal(int(i == 0))] for i in range(dim)]
            for k in range(dim):  # positive definite: no pivoting
                for i in range(k + 1, dim):
                    f = M[i][k] / M[k][k]
                    M[i] = [a - f * b for a, b in zip(M[i], M[k])]
            w = [Decimal(0)] * dim
            for i in reversed(range(dim)):
                w[i] = (M[i][dim] - sum(M[i][j] * w[j] for j in range(i + 1, dim))) / M[i][i]
            forms[side], forms[f"{side}_sq"] = float(w[0]), float(sum(x * x for x in w))
    return forms


@pytest.mark.parametrize("c,p,tau,z", [
    (0.5, 20, 1.0, -1e-6), (0.5, 20, 1.0, -1e-10),
    (0.5, 20, 1e3, -0.5), (0.5, 20, 1e6, -0.5), (0.5, 20, 1e8, -0.5),
    (2.0, 20, 1e3, -0.5), (2.0, 20, 1e6, -0.5), (2.0, 20, 1e8, -0.5),
    (2.0, 20, 1.0, -1e-10),
    (0.5, 1, 1.0, -0.5), (2.0, 2, 1.0, -0.5),
])
def test_rows_match_a_decimal_solve(c, p, tau, z):
    # near the ridgeless end, at a strong spike, at c > 1 where the p x p side
    # is singular up to |z|, and with an empty tail (p = 1, and n = 1 at
    # p = 2), the checked solves pass the residual check and are accurate
    rows = resolvent.convergence_table(c, tau, z, [p], n_seeds=3)
    draws = {(row["n"], row["seed"]) for row in rows}
    forms = {seed: _decimal_forms(p, n, tau, seed, z) for n, seed in draws}
    for row in rows:
        assert row["observed"] == pytest.approx(forms[row["seed"]][row["check_name"]], rel=1e-12)


def _perturb_solves(monkeypatch, delta, seed):
    """Scale each entry of every solve by a draw's factor, the bordered one
    (`simulator._solve`) and the other side's (`blas.potrs`), by 1 + delta N(0, 1)."""
    rng = np.random.default_rng(seed)

    def perturb(module, name):
        solve = getattr(module, name)

        def perturbed(*args):
            x = solve(*args)
            return x * (1.0 + delta * rng.standard_normal(x.shape))
        monkeypatch.setattr(module, name, perturbed)
    perturb(simulator, "_solve")
    perturb(blas, "potrs")


@pytest.mark.parametrize("seed", range(5))
def test_residual_check_refuses_a_perturbed_solve(monkeypatch, seed):
    # at the default point (c = 0.5, tau = 1, z = -0.5, p = 100) a solve off by
    # 1e-8 relative is refused, where the same draw unperturbed passes
    resolvent.spiked_draw_checks(0.5, 1.0, -0.5, 100, seed)
    _perturb_solves(monkeypatch, 1e-8, seed)
    with pytest.raises(SolveFailure):
        resolvent.spiked_draw_checks(0.5, 1.0, -0.5, 100, seed)


@pytest.mark.parametrize("c,tau,z", [(1.0, 1.0, -1e-10), (0.5, 1e160, -0.5), (2.0, 1e160, -0.5),
                                     (0.5, 1.0, -1e-320)])
def test_residual_check_refuses_inaccurate_solves(c, tau, z):
    # at c = 1, z = -1e-10 the other side's Gram is singular up to |z| and the
    # push-through loses too much; at a spike of 1e160 the pivot's g_0
    # overflows; at z = -1e-320 the other side's vector overflows; each is
    # refused without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolveFailure):
            resolvent.convergence_table(c, tau, z, [20], n_seeds=3)


def test_convergence_table_rejects_bad_shapes():
    for c in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(InvalidShape):
            resolvent.convergence_table(c=c, tau=1.0, z=-0.5, sizes=[10], n_seeds=1)
    with pytest.raises(InvalidShape):
        resolvent.convergence_table(c=0.5, tau=1.0, z=-0.5, sizes=[10, 0], n_seeds=1)


def test_woodbury_sherman_morrison():
    rng = np.random.default_rng(8)
    A = np.eye(5) + 0.1 * rng.standard_normal((5, 5))
    A = A @ A.T + np.eye(5)
    u = rng.standard_normal((5, 1))
    v = rng.standard_normal((5, 1))
    A_inv = np.linalg.inv(A)
    apply_upd = resolvent.woodbury_update(lambda x: A_inv @ x, u, v)
    direct = np.linalg.inv(A + u @ v.T)
    for j in range(5):
        e = np.zeros(5)
        e[j] = 1.0
        assert np.allclose(apply_upd(e), direct @ e, atol=1e-12)


def test_woodbury_guards():
    ident = lambda x: x
    u = np.zeros((4, 1))
    u[0, 0] = 1.0
    with pytest.raises(InnerSingular):
        resolvent.woodbury_update(ident, u, -u)  # inner 1x1 is exactly zero
    with pytest.raises(ValueError):
        resolvent.woodbury_update(ident, np.ones((4, 9)), np.ones((4, 9)))
    with pytest.raises(ValueError):
        resolvent.woodbury_update(ident, np.ones((4, 2)), np.ones((4, 3)))


def test_spike_blocks_reproduce_outer_product():
    # (1/n) Z Z^T - (1/n) X X^T must equal U V^T exactly
    rng = np.random.default_rng(9)
    p, n, tau = 30, 60, 1.3
    X = rng.standard_normal((p, n))
    a, b = _e1(p), _e1(n)
    Z = X + tau * math.sqrt(n) * np.outer(a, b)
    U, V = resolvent.spike_blocks(X, tau, a, b)
    assert U.shape == (p, 3)
    assert np.allclose(Z @ Z.T / n - X @ X.T / n, U @ V.T, atol=1e-12)


def test_reconstruct_spiked_resolvent_matches_dense():
    rng = np.random.default_rng(10)
    p, n, tau, z = 100, 200, 1.0, -0.5
    X = rng.standard_normal((p, n))
    a, b = _e1(p), _e1(n)
    Z = X + tau * math.sqrt(n) * np.outer(a, b)
    dense = resolvent.feature_resolvent(Z, z)
    apply_q = resolvent.reconstruct_spiked_resolvent(X, tau, a, b, z)
    probe = rng.standard_normal((p, 4))
    for j in range(4):
        assert np.max(np.abs(apply_q(probe[:, j]) - dense @ probe[:, j])) <= 1e-10


def test_convergence_table_shape_and_determinism():
    rows = resolvent.convergence_table(c=0.5, tau=1.0, z=-0.5, sizes=[40, 80],
                                       n_seeds=3, master_seed=1)
    assert len(rows) == len(resolvent.ALL_CHECKS) * 2 * 3
    again = resolvent.convergence_table(c=0.5, tau=1.0, z=-0.5, sizes=[40, 80],
                                        n_seeds=3, master_seed=1)
    assert rows == again
    assert all(r["abs_error"] == abs(r["observed"] - r["predicted"]) for r in rows)


def test_convergence_table_draws_and_factors_once_per_size_and_seed(monkeypatch):
    # one draw and one Cholesky per (p, seed) serve all four checks
    calls = {"_rng_from": [], "_factor": []}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)  # an append is atomic on the worker threads
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(simulator, "_rng_from")
    counted(simulator, "_factor")
    rows = resolvent.convergence_table(c=0.5, tau=1.0, z=-0.5, sizes=(100, 200, 400),
                                       n_seeds=20, master_seed=2)
    assert len(rows) == 240
    assert {name: len(args) for name, args in calls.items()} == {"_rng_from": 60,
                                                                 "_factor": 60}


def test_convergence_table_rows_are_draw_lookups():
    c, tau, z, sizes, n_seeds = 0.5, 1.0, -0.5, (40, 80), 3
    rows = resolvent.convergence_table(c, tau, z, sizes, n_seeds, master_seed=1)
    for row in rows:
        assert row == resolvent.spiked_draw_checks(
            c, tau, z, row["p"], row["seed"])[row["check_name"]]
    # rows run check, then p, then seed; the four checks at one (p, s) share a draw
    per_check = len(sizes) * n_seeds
    assert [r["check_name"] for r in rows] == [
        check for check in resolvent.ALL_CHECKS for _ in range(per_check)]
    for i in range(per_check):
        at_ps = rows[i::per_check]
        assert len({(r["p"], r["n"], r["seed"]) for r in at_ps}) == 1


def test_convergence_table_feature_rows_keep_their_seeds():
    # feature rows equal a feature-only table keyed by spawn_key=(0, p, s)
    c, tau, z, sizes, n_seeds, master = 0.5, 1.0, -0.5, (30, 60), 4, 2
    rows = resolvent.convergence_table(c, tau, z, sizes, n_seeds, master_seed=master)
    expected = []
    for p in sizes:
        for s in range(n_seeds):
            seed = int(np.random.SeedSequence(master, spawn_key=(0, p, s)).generate_state(1)[0])
            n = round(p / c)
            Z = resolvent.build_spiked(p, n, tau, seed)
            a = _e1(p)
            observed = float(a @ simulator.gram_cholesky(Z, 1.0 / n, -z)(a))
            predicted = resolvent.det_equiv_feature(c, tau, z)
            # the dense route factors the spiked Gram, so it agrees to rounding
            expected.append(dict(zip(resolvent.CHECK_FIELDS, (
                "feature", p, n, seed, pytest.approx(observed, rel=1e-12), predicted,
                pytest.approx(abs(observed - predicted), abs=1e-12)))))
    assert [r for r in rows if r["check_name"] == "feature"] == expected


def test_checks_predict_at_the_draws_aspect_ratio():
    # p = 10 at c = 0.3 draws n = round(10/0.3) = 33: the predicted forms are
    # the limits at p/n = 10/33, not at c
    rows = resolvent.convergence_table(c=0.3, tau=1.0, z=-0.5, sizes=[10], n_seeds=2)
    assert len(rows) == 8 and all(row["n"] == 33 for row in rows)
    equivalents = {
        "feature": resolvent.det_equiv_feature,
        "feature_sq": resolvent.det_equiv_feature_squared,
        "gram": resolvent.det_equiv_gram,
        "gram_sq": resolvent.det_equiv_gram_squared,
    }
    for row in rows:
        equivalent = equivalents[row["check_name"]]
        assert row["predicted"] == equivalent(10 / 33, 1.0, -0.5)
        assert row["predicted"] != equivalent(0.3, 1.0, -0.5)


# 1, 2 and 15 draws: fewer jobs than, as many as and more than the worker threads
# and the jobs they run ahead
_DRAW_COUNTS = [((30,), 1), ((30,), 2), ((20, 30, 45), 5)]


def _set_usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


@pytest.mark.parametrize("cpus", [(0,), (0, 1)])
@pytest.mark.parametrize("sizes,n_seeds", _DRAW_COUNTS)
def test_convergence_table_equals_draws_one_at_a_time(monkeypatch, cpus, sizes, n_seeds):
    # on worker threads or inline, the rows are those of each draw alone
    _set_usable_cpus(monkeypatch, cpus)
    c, tau, z = 0.5, 1.0, -0.5
    rows = resolvent.convergence_table(c, tau, z, sizes, n_seeds, master_seed=3)
    assert len(rows) == len(resolvent.ALL_CHECKS) * len(sizes) * n_seeds
    for row in rows:
        assert row == resolvent.spiked_draw_checks(
            c, tau, z, row["p"], row["seed"])[row["check_name"]]


def _record_threads(monkeypatch):
    """Wrap every public function of the lab's modules, as perfbench's tracer
    does, and the worker phase's entry, to record the thread of each call:
    name -> thread idents."""
    calls = {}

    def wrap(module, attr, fn):
        def recorded(*args, **kwargs):
            calls.setdefault(f"{module.__name__}.{attr}", []).append(threading.get_ident())
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, recorded)

    for module in (mp, theory, simulator, resolvent):
        for attr, obj in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrap(module, attr, obj)
    wrap(resolvent, "_solves", resolvent._solves)
    return calls


def test_convergence_table_calls_public_functions_on_the_calling_thread_only(monkeypatch):
    # perfbench's tracer keeps one span stack, so the worker threads may call
    # no public function of the traced modules; they run the solves alone
    main = threading.get_ident()
    tables = {}
    for cpus in ((0, 1), (0,)):
        _set_usable_cpus(monkeypatch, cpus)
        with monkeypatch.context() as patch:
            calls = _record_threads(patch)
            tables[cpus] = resolvent.convergence_table(0.5, 1.0, -0.5, (20, 40), 4, master_seed=1)
        solves = calls.pop("poisonridge.resolvent._solves")
        assert len(solves) == 8
        # the rows: the squared feature and Gram predictions of each of the 8 draws
        assert calls["poisonridge.theory.spike_squared"] == [main] * 16
        assert {ident for idents in calls.values() for ident in idents} == {main}
        if len(cpus) > 1:
            assert main not in solves
        else:
            assert set(solves) == {main}
    assert tables[(0, 1)] == tables[(0,)]


@pytest.mark.parametrize("case", ["returns", "refused", "draw_fails"])
def test_convergence_table_leaves_no_thread(monkeypatch, case):
    _set_usable_cpus(monkeypatch, (0, 1))
    drawn, turns = [], []
    failure = MemoryError("third draw")
    # the third job, p = 20 at seed index 2 of master seed 0, fails on its worker
    third = int(np.random.SeedSequence(0, spawn_key=(0, 20, 2)).generate_state(1)[0])
    solves, rows_of = resolvent._solves, resolvent._rows

    def solve(job, tau, z):
        drawn.append(job)
        if case == "draw_fails" and job == (20, 40, third):
            raise failure
        return solves(job, tau, z)

    def rows(job, *args):
        turns.append(job)
        return rows_of(job, *args)
    monkeypatch.setattr(resolvent, "_solves", solve)
    monkeypatch.setattr(resolvent, "_rows", rows)
    before = threading.active_count()
    if case == "returns":
        table = resolvent.convergence_table(0.5, 1.0, -0.5, (20, 30), 3)
        assert len(table) == 24 and len(drawn) == 6
    elif case == "refused":
        # z >= 0 is refused before any draw, and no thread starts
        with pytest.raises(NonNegativeZ):
            resolvent.convergence_table(0.5, 1.0, 0.5, (20, 30), 3)
        assert drawn == []
    else:
        with pytest.raises(MemoryError) as excinfo:
            resolvent.convergence_table(0.5, 1.0, -0.5, (20, 30), 3)
        # raised at its turn: the rows of the two jobs before it were made, no later ones
        assert excinfo.value is failure and len(turns) == 2
    assert threading.active_count() == before
