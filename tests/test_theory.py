"""Closed-form prediction tests: frozen values, identities, limits, monotonicity."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from poisonridge import mp, resolvent, theory
from poisonridge.errors import (
    InterpolationThreshold, InvalidLambda, InvalidTriggerNorm, ThetaOutOfRange,
)
from poisonridge.theory import ModelParams

DEFAULTS = ModelParams(c=0.1, lam=0.1, theta=0.1, v_norm=1.0)

C_GRID = (0.1, 0.3, 0.5, 0.75, 1.25, 1.5, 2.0)
LAM_GRID = (0.001, 0.005, 0.01, 0.05, 0.1, 1.0)
THETA_GRID = (0.01, 0.05, 0.1, 0.2)


def test_predict_frozen_defaults():
    pred = theory.predict(DEFAULTS)
    assert pred.mu == pytest.approx(0.03888018328217879, abs=1e-14)
    assert pred.sigma_sq == pytest.approx(0.08880733712177831, abs=1e-13)
    assert pred.eta == pytest.approx(0.5519019000907041, abs=1e-13)
    assert pred.C_align == pytest.approx(pred.mu, abs=1e-15)  # v_norm = 1


def test_clean_ridge_reduction():
    # theta = 0: no poisoning, mu vanishes and sigma^2 is the pure resolvent term
    for c in (0.1, 0.5, 1.5):
        for lam in (0.01, 0.1, 1.0):
            pred = theory.predict(ModelParams(c=c, lam=lam, theta=0.0, v_norm=1.0))
            t = mp.transforms(c, -lam)
            assert pred.mu == 0.0
            assert pred.eta == 0.5
            assert abs(pred.sigma_sq - (t.m_tilde - lam * t.m_tilde_prime)) <= 1e-12


def test_ridgeless_frozen_values():
    pred = theory.predict_ridgeless(ModelParams(c=0.5, lam=0.0, theta=0.1, v_norm=1.0))
    assert pred.mu == pytest.approx(0.042959427207637235, abs=1e-14)
    assert pred.sigma_sq == pytest.approx(0.9899123381616646, abs=1e-13)


def test_ridgeless_theta_zero_variance():
    for c in (0.1, 0.5, 0.9):
        pred = theory.predict_ridgeless(ModelParams(c=c, lam=0.0, theta=0.0, v_norm=1.0))
        assert pred.sigma_sq == pytest.approx(c / (1.0 - c), rel=1e-14)


def test_ridgeless_divergence_near_threshold():
    lo = theory.predict_ridgeless(ModelParams(c=0.5, lam=0.0, theta=0.1, v_norm=1.0))
    hi = theory.predict_ridgeless(ModelParams(c=0.999, lam=0.0, theta=0.1, v_norm=1.0))
    assert hi.sigma_sq / lo.sigma_sq > 100.0
    with pytest.raises(InterpolationThreshold):
        theory.predict_ridgeless(ModelParams(c=1.0, lam=0.0, theta=0.1, v_norm=1.0))


def test_ridgeless_matches_small_lambda():
    for c in (0.1, 0.5, 0.75):
        for th in (0.05, 0.1):
            for vn in (1.0, 2.0):
                p_lam = theory.predict(ModelParams(c=c, lam=1e-8, theta=th, v_norm=vn))
                p_rl = theory.predict_ridgeless(ModelParams(c=c, lam=0.0, theta=th, v_norm=vn))
                assert p_lam.mu == pytest.approx(p_rl.mu, rel=1e-3)
                assert p_lam.sigma_sq == pytest.approx(p_rl.sigma_sq, rel=1e-3)


@pytest.mark.parametrize("lam", [1e-12, 1e-14])
@pytest.mark.parametrize("c", [0.1, 0.5, 0.9, 1.25, 1.5, 2.0, 5.0])
def test_tiny_lambda_matches_ridgeless(c, lam):
    # S = mtilde + z mtilde' summed term by term cancels two (1 - c)/lambda
    # terms; at lambda = 1e-14 that put sigma^2 16% off its ridgeless limit.
    # Above c = 1 the limit is the minimum-norm interpolator.  The tolerances
    # leave room for predict's true O(lambda/(1 - c)^2) approach to the limit:
    # 2e-10 relative at c = 0.9 and 4e-11 at c = 1.25, at lambda = 1e-12
    rel = 1e-10 if c > 1.0 else 1e-9
    for th, vn in ((0.0, 1.0), (0.05, 0.1), (0.1, 1.0), (0.2, 2.5), (0.5, 4.0), (1.0, 1.0)):
        p_lam = theory.predict(ModelParams(c=c, lam=lam, theta=th, v_norm=vn))
        p_rl = theory.predict_ridgeless(ModelParams(c=c, lam=0.0, theta=th, v_norm=vn))
        for field in ("mu", "sigma_sq", "eta", "C_align"):
            assert getattr(p_lam, field) == pytest.approx(getattr(p_rl, field), rel=rel, abs=0.0)


@pytest.mark.parametrize("lam", [1e-200, 1e-300])
@pytest.mark.parametrize("c", [0.1, 0.5, 0.9, 1.5, 2.0])
def test_vanishing_lambda_predict_is_finite_and_ridgeless(c, lam):
    # mtilde' (c < 1) or m' (c > 1) overflows below lambda ~ 1e-154, but
    # predict reads neither there, so it reaches the ridgeless limit
    for th, vn in ((0.0, 1.0), (0.1, 1.0), (0.5, 4.0), (1.0, 1.0)):
        p_lam = theory.predict(ModelParams(c=c, lam=lam, theta=th, v_norm=vn))
        p_rl = theory.predict_ridgeless(ModelParams(c=c, lam=0.0, theta=th, v_norm=vn))
        for field in ("mu", "sigma_sq", "eta", "C_align"):
            assert getattr(p_lam, field) == pytest.approx(getattr(p_rl, field), rel=1e-12, abs=0.0)


def test_C_align_shape():
    # C = 0 at theta = 0, increases with theta, decreases with lambda
    base = ModelParams(c=0.1, lam=0.1, theta=0.0, v_norm=1.0)
    assert theory.predict(base).C_align == 0.0
    prev = 0.0
    for th in THETA_GRID:
        val = theory.predict(ModelParams(c=0.1, lam=0.1, theta=th, v_norm=1.0)).C_align
        assert val > prev
        prev = val
    vals = [
        theory.predict(ModelParams(c=0.1, lam=lam, theta=0.1, v_norm=1.0)).C_align
        for lam in LAM_GRID
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@settings(max_examples=100, deadline=None)
@given(
    c=st.floats(min_value=0.05, max_value=3.0),
    lam=st.floats(min_value=1e-3, max_value=2.0),
    theta=st.floats(min_value=0.0, max_value=0.5),
    v_norm=st.floats(min_value=0.1, max_value=4.0),
)
def test_mu_is_alignment_times_norm_squared(c, lam, theta, v_norm):
    params = ModelParams(c=c, lam=lam, theta=theta, v_norm=v_norm)
    pred = theory.predict(params)
    assert pred.mu == pytest.approx(pred.C_align * v_norm**2, rel=1e-13, abs=1e-15)
    assert pred.mu >= 0.0
    assert pred.sigma_sq >= 0.0
    assert 0.0 <= pred.eta <= 1.0


def test_tau_squared_arithmetic():
    assert theory.tau_squared(ModelParams(c=0.1, lam=0.1, theta=0.2, v_norm=2.0)) == (
        pytest.approx(0.36, abs=1e-15)
    )
    assert theory.tau_squared(ModelParams(c=0.1, lam=0.1, theta=0.0, v_norm=2.0)) == 0.0


def test_spike_scalars_theta_zero():
    tau_sq = theory.tau_squared(ModelParams(c=0.3, lam=0.05, theta=0.0, v_norm=1.0))
    aux = theory.spike_scalars(0.3, tau_sq, -0.05)
    t = mp.transforms(0.3, -0.05)
    assert aux.tau_sq == 0.0
    assert aux.B == 1.0
    assert resolvent.det_equiv_gram_squared(0.3, 0.0, -0.05) == pytest.approx(
        t.m_tilde_prime, rel=1e-14)
    assert aux.S == pytest.approx(t.m_tilde - 0.05 * t.m_tilde_prime, rel=1e-14)


def _spike_identity_residual(params, z):
    # z*(T - mtilde') - mtilde*(1 - 1/B) must equal S*((a+1)/B^2 - 1): ties
    # the Gram-side squared form T of the resolvent lab to theory's B and S
    aux = theory.spike_scalars(params.c, theory.tau_squared(params), z)
    T = resolvent.det_equiv_gram_squared(params.c, math.sqrt(aux.tau_sq), z)
    t = mp.transforms(params.c, z)
    a = aux.tau_sq / params.c
    lhs = z * (T - t.m_tilde_prime) - t.m_tilde * (1.0 - 1.0 / aux.B)
    rhs = aux.S * ((a + 1.0) / (aux.B * aux.B) - 1.0)
    return abs(lhs - rhs)


def test_spike_scalar_identity_on_grid():
    for c in C_GRID:
        for lam in LAM_GRID:
            for th in THETA_GRID:
                params = ModelParams(c=c, lam=lam, theta=th, v_norm=1.0)
                assert _spike_identity_residual(params, -lam) <= 1e-10


def test_population_moments_enumeration_oracle():
    # exact expectations over the three outcomes of one centered sample:
    # (y_pre=+1, u=0) w.p. 1/2; (y_pre=-1, u=1) w.p. theta/2, label flipped;
    # (y_pre=-1, u=0) w.p. (1-theta)/2
    for theta in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0):
        outcomes = [
            (0.5, 1.0, 0.0),
            (theta / 2.0, -1.0, 1.0),
            ((1.0 - theta) / 2.0, -1.0, 0.0),
        ]
        def ev(fn):
            return sum(w * fn(y_pre, u) for w, y_pre, u in outcomes)

        y_post = lambda y_pre, u: 1.0 if u else y_pre
        r = lambda y_pre, u: u - theta / 2.0
        w_t = lambda y_pre, u: y_post(y_pre, u) - theta

        m = theory.population_moments(theta)
        assert m.s == pytest.approx(ev(lambda y, u: r(y, u) ** 2), abs=1e-15)
        assert m.r_dot_y == pytest.approx(ev(lambda y, u: r(y, u) * y), abs=1e-15)
        assert m.r_dot_w == pytest.approx(ev(lambda y, u: r(y, u) * w_t(y, u)), abs=1e-15)
        assert m.w_norm_sq == pytest.approx(ev(lambda y, u: w_t(y, u) ** 2), abs=1e-14)
        if theta > 0.0:
            expected = ev(lambda y, u: r(y, u) * w_t(y, u)) ** 2 / ev(
                lambda y, u: r(y, u) ** 2
            )
            assert m.w_dot_bhat_sq == pytest.approx(expected, abs=1e-14)
        assert m.x_bar_coeff == theta / 2.0
        assert m.w_bar == theta


def test_population_moments_frozen_at_tenth():
    m = theory.population_moments(0.1)
    assert m.s == pytest.approx(0.0475, abs=1e-15)
    assert m.r_dot_y == pytest.approx(-0.05, abs=1e-15)
    assert m.r_dot_w == pytest.approx(0.045, abs=1e-15)
    assert m.w_norm_sq == pytest.approx(0.99, abs=1e-15)
    assert m.w_dot_bhat_sq == pytest.approx(0.1 * 0.81 / 1.9, abs=1e-15)


def test_normal_cdf_against_quadrature():
    density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    for x in (-2.0, -0.5, 0.0, 1.0, 1.959963984540054):
        ref, _ = quad(density, -12.0, x)
        assert theory.normal_cdf(x) == pytest.approx(ref, abs=1e-12)
    assert theory.normal_cdf(0.0) == 0.5
    assert theory.normal_cdf(-8.0) < 1e-14
    assert theory.normal_cdf(3.0) + theory.normal_cdf(-3.0) == pytest.approx(1.0, abs=1e-15)


def test_small_theta_efficacy_linearity():
    # near theta = 0 the efficacy departs from 1/2 at most linearly
    base = theory.predict(ModelParams(c=0.1, lam=0.1, theta=1e-4, v_norm=1.0))
    K = abs(base.eta - 0.5) / 1e-4
    assert K > 0.0
    for th in (1e-3, 5e-3, 1e-2, 5e-2):
        pred = theory.predict(ModelParams(c=0.1, lam=0.1, theta=th, v_norm=1.0))
        assert abs(pred.eta - 0.5) <= 1.1 * K * th


def test_parameter_validation():
    with pytest.raises(ThetaOutOfRange):
        ModelParams(c=0.1, lam=0.1, theta=1.5, v_norm=1.0)
    with pytest.raises(InvalidLambda):
        ModelParams(c=0.1, lam=-0.1, theta=0.1, v_norm=1.0)
    with pytest.raises(ValueError):
        ModelParams(c=-0.1, lam=0.1, theta=0.1, v_norm=1.0)
    with pytest.raises(ValueError):
        ModelParams(c=0.1, lam=0.1, theta=0.1, v_norm=-1.0)
    with pytest.raises(InvalidLambda):
        theory.predict(ModelParams(c=0.1, lam=0.0, theta=0.1, v_norm=1.0))


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_huge_trigger_norm_reaches_its_limit(c):
    # past ||v|| of about 1e77, B^2 overflows; the spike gain is then -1 to
    # double precision, so mu and sigma^2 stay at their large-||v|| limits
    # up to the largest norm whose square is finite
    preds = [theory.predict(ModelParams(c=c, lam=0.1, theta=0.1, v_norm=vn))
             for vn in (1e50, 1e100, 1e154, theory._SQRT_MAX)]
    for pred in preds:
        assert pred.mu == pytest.approx(preds[0].mu, rel=1e-12)
        assert pred.sigma_sq == pytest.approx(preds[0].sigma_sq, rel=1e-12)
    with pytest.raises(InvalidTriggerNorm):
        ModelParams(c=c, lam=0.1, theta=0.1, v_norm=math.nextafter(theory._SQRT_MAX, math.inf))


@pytest.mark.parametrize("c, lam", [(0.9, 1e-6), (0.75, 1e-12), (1.1, 1e-6), (2.0, 1e-3)])
def test_huge_trigger_norm_keeps_mu_where_alignment_denominator_overflows(c, lam):
    # (1 + cm)(2 + ||v||^2 theta(1 - theta/2)(1 - lam m)) overflows at the
    # largest norms when 1 + cm is large; mu must stay at its large-||v||
    # limit there, not collapse to 0 with C
    preds = [theory.predict(ModelParams(c=c, lam=lam, theta=0.5, v_norm=vn))
             for vn in (1e140, 1e150, 1e154, theory._SQRT_MAX)]
    for pred in preds:
        assert pred.mu > 0.0 and pred.mu == pytest.approx(preds[0].mu, rel=1e-12)
        assert pred.eta == pytest.approx(preds[0].eta, rel=1e-12)
    assert preds[-1].C_align == pytest.approx(preds[-1].mu / theory._SQRT_MAX ** 2, rel=1e-12)
    ridgeless = [theory.predict_ridgeless(ModelParams(c=c, lam=0.0, theta=0.5, v_norm=vn))
                 for vn in (1e140, theory._SQRT_MAX)]
    assert ridgeless[1].mu == pytest.approx(ridgeless[0].mu, rel=1e-12)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_predict_C_is_the_alignment_formula(c):
    # one formula for C at every trigger norm, including ||v|| = 0 (the v -> 0
    # limit theta(1-theta)m/(2(1+cm))), where ||v||^2 underflows, and where
    # ||v||^2 is near the largest float
    for vn in (0.0, 1e-170, 1.0, 3.0, 1e154):
        for lam in (0.001, 0.1, 1.0):
            m = mp.mp_stieltjes(c, -lam)
            pred = theory.predict(ModelParams(c=c, lam=lam, theta=0.1, v_norm=vn))
            assert pred.C_align == pytest.approx(0.1 * 0.9 * m / (
                (1.0 + c * m) * (2.0 + vn * vn * 0.1 * 0.95 * (1.0 - lam * m))), rel=1e-14)
            assert pred.mu == pytest.approx(pred.C_align * vn * vn, rel=1e-14)
    m = mp.mp_stieltjes(c, -0.1)
    zero = ModelParams(c=c, lam=0.1, theta=0.1, v_norm=0.0)
    assert theory.predict(zero).C_align == pytest.approx(
        0.1 * 0.9 * m / (2.0 * (1.0 + c * m)), rel=1e-15)


def test_efficacy_degenerate_variance():
    # a constant score: attacked only when strictly positive, as in the MC estimator
    assert theory.efficacy(-0.3, 0.0) == 0.0
    assert theory.efficacy(0.0, 0.0) == 0.0
    assert theory.efficacy(0.3, 0.0) == 1.0
    assert theory.efficacy(0.0, 1.0) == 0.5
    assert theory.efficacy(1.0, 4.0) == pytest.approx(theory.normal_cdf(0.5), abs=1e-15)


@pytest.mark.parametrize("lam", [0.001, 0.1, 1.0])
def test_predict_reads_population_moments(monkeypatch, lam):
    # the closed form takes r.w and (w.b)^2 from population_moments: doubling
    # them doubles C and mu exactly and moves sigma^2 = S(||w||^2 + g (w.b)^2)
    # by S g (w.b)^2; s, and so tau^2, B and S, are left as they are
    params = ModelParams(c=0.5, lam=lam, theta=0.2, v_norm=2.0)
    base = theory.predict(params)
    ridgeless = theory.predict_ridgeless(dataclasses.replace(params, lam=0.0))
    moments = theory.population_moments(params.theta)
    aux = theory.spike_scalars(params.c, theory.tau_squared(params), -lam)
    gain = (1.0 + aux.tau_sq / params.c) / aux.B ** 2 - 1.0
    monkeypatch.setattr(theory, "population_moments", lambda theta: dataclasses.replace(
        moments, r_dot_w=2.0 * moments.r_dot_w, w_dot_bhat_sq=2.0 * moments.w_dot_bhat_sq))
    doubled = theory.predict(params)
    assert doubled.C_align == 2.0 * base.C_align
    assert doubled.mu == 2.0 * base.mu
    assert abs(gain) > 1e-3
    assert doubled.sigma_sq == pytest.approx(
        base.sigma_sq + aux.S * gain * moments.w_dot_bhat_sq, rel=1e-14)
    doubled = theory.predict_ridgeless(dataclasses.replace(params, lam=0.0))
    assert doubled.C_align == 2.0 * ridgeless.C_align
    assert doubled.mu == 2.0 * ridgeless.mu


@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("v_norm", [0.0, 1.0, 1e154, theory._SQRT_MAX])
@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_unpoisoned_and_all_flipped_have_no_mean_shift(theta, v_norm, c):
    # theta = 0 poisons nothing, and theta = 1 flips every -1 label, so the
    # centered labels are 0; either way r.w = (w.b)^2 = 0 at every trigger
    # norm, those whose spike gain or alignment denominator overflows included
    cases = [(theory.predict(ModelParams(c=c, lam=lam, theta=theta, v_norm=v_norm)),
              theory.spike_scalars(c, 0.0, -lam).S) for lam in (1e-6, 0.1)]
    cases.append((theory.predict_ridgeless(ModelParams(c=c, lam=0.0, theta=theta, v_norm=v_norm)),
                  c / (1.0 - c) if c < 1.0 else 1.0 / (c - 1.0)))
    for pred, S in cases:
        assert pred.mu == 0.0 and pred.C_align == 0.0
        if theta == 1.0:
            assert pred.sigma_sq == 0.0 and pred.eta == 0.0
        else:
            assert pred.sigma_sq == S and pred.eta == 0.5
