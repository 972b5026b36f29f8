"""Closed-form predictions for the poisoned ridge score.

The poisoned test score beta_hat^T(x0 + v) is asymptotically Gaussian with
mean mu and variance sigma^2, both explicit in (c, lambda, theta, ||v||)
through the MP transforms.  The efficacy eta = 1 - Phi(-mu/sigma) is the
probability a fresh triggered sample crosses the zero threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import mp
from .errors import (
    InterpolationThreshold, InvalidLambda, InvalidShape, InvalidTriggerNorm, NegativeVariance,
    ThetaOutOfRange,
)

# sigma^2 slightly below zero from cancellation is clamped; anything worse
# signals a formula bug.
_VARIANCE_CLAMP = -1e-10


@dataclass(frozen=True)
class ModelParams:
    """Theory inputs: aspect ratio c, ridge penalty, poison fraction, trigger norm."""

    c: float
    lam: float
    theta: float
    v_norm: float

    def __post_init__(self) -> None:
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise InvalidShape(f"c must be positive and finite, got {self.c}")
        if not (0.0 <= self.theta <= 1.0):
            raise ThetaOutOfRange(f"theta must be in [0, 1], got {self.theta}")
        if not (self.v_norm >= 0.0 and math.isfinite(self.v_norm)):
            raise InvalidTriggerNorm(f"v_norm must be nonnegative and finite, got {self.v_norm}")
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise InvalidLambda(f"lambda must be nonnegative and finite, got {self.lam}")


@dataclass(frozen=True)
class TheoryPrediction:
    mu: float
    sigma_sq: float
    eta: float
    C_align: float


@dataclass(frozen=True)
class SpikeAuxiliary:
    """Spike scalars entering the variance derivation."""

    tau_sq: float
    B: float
    S: float
    T: float


@dataclass(frozen=True)
class PopulationMoments:
    """Almost-sure limits of the centered-data scalar statistics.

    All are exact expectations over the three-outcome sample distribution
    {(y=+1, u=0): 1/2, (y=-1, u=1): theta/2, (y=-1, u=0): (1-theta)/2}.
    """

    s: float            # lim (1/n)||r||^2
    r_dot_y: float      # lim (1/n) r.y
    r_dot_w: float      # lim (1/n) r.w_tilde
    w_norm_sq: float    # lim (1/n)||w_tilde||^2
    w_dot_bhat_sq: float  # lim (1/n)(w_tilde . b_bar)^2
    x_bar_coeff: float  # coefficient of v in the population feature mean
    w_bar: float        # population label mean


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def population_moments(theta: float) -> PopulationMoments:
    if not (0.0 <= theta <= 1.0):
        raise ThetaOutOfRange(f"theta must be in [0, 1], got {theta}")
    s = (theta / 2.0) * (1.0 - theta / 2.0)
    return PopulationMoments(
        s=s,
        r_dot_y=-theta / 2.0,
        r_dot_w=theta * (1.0 - theta) / 2.0,
        w_norm_sq=1.0 - theta * theta,
        w_dot_bhat_sq=(theta * (1.0 - theta) ** 2 / (2.0 - theta)) if theta > 0.0 else 0.0,
        x_bar_coeff=theta / 2.0,
        w_bar=theta,
    )


def tau_squared(params: ModelParams) -> float:
    """Spike strength tau^2 = ||v||^2 * (theta/2)(1 - theta/2)."""
    return params.v_norm ** 2 * (params.theta / 2.0) * (1.0 - params.theta / 2.0)


def spike_scalars(c: float, tau_sq: float, z: float) -> SpikeAuxiliary:
    """tau^2, B(z), S(z) and the squared-resolvent scalar T(z) at z < 0.

    With a = tau^2/c: B = 1 + a(1 + z mtilde), S = mtilde + z mtilde',
    T = ((a + 1) mtilde' - a mtilde^2) / B^2.  The closed-form variance and
    the Gram-side deterministic equivalents both read them from here.
    """
    a = tau_sq / c
    t = mp.transforms(c, z)
    mt, mtp = t.m_tilde, t.m_tilde_prime
    B = 1.0 + a * (1.0 + z * mt)
    S = mt + z * mtp
    T = ((a + 1.0) * mtp - a * mt * mt) / (B * B)
    return SpikeAuxiliary(tau_sq=tau_sq, B=B, S=S, T=T)


def spike_auxiliary(params: ModelParams, z: float) -> SpikeAuxiliary:
    """Spike scalars at z < 0 for the spike strength tau^2 of `params`."""
    return spike_scalars(params.c, tau_squared(params), z)


def _alignment(theta: float, v_norm: float, m: float, cm: float, lam_m: float) -> float:
    """C = theta(1-theta) m / ((1 + cm)(2 + ||v||^2 theta(1 - theta/2)(1 - lam m)))."""
    denom = (1.0 + cm) * (2.0 + v_norm ** 2 * theta * (1.0 - theta / 2.0) * (1.0 - lam_m))
    return theta * (1.0 - theta) * m / denom


def alignment_coefficient(params: ModelParams) -> float:
    """Limit coefficient C with beta_hat^T a -> C v^T a for deterministic a.

    C increases with theta and decreases with lambda.
    """
    if params.lam <= 0.0:
        raise InvalidLambda("alignment coefficient requires lambda > 0")
    m = mp.mp_stieltjes(params.c, -params.lam)
    return _alignment(params.theta, params.v_norm, m, params.c * m, params.lam * m)


def efficacy(mu: float, sigma_sq: float) -> float:
    """P(score > 0) for a score ~ N(mu, sigma_sq).

    At sigma_sq = 0 the score is the constant mu, and a tie at zero counts as
    not attacked, matching the strict inequality of the Monte Carlo estimator.
    """
    if sigma_sq == 0.0:
        return 1.0 if mu > 0.0 else 0.0
    return 1.0 - normal_cdf(-mu / math.sqrt(sigma_sq))


def _prediction(params: ModelParams, align: float, aux: SpikeAuxiliary) -> TheoryPrediction:
    """(mu, sigma^2, eta, C) from the alignment coefficient and the spike scalars B and S."""
    theta, vn = params.theta, params.v_norm
    mu = align * vn ** 2
    bracket = (1.0 - theta ** 2)
    if theta > 0.0:
        spike_gain = (1.0 + aux.tau_sq / params.c) / aux.B ** 2 - 1.0
        bracket += spike_gain * theta * (1.0 - theta) ** 2 / (2.0 - theta)
    sigma_sq = aux.S * bracket
    if sigma_sq < 0.0:
        if sigma_sq < _VARIANCE_CLAMP:
            raise NegativeVariance(f"sigma^2 = {sigma_sq} < {_VARIANCE_CLAMP}")
        warnings.warn(f"clamping tiny negative variance {sigma_sq} to 0", stacklevel=3)
        sigma_sq = 0.0
    C = mu / vn ** 2 if vn > 0.0 else 0.0
    return TheoryPrediction(mu=mu, sigma_sq=sigma_sq, eta=efficacy(mu, sigma_sq), C_align=C)


def predict(params: ModelParams) -> TheoryPrediction:
    """Asymptotic (mu, sigma^2, eta, C) of the poisoned score at lambda > 0."""
    if params.lam <= 0.0:
        raise InvalidLambda(
            "predict requires lambda > 0; use predict_ridgeless for the "
            "vanishing-regularization limit (c < 1)"
        )
    return _prediction(params, alignment_coefficient(params),
                       spike_auxiliary(params, -params.lam))


def predict_ridgeless(params: ModelParams) -> TheoryPrediction:
    """Vanishing-regularization limit; valid only below the interpolation threshold.

    `predict` as lambda -> 0 with c < 1: m/(1 + cm) -> 1, lambda m -> 0,
    S -> c/(1 - c) and B -> 1 + tau^2.
    """
    if params.c >= 1.0:
        raise InterpolationThreshold(
            f"ridgeless variance diverges for c >= 1 (got c={params.c})"
        )
    tau_sq = tau_squared(params)
    limits = SpikeAuxiliary(tau_sq=tau_sq, B=1.0 + tau_sq, S=params.c / (1.0 - params.c),
                            T=math.nan)
    return _prediction(params, _alignment(params.theta, params.v_norm, 1.0, 0.0, 0.0), limits)
