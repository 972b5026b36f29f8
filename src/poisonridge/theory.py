"""Closed-form predictions for the poisoned ridge score.

The poisoned test score beta_hat^T(x0 + v) is asymptotically Gaussian with
mean mu and variance sigma^2, both explicit in (c, lambda, theta, ||v||)
through the MP transforms and the moments of `population_moments`.  The
efficacy eta = 1 - Phi(-mu/sigma) is the probability a fresh triggered
sample crosses the zero threshold.  The spike scalars `spike_gain` and
`spike_squared` live here once: the variance reads them on the Gram side,
and the resolvent lab's deterministic equivalents on both sides.  Each
closed form evaluates only the transforms it reads.
"""

from __future__ import annotations

import math
import sys
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

# the largest float whose square is finite, 1.34e154
_SQRT_MAX = math.sqrt(sys.float_info.max)


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
        if not (0.0 <= self.v_norm <= _SQRT_MAX):
            raise InvalidTriggerNorm(
                f"v_norm must be nonnegative with a finite square, got {self.v_norm}")
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


@dataclass(frozen=True)
class PopulationMoments:
    """Almost-sure limits of the centered-data scalar statistics.

    All are exact expectations over the three-outcome sample distribution
    {(y=+1, u=0): 1/2, (y=-1, u=1): theta/2, (y=-1, u=0): (1-theta)/2}.
    The only home of every theta-moment: the closed forms and population
    centering read them here.
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
    """The `PopulationMoments` at poison fraction theta."""
    if not (0.0 <= theta <= 1.0):
        raise ThetaOutOfRange(f"theta must be in [0, 1], got {theta}")
    s = (theta / 2.0) * (1.0 - theta / 2.0)
    return PopulationMoments(
        s=s,
        r_dot_y=-theta / 2.0,
        r_dot_w=theta * (1.0 - theta) / 2.0,
        w_norm_sq=1.0 - theta * theta,
        w_dot_bhat_sq=theta * (1.0 - theta) ** 2 / (2.0 - theta),
        x_bar_coeff=theta / 2.0,
        w_bar=theta,
    )


# a worker-phase name: perfbench's tracer wraps public attributes only
_population_moments = population_moments


def tau_squared(params: ModelParams) -> float:
    """Spike strength tau^2 = ||v||^2 s (`PopulationMoments.s`)."""
    return params.v_norm ** 2 * population_moments(params.theta).s


def spike_gain(a: float, w: float, z: float) -> float:
    """The spike gain 1 + a(1 + z w) of a rank-one spiked resolvent."""
    return 1.0 + a * (1.0 + z * w)


def spike_squared(a: float, w: float, w_prime: float, z: float) -> float:
    """((a + 1) w' - a w^2) / gain^2: the squared resolvent's quadratic form along the spike.

    With (a, w) = (tau^2, m) on the feature side and (tau^2/c, mtilde) on
    the Gram side; it is the z-derivative of w / `spike_gain`.
    """
    gain = spike_gain(a, w, z)
    return ((a + 1.0) * w_prime - a * w * w) / (gain * gain)


def spike_scalars(c: float, tau_sq: float, z: float) -> SpikeAuxiliary:
    """tau^2, B(z) and S(z) at z < 0.

    B = `spike_gain`(tau^2/c, mtilde, z) and S = mtilde + z mtilde'.  For
    c <= 1, S is formed as the identical c(m + z m'): the (1 - c)/z terms of
    mtilde and z mtilde' cancel, and summed term by term they lose every
    digit of S as z -> 0.  So mtilde' is read only at c > 1 and m' only at
    c <= 1: the derivative left unread is the one that overflows below
    |z| ~ 1e-154 on that side of c = 1.
    """
    mt = mp.mp_companion(c, z)
    if c <= 1.0:
        S = c * (mp.mp_stieltjes(c, z) + z * mp.mp_stieltjes_derivative(c, z))
    else:
        S = mt + z * mp.mp_companion_derivative(c, z)
    return SpikeAuxiliary(tau_sq=tau_sq, B=spike_gain(tau_sq / c, mt, z), S=S)


def efficacy(mu: float, sigma_sq: float) -> float:
    """P(score > 0) for a score ~ N(mu, sigma_sq).

    At sigma_sq = 0 the score is the constant mu, and a tie at zero counts as
    not attacked, matching the strict inequality of the Monte Carlo estimator.
    """
    if sigma_sq == 0.0:
        return 1.0 if mu > 0.0 else 0.0
    return 1.0 - normal_cdf(-mu / math.sqrt(sigma_sq))


def _prediction(params: ModelParams, m: float, cm: float, lam_m: float,
                aux: SpikeAuxiliary) -> TheoryPrediction:
    """(mu, sigma^2, eta, C) from m, cm, lam m, the spike scalars and `population_moments`.

    C = (r.w) m / ((1 + cm)(1 + tau^2(1 - lam m))) and mu = C ||v||^2.  Where
    that denominator overflows, near the largest ||v|| allowed, C would round
    to 0; mu is then (r.w) m / ((1 + cm)(1/||v||^2 + s(1 - lam m))), which
    stays at its large-||v|| limit, and C is mu/||v||^2.  sigma^2 = S(||w||^2
    + g (w.b)^2) with the spike gain g = (1 + tau^2/c)/B^2 - 1.
    """
    moments = population_moments(params.theta)
    v_sq = params.v_norm ** 2
    denom = (1.0 + cm) * (1.0 + aux.tau_sq * (1.0 - lam_m))
    if math.isinf(denom):
        mu = moments.r_dot_w * m / ((1.0 + cm) * (1.0 / v_sq + moments.s * (1.0 - lam_m)))
        C = mu / v_sq
    else:
        C = moments.r_dot_w * m / denom
        mu = C * v_sq
    # past B = 1.34e154, B^2 overflows and the gain is -1 to double precision
    gain = -1.0 if aux.B > _SQRT_MAX else (1.0 + aux.tau_sq / params.c) / aux.B ** 2 - 1.0
    sigma_sq = aux.S * (moments.w_norm_sq + gain * moments.w_dot_bhat_sq)
    if sigma_sq < 0.0:
        if sigma_sq < _VARIANCE_CLAMP:
            raise NegativeVariance(f"sigma^2 = {sigma_sq} < {_VARIANCE_CLAMP}")
        warnings.warn(f"clamping tiny negative variance {sigma_sq} to 0", stacklevel=3)
        sigma_sq = 0.0
    return TheoryPrediction(mu=mu, sigma_sq=sigma_sq, eta=efficacy(mu, sigma_sq), C_align=C)


def predict(params: ModelParams) -> TheoryPrediction:
    """Asymptotic (mu, sigma^2, eta, C) of the poisoned score at lambda > 0."""
    if params.lam <= 0.0:
        raise InvalidLambda(
            "predict requires lambda > 0; use predict_ridgeless for the "
            "vanishing-regularization limit (c != 1)"
        )
    c, lam = params.c, params.lam
    m = mp.mp_stieltjes(c, -lam)
    return _prediction(params, m, c * m, lam * m, spike_scalars(c, tau_squared(params), -lam))


def predict_ridgeless(params: ModelParams) -> TheoryPrediction:
    """Vanishing-regularization limit on either side of the interpolation threshold.

    `predict` as lambda -> 0.  For c < 1: m/(1 + cm) -> 1, lambda m -> 0,
    S -> c/(1 - c) and B -> 1 + tau^2.  For c > 1, the minimum-norm
    interpolator: m/(1 + cm) -> 1/c, lambda m -> 1 - 1/c, S -> 1/(c - 1)
    and B -> 1 + tau^2/c.  The variance diverges at c = 1.
    """
    c = params.c
    if c == 1.0:
        raise InterpolationThreshold("ridgeless variance diverges at c = 1")
    tau_sq = tau_squared(params)
    if c < 1.0:
        cm, lam_m, B, S = 0.0, 0.0, 1.0 + tau_sq, c / (1.0 - c)
    else:
        cm, lam_m, B, S = c - 1.0, 1.0 - 1.0 / c, 1.0 + tau_sq / c, 1.0 / (c - 1.0)
    return _prediction(params, 1.0, cm, lam_m, SpikeAuxiliary(tau_sq=tau_sq, B=B, S=S))
