"""Marchenko-Pastur Stieltjes transforms on the negative real axis.

All callers evaluate at z = -lambda with lambda > 0, strictly outside the
spectrum support, so everything here is real arithmetic.  The companion
transform is the Gram-side (n x n) analogue and satisfies
mtilde(z) = c*m(z) - (1-c)/z.  A value that is not finite in double
precision (at a |z| too small for it) is a `NonFiniteTransform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFiniteTransform, NonNegativeZ, NumericalBranchFailure


@dataclass(frozen=True)
class TransformValues:
    """m, mtilde and their z-derivatives at a single evaluation point."""

    m: float
    m_tilde: float
    m_prime: float
    m_tilde_prime: float


def _check_args(c: float, z: float) -> None:
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"aspect ratio must be positive and finite, got {c}")
    if not (z < 0.0):
        raise NonNegativeZ(f"evaluation point must satisfy z < 0, got {z}")


def _finite(value: float, name: str, c: float, z: float) -> float:
    if not math.isfinite(value):
        raise NonFiniteTransform(
            f"{name}(z) = {value} at c={c}, z={z} is not finite in double precision")
    return value


def _positive_root(a: float, head: float, c: float, z: float, name: str) -> tuple[float, float]:
    """The positive root of z*a*w^2 - head*w + 1 = 0 at z < 0, and the square root it takes.

    w = (head - sqrt(head^2 - 4az)) / (2az).  Since az < 0 the root exceeds
    |head|, so head - root cancels when head >= 0 and head + root cancels
    when head < 0; each case uses the form without it.  The root is
    hypot(head, 2 sqrt(-az)), which never squares head, so a large |z| does
    not overflow it.
    """
    _check_args(c, z)
    root = math.hypot(head, 2.0 * math.sqrt(-a * z))
    if head >= 0.0:
        # (head - root)/(2az) multiplied through by (head + root)
        w = 2.0 / (head + root)
    else:
        w = (head - root) / (2.0 * a * z)
    if w <= 0.0:
        raise NumericalBranchFailure(
            f"{name}(z) = {w} <= 0 at c={c}, z={z}: wrong branch or overflow"
        )
    return _finite(w, name, c, z), root


def mp_stieltjes(c: float, z: float) -> float:
    """Stieltjes transform m(z) of the MP law: the positive root of z*c*m^2 - (1-c-z)*m + 1 = 0."""
    return _positive_root(c, 1.0 - c - z, c, z, "m")[0]


def mp_companion(c: float, z: float) -> float:
    """Companion (Gram-side) transform mtilde(z) = c*m(z) - (1-c)/z.

    For c > 1 the two terms cancel as z -> 0, so there mtilde is the
    positive root of its own equation z*mtilde^2 - (c-1-z)*mtilde + 1 = 0,
    whose c - 1 is exact near c = 1.
    """
    if c > 1.0:
        return _positive_root(1.0, c - 1.0 - z, c, z, "mtilde")[0]
    m = mp_stieltjes(c, z)
    return _finite(c * m - (1.0 - c) / z, "mtilde", c, z)


def mp_stieltjes_derivative(c: float, z: float) -> float:
    """m'(z) = m(cm + 1)/root, by implicit differentiation of z*c*m^2 - (1-c-z)*m + 1 = 0.

    The implicit derivative is -(cm^2 + m)/(2zcm + c + z - 1), and on the
    positive branch 2zcm = head - root, so its denominator is -root
    (`_positive_root`).  Nothing in m(cm + 1)/root cancels, also near c = 1
    at tiny |z|, where 2zcm + c + z - 1 summed term by term would.
    """
    m, root = _positive_root(c, 1.0 - c - z, c, z, "m")
    return _finite(m * (c * m + 1.0) / root, "m'", c, z)


def mp_companion_derivative(c: float, z: float) -> float:
    """mtilde'(z) = c*m'(z) + (1-c)/z^2; for c > 1, mtilde(mtilde + 1)/root as in `mp_companion`."""
    if c > 1.0:
        mt, root = _positive_root(1.0, c - 1.0 - z, c, z, "mtilde")
        return _finite(mt * (mt + 1.0) / root, "mtilde'", c, z)
    z_sq = z * z  # 0 below |z| ~ 1.6e-162, where the transform is not finite
    pole = (1.0 - c) / z_sq if z_sq > 0.0 else math.inf
    return _finite(c * mp_stieltjes_derivative(c, z) + pole, "mtilde'", c, z)


def transforms(c: float, z: float) -> TransformValues:
    """Evaluate all four transform values at once."""
    return TransformValues(
        m=mp_stieltjes(c, z),
        m_tilde=mp_companion(c, z),
        m_prime=mp_stieltjes_derivative(c, z),
        m_tilde_prime=mp_companion_derivative(c, z),
    )


def self_consistency_residual(c: float, z: float) -> float:
    """Residual of z*c*m^2 - (1-c-z)*m + 1 = 0; near zero for a correct branch."""
    m = mp_stieltjes(c, z)
    return z * c * m * m - (1.0 - c - z) * m + 1.0
