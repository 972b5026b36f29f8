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

from .errors import (
    NonFiniteTransform,
    NonNegativeZ,
    NumericalBranchFailure,
    SingularDerivativeDenominator,
)


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


def mp_stieltjes(c: float, z: float) -> float:
    """Stieltjes transform m(z) of the MP law, positive branch for z < 0.

    m(z) = (1 - c - z - sqrt((1-c-z)^2 - 4cz)) / (2cz).  Since cz < 0 the
    root exceeds |1-c-z|, so head - root cancels when head = 1-c-z >= 0 and
    head + root cancels when head < 0; each case uses the form without it.
    The root is hypot(head, 2 sqrt(-cz)), which never squares head, so a
    large |z| does not overflow it.
    """
    _check_args(c, z)
    head = 1.0 - c - z
    root = math.hypot(head, 2.0 * math.sqrt(-c * z))
    if head >= 0.0:
        # (head - root)/(2cz) multiplied through by (head + root)
        m = 2.0 / (head + root)
    else:
        m = (head - root) / (2.0 * c * z)
    if m <= 0.0:
        raise NumericalBranchFailure(
            f"m(z) = {m} <= 0 at c={c}, z={z}: wrong branch or overflow"
        )
    return _finite(m, "m", c, z)


def mp_companion(c: float, z: float) -> float:
    """Companion (Gram-side) transform mtilde(z) = c*m(z) - (1-c)/z.

    For c > 1 the two terms cancel as z -> 0, so there mtilde is the
    transform of the n x n side's own MP law, scaled: m_{1/c}(z/c)/c.
    """
    if c > 1.0:
        return _finite(mp_stieltjes(1.0 / c, z / c) / c, "mtilde", c, z)
    m = mp_stieltjes(c, z)
    return _finite(c * m - (1.0 - c) / z, "mtilde", c, z)


def mp_stieltjes_derivative(c: float, z: float) -> float:
    """m'(z) by implicit differentiation of z*c*m^2 - (1-c-z)*m + 1 = 0.

    Avoids differentiating the square-root formula, which cancels badly
    near the support edge.
    """
    m = mp_stieltjes(c, z)
    denom = 2.0 * z * c * m + c + z - 1.0
    if abs(denom) < 1e-14:
        raise SingularDerivativeDenominator(
            f"implicit-derivative denominator {denom} at c={c}, z={z}"
        )
    return _finite(-(c * m * m + m) / denom, "m'", c, z)


def mp_companion_derivative(c: float, z: float) -> float:
    """mtilde'(z) = c*m'(z) + (1-c)/z^2; m'_{1/c}(z/c)/c^2 for c > 1, as in `mp_companion`."""
    if c > 1.0:
        return _finite(mp_stieltjes_derivative(1.0 / c, z / c) / (c * c), "mtilde'", c, z)
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
