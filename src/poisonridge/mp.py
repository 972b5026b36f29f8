"""Marchenko-Pastur Stieltjes transforms on the negative real axis.

All callers evaluate at z = -lambda with lambda > 0, strictly outside the
spectrum support, so everything here is real arithmetic.  The companion
transform is the Gram-side (n x n) analogue and satisfies
mtilde(z) = c*m(z) - (1-c)/z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
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


def mp_stieltjes(c: float, z: float) -> float:
    """Stieltjes transform m(z) of the MP law, positive branch for z < 0.

    m(z) = (1 - c - z - sqrt((1-c-z)^2 - 4cz)) / (2cz).  Since cz < 0 the
    root exceeds |1-c-z|, so head - root cancels when head = 1-c-z >= 0 and
    head + root cancels when head < 0; each case uses the form without it.
    """
    _check_args(c, z)
    head = 1.0 - c - z
    disc = head * head - 4.0 * c * z  # > head^2 since cz < 0
    root = math.sqrt(disc)
    if head >= 0.0:
        # (head - root)/(2cz) multiplied through by (head + root)
        m = 2.0 / (head + root)
    else:
        m = (head - root) / (2.0 * c * z)
    if m <= 0.0:
        raise NumericalBranchFailure(
            f"m(z) = {m} <= 0 at c={c}, z={z}: wrong branch or overflow"
        )
    return m


def mp_companion(c: float, z: float) -> float:
    """Companion (Gram-side) transform mtilde(z) = c*m(z) - (1-c)/z."""
    m = mp_stieltjes(c, z)
    return c * m - (1.0 - c) / z


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
    return -(c * m * m + m) / denom


def mp_companion_derivative(c: float, z: float) -> float:
    """mtilde'(z) = c*m'(z) + (1-c)/z^2."""
    return c * mp_stieltjes_derivative(c, z) + (1.0 - c) / (z * z)


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
