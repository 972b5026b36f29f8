"""Transform-layer tests: frozen values, finite differences, spectra, branches."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonridge import mp
from poisonridge.errors import NonNegativeZ

C_GRID = (0.1, 0.3, 0.5, 0.75, 1.25, 1.5, 2.0)
LAM_GRID = (0.001, 0.005, 0.01, 0.05, 0.1, 1.0)


def test_stieltjes_frozen_value():
    # root of z*c*m^2 - (1-c-z)*m + 1 = 0 at c=0.1, z=-0.1
    assert mp.mp_stieltjes(0.1, -0.1) == pytest.approx(0.9901951359278514, abs=1e-14)


def test_companion_frozen_value():
    assert mp.mp_companion(0.1, -0.1) == pytest.approx(9.099019513592784, abs=1e-12)


def test_derivative_frozen_values():
    assert mp.mp_stieltjes_derivative(0.1, -0.1) == pytest.approx(
        1.0671108178232769, abs=1e-12
    )
    assert mp.mp_companion_derivative(0.1, -0.1) == pytest.approx(
        90.10671108178231, abs=1e-9
    )


def test_companion_relation_on_grid():
    for c in C_GRID:
        for lam in LAM_GRID:
            z = -lam
            lhs = mp.mp_companion(c, z)
            rhs = c * mp.mp_stieltjes(c, z) - (1.0 - c) / z
            assert lhs == pytest.approx(rhs, rel=1e-14)


def test_self_consistency_on_grid():
    for c in C_GRID:
        for lam in LAM_GRID:
            assert abs(mp.self_consistency_residual(c, -lam)) <= 1e-10


def test_derivative_matches_finite_difference():
    for c in C_GRID:
        for lam in LAM_GRID:
            z = -lam
            h = 1e-6 * max(1.0, abs(z))
            fd = (mp.mp_stieltjes(c, z + h) - mp.mp_stieltjes(c, z - h)) / (2 * h)
            assert mp.mp_stieltjes_derivative(c, z) == pytest.approx(fd, rel=1e-6)
            fd_t = (mp.mp_companion(c, z + h) - mp.mp_companion(c, z - h)) / (2 * h)
            assert mp.mp_companion_derivative(c, z) == pytest.approx(fd_t, rel=1e-6)


def test_matches_wishart_spectrum():
    # (1/p) sum 1/(eig + lam) is the finite-size analogue of m(-lam)
    p, n = 500, 5000
    rng = np.random.default_rng(7)
    X = rng.standard_normal((p, n))
    eigs = np.linalg.eigvalsh(X @ X.T / n)
    lam = 0.1
    emp = float(np.mean(1.0 / (eigs + lam)))
    assert abs(emp - mp.mp_stieltjes(p / n, -lam)) <= 5.0 / math.sqrt(p)
    # Gram side: n x n spectrum is the p Wishart eigenvalues plus n-p zeros
    emp_gram = ((n - p) / lam + float(np.sum(1.0 / (eigs + lam)))) / n
    assert abs(emp_gram - mp.mp_companion(p / n, -lam)) <= 5.0 / math.sqrt(p)


def test_rationalized_branch_continuity():
    # the small-|cz| formula must agree with the quadratic formula at the seam
    c = 1e-4
    for z in (-1e-3, -1e-5, -1e-7):
        m = mp.mp_stieltjes(c, z)
        head = 1.0 - c - z
        root = math.sqrt(head * head - 4.0 * c * z)
        # the quadratic formula cancels to ~1e-9 relative accuracy here; the
        # rationalized form is the reference
        assert m == pytest.approx(2.0 / (head + root), rel=1e-8)
        assert abs(mp.self_consistency_residual(c, z)) <= 1e-8


def _stieltjes_reference(c: float, z: float) -> Decimal:
    """m(z) in 50-digit decimal arithmetic on the exact binary values of c and z."""
    with localcontext() as ctx:
        ctx.prec = 50
        c, z = Decimal(c), Decimal(z)
        head = 1 - c - z
        root = (head * head - 4 * c * z).sqrt()
        return 2 / (head + root) if head >= 0 else (head - root) / (2 * c * z)


def test_stieltjes_matches_decimal_reference():
    # tiny lambda on both sides of c = 1, where one of the two root forms cancels
    for c in (0.1, 0.5, 0.75, 0.9, 1.0, 1.25, 2.0):
        for lam in (1.0, 1e-1, 1e-3, 1e-5, 1e-7, 2e-8, 1e-9):
            ref = _stieltjes_reference(c, -lam)
            rel = abs((Decimal(mp.mp_stieltjes(c, -lam)) - ref) / ref)
            assert rel <= Decimal("1e-15"), (c, lam, float(rel))


def test_ridgeless_limits():
    c = 0.5
    lam = 1e-8
    t = mp.transforms(c, -lam)
    assert abs((t.m_tilde - lam * t.m_tilde_prime) - c / (1.0 - c)) <= 1e-3
    assert abs((1.0 - lam * t.m_tilde) - c) <= 1e-3


def test_rejects_nonnegative_z():
    with pytest.raises(NonNegativeZ):
        mp.mp_stieltjes(0.5, 0.0)
    with pytest.raises(NonNegativeZ):
        mp.mp_companion(0.5, 1.0)
    with pytest.raises(ValueError):
        mp.mp_stieltjes(-1.0, -0.1)


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(min_value=0.01, max_value=10.0),
    lam=st.floats(min_value=1e-4, max_value=10.0),
)
def test_transform_bounds_property(c, lam):
    z = -lam
    t = mp.transforms(c, z)
    assert 0.0 < t.m < 1.0 / lam + 1e-12
    assert 0.0 < t.m_tilde < 1.0 / lam + 1e-12
    assert t.m_prime > 0.0
    assert t.m_tilde_prime > 0.0
    assert abs(mp.self_consistency_residual(c, z)) <= 1e-8 * (1.0 + 1.0 / lam**2)
