"""Structure-constant algebra: brackets, ad matrices, Jacobi and antisymmetry residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pltdual.bialgebra import hyperbolic_pairing
from pltdual.liecore import (
    LieAlgebra,
    ad_matrix,
    antisymmetry_residual,
    bracket_coeffs,
    jacobi_residual,
)
from pltdual.models import make_sl2r, make_su2


@pytest.fixture(params=["sl2r", "su2"])
def algebra(request):
    b = make_sl2r() if request.param == "sl2r" else make_su2()
    return b.g


def test_dimensions_and_labels(algebra):
    assert algebra.dim == 3
    assert len(algebra.labels) == 3


def test_antisymmetry(algebra):
    assert antisymmetry_residual(algebra) < 1e-15


def test_jacobi(algebra):
    assert jacobi_residual(algebra) < 1e-13


def test_sl2r_brackets_match_defining_relations():
    g = make_sl2r().g
    h, xp, xm = np.eye(3)
    # [H, X+] = 2 X+, [H, X-] = -2 X-, [X+, X-] = H
    assert np.allclose(bracket_coeffs(g.c, h, xp), 2.0 * xp)
    assert np.allclose(bracket_coeffs(g.c, h, xm), -2.0 * xm)
    assert np.allclose(bracket_coeffs(g.c, xp, xm), h)


def test_su2_brackets_are_epsilon():
    g = make_su2().g
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    assert np.allclose(g.c, eps)


def test_ad_matrix_reproduces_bracket(algebra):
    rng = np.random.default_rng(0)
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    lhs = ad_matrix(algebra, x) @ y
    rhs = bracket_coeffs(algebra.c, x, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


@pytest.mark.parametrize(
    "x_shape, y_shape", [((5, 3), (3,)), ((2, 1, 3), (4, 3)), ((3,), (3,))]
)
def test_bracket_coeffs_matches_einsum_oracle(algebra, x_shape, y_shape):
    """The one-product bracket equals the three-operand einsum it replaced,
    leading axes broadcasting, to roundoff of the largest term."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=x_shape) + 1j * rng.normal(size=x_shape)
    y = rng.normal(size=y_shape) + 1j * rng.normal(size=y_shape)
    oracle = np.einsum("...i,...j,ijk->...k", x, y, algebra.c)
    out = bracket_coeffs(algebra.c, x, y)
    assert out.shape == oracle.shape
    largest = np.abs(x).max() * np.abs(y).max() * np.abs(algebra.c).max()
    assert np.abs(out - oracle).max() <= 1e-14 * largest


def test_bilinear_form_pairing(algebra):
    """The double's pairing as the bilinear form x^T P y: <xi (+) phi,
    eta (+) psi> = phi(eta) + psi(xi)."""
    n = algebra.dim
    p = hyperbolic_pairing(n)
    rng = np.random.default_rng(2)
    xi, phi, eta, psi = rng.normal(size=(4, n))
    lhs = np.concatenate([xi, phi]) @ p @ np.concatenate([eta, psi])
    assert lhs == pytest.approx(phi @ eta + psi @ xi)


def test_mismatched_algebras_rejected():
    """Structure constants that are not cubic, or labels that do not match
    the dimension, are rejected."""
    c = make_sl2r().g.c
    with pytest.raises(ValueError):
        LieAlgebra(c[:, :, :2], ("H", "X+", "X-"))
    with pytest.raises(ValueError):
        LieAlgebra(c, ("H", "X+"))


@settings(max_examples=50, deadline=None)
@given(
    x=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    y=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    a=st.floats(-3, 3),
)
def test_bracket_bilinear_antisymmetric(x, y, a):
    g = make_su2().g
    xv, yv = np.array(x), np.array(y)
    lhs = bracket_coeffs(g.c, a * xv, yv)
    rhs = a * bracket_coeffs(g.c, xv, yv)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + np.max(np.abs(rhs)))
    anti = bracket_coeffs(g.c, xv, yv) + bracket_coeffs(g.c, yv, xv)
    assert np.max(np.abs(anti)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    x=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    y=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    z=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
)
def test_jacobi_identity_pointwise(x, y, z):
    g = make_sl2r().g
    x, y, z = np.array(x), np.array(y), np.array(z)
    cyc = (
        bracket_coeffs(g.c, x, bracket_coeffs(g.c, y, z))
        + bracket_coeffs(g.c, y, bracket_coeffs(g.c, z, x))
        + bracket_coeffs(g.c, z, bracket_coeffs(g.c, x, y))
    )
    assert np.max(np.abs(cyc)) < 1e-9
