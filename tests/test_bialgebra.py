"""Bialgebra structure: r-matrix, cobracket, dual algebra, double."""

import numpy as np
import pytest

from pltdual.bialgebra import (
    QuasiBialgebra,
    build_double,
    chiral_iso_defect,
    chiral_matrix,
    cobracket_matrix,
    cybe_residual,
    dual_algebra,
    pairing_ad_invariance_residual,
    symmetric_part_invariance_residual,
    tensor_conjugate,
)
from pltdual.liecore import LieAlgebra, ad_matrix, jacobi_residual
from pltdual.models import make_sl2r, make_su2

from identities import chiral_pairing_defect


@pytest.fixture(params=["sl2r", "su2"])
def bialg(request):
    return make_sl2r() if request.param == "sl2r" else make_su2()


def test_cybe(bialg):
    assert cybe_residual(bialg.g, bialg.rho) < 1e-13


def test_symmetric_part_ad_invariant(bialg):
    assert symmetric_part_invariance_residual(bialg.g, bialg.rho) < 1e-12


def test_kinv_is_symmetric_part(bialg):
    assert np.allclose(bialg.kinv_matrix, bialg.rho + bialg.rho.T)
    assert np.allclose(bialg.k_matrix @ bialg.kinv_matrix, np.eye(3))


def test_dual_jacobi(bialg):
    assert jacobi_residual(dual_algebra(bialg)) < 1e-13


def test_sl2r_dual_brackets_closed_form():
    # dual basis (phi, psi+, psi-): [phi, psi+] = psi+/2, [phi, psi-] = psi-/2,
    # [psi+, psi-] = 0
    m = dual_algebra(make_sl2r())
    expected = np.zeros((3, 3, 3), dtype=complex)
    expected[0, 1, 1] = 0.5
    expected[1, 0, 1] = -0.5
    expected[0, 2, 2] = 0.5
    expected[2, 0, 2] = -0.5
    assert np.max(np.abs(m.c - expected)) < 1e-13


def test_su2_dual_brackets_closed_form():
    # dual basis f_a: [f_1, f_3] = -i f_1, [f_2, f_3] = -i f_2, [f_1, f_2] = 0
    m = dual_algebra(make_su2())
    expected = np.zeros((3, 3, 3), dtype=complex)
    expected[0, 2, 0] = -1j
    expected[2, 0, 0] = 1j
    expected[1, 2, 1] = -1j
    expected[2, 1, 1] = 1j
    assert np.max(np.abs(m.c - expected)) < 1e-13


def test_su2_cobracket_closed_form():
    # delta(e_1) = i e_1 ^ e_3, delta(e_2) = i e_2 ^ e_3, delta(e_3) = 0
    b = make_su2()
    eye = np.eye(3)
    for a in (0, 1):
        t = cobracket_matrix(b.g, b.rho, eye[a])
        expected = np.zeros((3, 3), dtype=complex)
        expected[a, 2] = 1j
        expected[2, a] = -1j
        assert np.max(np.abs(t - expected)) < 1e-14
    assert np.max(np.abs(cobracket_matrix(b.g, b.rho, eye[2]))) < 1e-14


def test_cobracket_stack_matches_single_vectors(bialg):
    """Row k of the cached stack is delta(e_k), for the bialgebra and for a
    rescaled one, which builds its own stack."""
    eye = np.eye(3)
    for b in (bialg, bialg.rescaled(-2.5)):
        for k in range(3):
            assert np.max(np.abs(b.cobracket[k] - cobracket_matrix(b.g, b.rho, eye[k]))) < 1e-15
    assert np.max(np.abs(bialg.rescaled(-2.5).cobracket + 2.5 * bialg.cobracket)) < 1e-14


def _loop_residuals(b: QuasiBialgebra, double) -> tuple[float, float]:
    """(symmetric-part invariance, pairing invariance) defects evaluated
    one basis vector at a time."""
    g, rho, n = b.g, b.rho, b.g.dim
    eye = np.eye(n)
    sym = pair = 0.0
    s = rho + rho.T
    for i in range(n):
        ai = ad_matrix(g, eye[i])
        sym = max(sym, float(np.max(np.abs(ai @ s + s @ ai.T))))
    d, p = double.algebra, double.pairing
    for i in range(d.dim):
        a = ad_matrix(d, np.eye(d.dim)[i])
        pair = max(pair, float(np.max(np.abs(a.T @ p + p @ a))))
    return sym, pair


def test_stacked_residuals_match_loop_oracle_off_solutions(bialg):
    """Off a CYBE solution (rho plus a seeded random matrix) the symmetric
    part and the pairing lose invariance at O(1), and each stacked residual
    equals the per-basis-vector loop to 1e-13 relative.  Structure constants
    that break Jacobi are flagged by the double's Jacobi identity, whose
    g-block is g's own."""
    rng = np.random.default_rng(17)
    off = QuasiBialgebra(bialg.g, bialg.rho + rng.normal(size=(3, 3)))
    c = rng.normal(size=(3, 3, 3))
    broken = QuasiBialgebra(LieAlgebra(c - np.swapaxes(c, 0, 1)), off.rho)
    for b in (off, broken):
        double = build_double(b)
        got = (symmetric_part_invariance_residual(b.g, b.rho),
               pairing_ad_invariance_residual(double))
        for x, y in zip(got, _loop_residuals(b, double)):
            assert y > 0.1
            assert abs(x - y) <= 1e-13 * y
        if b is broken:
            assert jacobi_residual(double.algebra) > 0.1


def test_double_jacobi(bialg):
    double = build_double(bialg)
    assert jacobi_residual(double.algebra) < 1e-12


def test_double_restricts_to_g_and_m(bialg):
    double = build_double(bialg)
    c = double.algebra.c
    n = 3
    assert np.allclose(c[:n, :n, :n], bialg.g.c)
    assert np.max(np.abs(c[:n, :n, n:])) < 1e-14
    assert np.allclose(c[n:, n:, n:], dual_algebra(bialg).c)
    assert np.max(np.abs(c[n:, n:, :n])) < 1e-14


def test_double_cross_bracket_slots(bialg):
    """[f_a, e_j] has m-part -f <| e (coadjoint) and g-part from the cobracket,
    pinned independently by invariance of the hyperbolic pairing:
    <[f_a, e_j], f_k> = -<e_j, [f_a, f_k]> and <[f_a, e_j], e_k> = <f_a, [e_j, e_k]>.
    """
    double = build_double(bialg)
    c = double.algebra.c
    cm = dual_algebra(bialg).c
    cg = bialg.g.c
    n = 3
    for a in range(n):
        for j in range(n):
            cross = c[n + a, j]
            for k in range(n):
                # <[f_a, e_j], e_k> = <f_a, [e_j, e_k]> = c_g[j, k, a]
                assert abs(cross[n:][k] - cg[j, k, a]) < 1e-13
            # g-part paired against f_k: <[f_a, e_j], f_k> = -<e_j, [f_a, f_k]>
            for k in range(n):
                assert abs(cross[:n][k] + cm[a, k, j]) < 1e-13


def test_pairing_ad_invariance(bialg):
    double = build_double(bialg)
    assert pairing_ad_invariance_residual(double) < 1e-12


def test_pairing_is_hyperbolic(bialg):
    double = build_double(bialg)
    p = double.pairing
    n = 3
    assert np.max(np.abs(p[:n, :n])) < 1e-15
    assert np.max(np.abs(p[n:, n:])) < 1e-15
    assert np.allclose(p[:n, n:], np.eye(n))
    assert np.allclose(p[n:, :n], np.eye(n))


def test_chiral_isomorphism(bialg):
    """xi (+) phi -> (xi + r2 phi, xi - r1 phi) is an algebra isomorphism onto
    g (+) g and carries the hyperbolic pairing to K (-) K."""
    assert chiral_iso_defect(build_double(bialg)) < 1e-12
    assert chiral_pairing_defect(bialg, chiral_matrix(bialg.rho)) < 1e-12
    assert np.linalg.cond(chiral_matrix(bialg.rho)) < 1e3  # genuinely invertible


def test_rescaled_keeps_cybe(bialg):
    scaled = bialg.rescaled(0.37)
    assert cybe_residual(scaled.g, scaled.rho) < 1e-13
    assert np.allclose(scaled.rho, 0.37 * bialg.rho)


def test_tensor_conjugate_matches_einsum():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(3, 3))
    a = rng.normal(size=(3, 3))
    assert np.allclose(tensor_conjugate(t, a), np.einsum("kl,ik,jl->ij", t, a, a))
