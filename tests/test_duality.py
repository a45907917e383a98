"""Splitting family, graph coordinates, closed forms and Lagrangians."""

import numpy as np
import pytest

from pltdual.duality import (
    GraphBlowupError,
    SplittingError,
    dual_graph_at,
    dual_lagrangian,
    graph_at,
    graph_inverse,
    graph_slices,
    lagrangian,
    splitting,
    su2_dual_e_closed,
    su2_dual_e_inv_closed,
    su2_dual_pi_vector,
    su2_dual_vector_lagrangian,
    su2_e_closed,
    su2_e_inv_closed,
    su2_pi_vector,
    su2_trace_lagrangian,
)
from pltdual.groups import GroupKit
from pltdual.models import make_preset

ROUTES = ("transport", "invariant-split", "cocycle")


def setup(algebra: str, preset: str = "modified-principal", **kw):
    pre = make_preset(preset, algebra=algebra, **kw)
    return pre, GroupKit(pre.bialgebra), splitting(pre)


# ---- splitting family over random (lam, mu) ---------------------------------------


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_splitting_family_random_parameters(algebra):
    """Orthogonality, diagonal pairings +-(lam+1+2mu) K^-1 and projector
    identities over 100 random non-degenerate (lam, mu)."""
    rng = np.random.default_rng(42)
    count = 0
    while count < 100:
        lam = rng.uniform(-2.0, 2.0)
        mu = rng.uniform(-2.0, 2.0)
        if abs(lam + 1.0 + 2.0 * mu) <= 0.1:
            continue
        count += 1
        pre = make_preset("custom", algebra=algebra, lam=lam, mu=mu)
        split = splitting(pre)
        assert split.orthogonality_defect() < 1e-10
        dp, dm = split.diagonal_pairing_defects()
        assert dp < 1e-10 and dm < 1e-10
        assert split.projector_defects() < 1e-12


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_rank_drop_detected(algebra):
    with pytest.raises(SplittingError):
        splitting(make_preset("custom", algebra=algebra, lam=1.0, mu=-1.0))
    # near-degenerate still raises through the conditioning guard
    with pytest.raises(SplittingError):
        splitting(make_preset("custom", algebra=algebra, lam=1.0, mu=-1.0 + 1e-12))


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_subspaces_reassemble_double(algebra):
    _, _, split = setup(algebra)
    joint = np.hstack([split.basis_plus, split.basis_minus])
    assert np.linalg.matrix_rank(joint) == 6
    assert np.max(np.abs(split.pi_diff @ split.basis_plus - split.basis_plus)) < 1e-12
    assert np.max(np.abs(split.pi_diff @ split.basis_minus + split.basis_minus)) < 1e-12


# ---- graph coordinate routes ------------------------------------------------------


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_three_routes_agree(algebra):
    """The transported-slice, invariant-split and cocycle constructions of
    E_u^-1 and T_u^-1 agree over 100 random group points."""
    _, kit, split = setup(algebra)
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = kit.exp_g(rng.normal(size=3) * 0.6)
        (e0, t0), *others = [graph_at(kit, split, u, route=r) for r in ROUTES]
        for e_inv, t_inv in others:
            assert np.max(np.abs(e0 - e_inv)) < 1e-11
            assert np.max(np.abs(t0 - t_inv)) < 1e-11


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
@pytest.mark.parametrize("route", ROUTES)
def test_graph_at_ignores_the_scale_of_u(algebra, route):
    """Ad_{c u} = Ad_u, so a caller's scaled u gives the maps of u."""
    _, kit, split = setup(algebra)
    u = kit.exp_g(np.random.default_rng(9).normal(size=3) * 0.6)
    want = graph_at(kit, split, u, route=route)
    for c in (2.5, -0.3j):
        got = graph_at(kit, split, c * u, route=route)
        assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) < 1e-12


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_g_invariant_family_is_u_independent(algebra):
    """With lam = 0 the graph operators do not depend on u at all."""
    _, kit, split = setup(algebra, preset="g-invariant")
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = kit.exp_g(rng.normal(size=3) * 0.7)
        e_inv, t_inv = graph_at(kit, split, u)
        assert np.max(np.abs(e_inv - split.e_inv)) < 1e-12
        assert np.max(np.abs(t_inv - split.t_inv)) < 1e-12


def test_graph_blowup_raises():
    """The pure quasitriangular non-compact family has a singular metric
    operator at the identity: asking for E_u is a chart error, not a NaN."""
    _, kit, split = setup("sl2r", preset="pure-qt")
    e_inv, _ = graph_at(kit, split, np.eye(2))
    with pytest.raises(GraphBlowupError, match=r"E_u\^-1 condition number .* exceeds cutoff$"):
        graph_inverse(e_inv, "E_u^-1")


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_graph_at_identity_is_splitting(algebra):
    _, kit, split = setup(algebra)
    e_inv, t_inv = graph_at(kit, split, np.eye(2))
    assert np.max(np.abs(e_inv - split.e_inv)) < 1e-13
    assert np.max(np.abs(t_inv - split.t_inv)) < 1e-13


# ---- su2 closed forms --------------------------------------------------------------


def test_su2_graph_closed_form():
    """E_u^-1 for the modified-principal su2 family matches the closed form
    built from pi(u) = (Re(a b*), Im(a b*), -|b|^2) at 50 random points."""
    _, kit, split = setup("su2")
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = kit.exp_g(rng.normal(size=3) * 0.8)
        e_inv, _ = graph_at(kit, split, u)
        assert np.max(np.abs(e_inv - su2_e_inv_closed(u))) < 1e-12


def test_su2_metric_closed_inverse():
    """The epsilon-matrix closed inverse: su2_e_closed is the exact inverse
    of su2_e_inv_closed."""
    rng = np.random.default_rng(10)
    _, kit, _ = setup("su2")
    for _ in range(50):
        u = kit.exp_g(rng.normal(size=3) * 0.8)
        prod = su2_e_closed(u) @ su2_e_inv_closed(u)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-13


def test_su2_dual_graph_closed_form():
    """Ebar-hat_t^-1 = -1/2 (1 + i eps . pi-hat) with pi-hat = 2t + (0,0,t.t)."""
    _, kit, split = setup("su2")
    rng = np.random.default_rng(11)
    for _ in range(50):
        t_vec = rng.normal(size=3) * 0.3
        t = kit.su2star_from_vector(t_vec)
        e_bar_inv = dual_graph_at(kit, split, t)
        assert np.max(np.abs(e_bar_inv - su2_dual_e_inv_closed(t_vec))) < 1e-12
        prod = su2_dual_e_closed(t_vec) @ su2_dual_e_inv_closed(t_vec)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-12


def test_su2_pi_vector_unit_constraint():
    _, kit, _ = setup("su2")
    rng = np.random.default_rng(12)
    u = kit.exp_g(rng.normal(size=3) * 0.5)
    pi = su2_pi_vector(u)
    a, b = u[0, 0], u[0, 1]
    assert pi @ pi == pytest.approx(abs(b) ** 2 * (1 - abs(b) ** 2) + abs(b) ** 4)


# ---- Lagrangians -------------------------------------------------------------------


def test_su2_trace_lagrangian_matches_operator_form():
    _, kit, split = setup("su2")
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = kit.exp_g(rng.normal(size=3) * 0.6)
        xp = rng.normal(size=3) + 1j * rng.normal(size=3)
        xm = rng.normal(size=3) + 1j * rng.normal(size=3)
        val = lagrangian(kit, split, u, xp, xm)
        trace_val = su2_trace_lagrangian(u, kit.mat(xp), kit.mat(xm))
        assert abs(val - trace_val) / max(abs(val), 1.0) < 1e-10


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_lagrangian_left_right_agreement(algebra):
    """Left-translated form < E_u xi_+, xi_- > equals the right-translated
    form with Ebar_u^-1 = E_e^-1 + Pi(u) on eta_+- = Ad_u xi_+-."""
    _, kit, split = setup(algebra)
    rng = np.random.default_rng(14)
    for _ in range(20):
        u = kit.exp_g(rng.normal(size=3) * 0.5)
        xp = rng.normal(size=3) + 1j * rng.normal(size=3)
        xm = rng.normal(size=3) + 1j * rng.normal(size=3)
        left = lagrangian(kit, split, u, xp, xm)
        a = kit.ad_g(u)
        e_bar = np.linalg.inv(split.e_inv + kit.pi(u))
        right = (a @ xp) @ (e_bar @ (a @ xm))
        assert abs(left - right) < 1e-11 * max(abs(left), 1.0)


def test_su2_dual_vector_lagrangian_matches_operator_form():
    _, kit, split = setup("su2")
    rng = np.random.default_rng(15)
    for _ in range(20):
        t_vec = rng.normal(size=3) * 0.3
        tp = rng.normal(size=3)
        tm = rng.normal(size=3)
        t = kit.su2star_from_vector(t_vec)
        phi_p = -1j * kit.su2star_nabla(t_vec, tp)
        phi_m = -1j * kit.su2star_nabla(t_vec, tm)
        op_val = dual_lagrangian(kit, split, t, phi_p, phi_m)
        vec_val = su2_dual_vector_lagrangian(
            t_vec, kit.su2star_nabla(t_vec, tp), kit.su2star_nabla(t_vec, tm)
        )
        assert abs(op_val - vec_val) / max(abs(op_val), 1.0) < 1e-10


# ---- graph route consistency under transport ---------------------------------------


def test_dual_graph_transport_vs_cocycle():
    """The transported-slice dual operator Ehat_t agrees with the bar form
    E_e + Pi-hat(t) after the change of translation by the m-block B of
    Ad_t: Ehat_t = B^T (E_e + Pi-hat(t))^-1 B, and its graph lies in the
    transported subspace."""
    _, kit, split = setup("su2")
    rng = np.random.default_rng(17)
    t_vec = rng.normal(size=3) * 0.3
    t = kit.su2star_from_vector(t_vec)
    adt, adtinv = kit.ad_d(t), kit.ad_d(np.linalg.inv(t))
    e_hat, _ = graph_slices(split, adtinv)
    b = adt[3:, 3:]
    e_bar = np.linalg.inv(dual_graph_at(kit, split, t))
    assert np.max(np.abs(b.T @ e_bar @ b - e_hat)) < 1e-12
    # the two routes describe the same splitting transported to t: the
    # graph subspaces built from either operator coincide
    graph = np.vstack([e_hat, np.eye(3)])
    span = adtinv @ np.vstack([np.eye(3), split.e_matrix])
    proj = span @ np.linalg.pinv(span)
    assert np.max(np.abs(proj @ graph - graph)) < 1e-10


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_dual_slices_match_solve_route(algebra):
    """(Ehat_t, That_t) from :func:`graph_slices` at Ad_{t^-1} apply as the
    former route did: slice Ad_{t^-1} [1; X_e] over g, then solve."""
    _, kit, split = setup(algebra)
    rng = np.random.default_rng(18)
    for _ in range(20):
        p = rng.normal(size=3) * 0.4
        t = kit.exp_m(-1j * p if algebra == "su2" else p)
        ad = kit.ad_d(np.linalg.inv(t))
        phi = rng.normal(size=3) + 1j * rng.normal(size=3)
        for x_e, x_hat in zip((split.e_matrix, split.t_matrix), graph_slices(split, ad)):
            moved = ad @ np.vstack([np.eye(3), x_e])
            want = np.linalg.solve(moved[3:] @ np.linalg.inv(moved[:3]), phi)
            assert np.max(np.abs(x_hat @ phi - want)) < 1e-12 * np.max(np.abs(want))


def test_graph_inverse_names_the_singular_node():
    """On a stack the chart check names the first node past the cutoff; on
    one matrix the message names no node."""
    _, kit, split = setup("su2")
    rng = np.random.default_rng(19)
    u = kit.exp_g(rng.normal(size=(16, 3)) * 0.5)
    e_inv, _ = graph_slices(split, kit.ad_d(np.linalg.inv(u)[:, None]))
    assert np.allclose(graph_inverse(e_inv, "E_u^-1") @ e_inv, np.eye(3))
    e_inv[11] = np.diag([1.0, 1.0, 1e-12])
    with pytest.raises(GraphBlowupError, match=r"^E_u\^-1 condition number .* \(first at node 11\)$"):
        graph_inverse(e_inv, "E_u^-1")
    with pytest.raises(GraphBlowupError) as info:
        graph_inverse(e_inv[11], "E_u^-1")
    assert "node" not in str(info.value)
