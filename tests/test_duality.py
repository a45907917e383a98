"""Splitting family, graph coordinates, closed forms and Lagrangians."""

import dataclasses

import numpy as np
import pytest

from pltdual.bialgebra import QuasiBialgebra
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
    validation_report,
)
from pltdual.groups import GroupKit
from pltdual.liecore import LieAlgebra
from pltdual.models import make_preset

from identities import chiral_pairing_defect, splitting_defects

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
        defects = splitting_defects(splitting(pre))
        assert defects["orthogonality"] < 1e-10
        assert defects["diagonal_plus"] < 1e-10 and defects["diagonal_minus"] < 1e-10
        assert defects["projectors"] < 1e-12


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
    plus, minus = split.basis_pair
    assert np.linalg.matrix_rank(np.hstack([plus, minus])) == 6
    assert np.max(np.abs(split.pi_diff @ plus - plus)) < 1e-12
    assert np.max(np.abs(split.pi_diff @ minus + minus)) < 1e-12


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
        a = kit.ad_g(u)[1]
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
    adt, adtinv = kit.ad_d(t)[1], kit.ad_d(np.linalg.inv(t))[1]
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
        ad = kit.ad_d(np.linalg.inv(t))[1]
        phi = rng.normal(size=3) + 1j * rng.normal(size=3)
        for x_e, x_hat in zip((split.e_matrix, np.linalg.inv(split.t_inv)), graph_slices(split, ad)):
            moved = ad @ np.vstack([np.eye(3), x_e])
            want = np.linalg.solve(moved[3:] @ np.linalg.inv(moved[:3]), phi)
            assert np.max(np.abs(x_hat @ phi - want)) < 1e-12 * np.max(np.abs(want))


def test_graph_inverse_names_the_singular_node():
    """On a stack the chart check names the first node past the cutoff; on
    one matrix the message names no node."""
    _, kit, split = setup("su2")
    rng = np.random.default_rng(19)
    u = kit.exp_g(rng.normal(size=(16, 3)) * 0.5)
    e_inv, _ = graph_slices(split, kit.ad_d(np.linalg.inv(u)[:, None])[1])
    assert np.allclose(graph_inverse(e_inv, "E_u^-1") @ e_inv, np.eye(3))
    e_inv[11] = np.diag([1.0, 1.0, 1e-12])
    with pytest.raises(GraphBlowupError, match=r"^E_u\^-1 condition number .* \(first at node 11\)$"):
        graph_inverse(e_inv, "E_u^-1")
    with pytest.raises(GraphBlowupError) as info:
        graph_inverse(e_inv[11], "E_u^-1")
    assert "node" not in str(info.value)


def with_singular_values(rng, sigmas):
    """A complex 3x3 matrix U diag(sigmas) V^H with random unitary U, V."""
    def unitary():
        return np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    return unitary() @ np.diag(sigmas) @ unitary().conj().T


def frobenius_bound(m):
    """|m|_F |m^-1|_F, which is never below the 2-norm condition number."""
    return np.linalg.norm(m) * np.linalg.norm(np.linalg.inv(m))


def graph_stack(rng, j, bad):
    """Eight well-conditioned maps with ``bad`` at node j."""
    m = np.stack([with_singular_values(rng, [2.0, 1.0, 0.5]) for _ in range(8)])
    m[j] = bad
    return m


@pytest.mark.parametrize("j", [0, 5])
def test_graph_inverse_verdict_at_the_cutoff(j):
    """A node just inside the cutoff passes and is inverted; one just past it
    raises with its SVD condition number, naming the first bad node."""
    rng = np.random.default_rng(20 + j)
    # the middle singular value at the geometric mean keeps the Frobenius
    # bound within about 1 + 1/cond of cond itself
    below = with_singular_values(rng, [1.0, 1e-4, 1.0 / (1e8 * (1 - 1e-6))])
    assert frobenius_bound(below) <= 1e8
    m = graph_stack(rng, j, below)
    got = graph_inverse(m, "T_u^-1")
    assert np.max(np.abs(got @ m - np.eye(3))) < 1e-6
    above = with_singular_values(rng, [1.0, 1e-4, 1.0 / (1e8 * (1 + 1e-6))])
    m = graph_stack(rng, j, above)
    m[j + 2] = above  # a later bad node is not the one named
    message = (f"T_u^-1 condition number {np.linalg.cond(m)[j]:.3e} exceeds cutoff "
               f"(first at node {j})")
    with pytest.raises(GraphBlowupError) as info:
        graph_inverse(m, "T_u^-1")
    assert str(info.value) == message


def test_graph_inverse_passes_a_node_past_the_frobenius_bound():
    """cond_2 below the cutoff with |m|_F |m^-1|_F above it: the node is
    checked by its SVD condition number, and passes."""
    rng = np.random.default_rng(21)
    bad = with_singular_values(rng, [1.0, 1.0 / 0.9e8, 1.0 / 0.9e8])
    assert np.linalg.cond(bad) < 1e8 < frobenius_bound(bad)
    m = graph_stack(rng, 3, bad)
    got = graph_inverse(m, "E_u^-1")
    assert np.max(np.abs(got[3] @ bad - np.eye(3))) < 1e-6
    assert np.array_equal(got[:3], np.linalg.inv(m[:3]))


def test_graph_inverse_names_an_exactly_singular_node():
    rng = np.random.default_rng(22)
    m = graph_stack(rng, 6, np.diag([1.0, 2.0, 0.0]))
    with pytest.raises(GraphBlowupError,
                       match=r"^E_u\^-1 condition number inf exceeds cutoff \(first at node 6\)$"):
        graph_inverse(m, "E_u^-1")


def test_graph_inverse_of_a_nan_stack_is_a_graph_blowup():
    """A non-finite node fails as it does in a collected check."""
    rng = np.random.default_rng(23)
    m = graph_stack(rng, 2, np.full((3, 3), np.nan))
    with pytest.raises(GraphBlowupError,
                       match=r"^E_u\^-1 condition number nan exceeds cutoff \(first at node 2\)$"):
        graph_inverse(m, "E_u^-1")


# ---- every validation residual can fail -------------------------------------------


def _with(preset, g=None, rho=None):
    """The preset on the bialgebra (g, rho), each defaulting to its own."""
    b = preset.bialgebra
    bialg = QuasiBialgebra(b.g if g is None else g, b.rho if rho is None else rho, b.name)
    return dataclasses.replace(preset, bialgebra=bialg, rescale=1.0)


def _rho_noise(mp, preset):
    rho = preset.bialgebra.rho
    return _with(preset, rho=rho + 0.3 * np.random.default_rng(5).normal(size=rho.shape))


def _part_doubled(sign):
    """r with its antisymmetric (sign -1) or symmetric (sign +1) part doubled."""
    def mutate(mp, preset):
        rho = preset.bialgebra.rho
        return _with(preset, rho=rho + 0.5 * (rho + sign * rho.T))
    return mutate


def _broken_constants(mp, preset):
    b = preset.bialgebra
    c = np.random.default_rng(5).normal(size=b.g.c.shape)
    return _with(preset, g=LieAlgebra(c - np.swapaxes(c, 0, 1), b.g.labels, name=b.g.name))


def _ad_g_swapped(mp, preset):
    """A group-kit defect: ad_g returns (Ad_u, Ad_{u^-1})."""
    ad_g = GroupKit.ad_g
    mp.setattr(GroupKit, "ad_g", lambda kit, u: ad_g(kit, u)[::-1])
    return preset


# each residual key of validation_report: a named, seeded mutation that it
# must flag
MUTATIONS = {
    "cybe": ("antisymmetric part of r doubled", _part_doubled(-1.0)),
    "symmetric_part_invariance": ("r plus seeded noise", _rho_noise),
    "dual_jacobi": ("r plus seeded noise", _rho_noise),
    "double_jacobi": ("broken structure constants", _broken_constants),
    "pairing_ad_invariance": ("r plus seeded noise", _rho_noise),
    "chiral_iso_morphism": ("symmetric part of r doubled", _part_doubled(1.0)),
    "graph_route_agreement": ("ad_g returns its pair swapped", _ad_g_swapped),
}


@pytest.mark.parametrize("algebra", ["su2", "sl2r"])
def test_every_validation_residual_flags_its_mutation(monkeypatch, algebra):
    preset = make_preset("modified-principal", algebra=algebra)
    clean = validation_report(preset)["residuals"]
    assert set(clean) == set(MUTATIONS)
    assert max(clean.values()) < 1e-12
    for key, (name, mutate) in MUTATIONS.items():
        with monkeypatch.context() as mp:
            flagged = validation_report(mutate(mp, preset))["residuals"][key]
        assert flagged > 1e-6, f"{key} reads {flagged:.1e} under '{name}'"


def _graph_block_doubled(split, side):
    """The splitting with the graph block of basis ``side`` (0: E_+, 1: E_-)
    doubled."""
    pair = split.basis_pair.copy()
    pair[side, :3] *= 2.0
    return dataclasses.replace(split, basis_pair=pair)


@pytest.mark.parametrize("algebra", ["su2", "sl2r"])
def test_identity_checks_flag_code_defects(algebra):
    """Each identity that no model can move still flags a defect in the
    code that builds it: in splitting's bases or projector difference, or
    in chiral_matrix."""
    pre, _, split = setup(algebra)
    b = pre.bialgebra
    eye = np.eye(3)
    flagged = {
        "chiral_matrix with r2 in place of r1":
            chiral_pairing_defect(b, np.block([[eye, b.rho], [eye, -b.rho]])),
        "pi_diff transposed": splitting_defects(
            dataclasses.replace(split, pi_diff=split.pi_diff.T))["projectors"],
    }
    for side, name in enumerate(("E_+", "E_-")):
        defects = splitting_defects(_graph_block_doubled(split, side))
        for key in ("orthogonality", ("diagonal_plus", "diagonal_minus")[side], "projectors"):
            flagged[f"{name} graph block doubled: {key}"] = defects[key]
    for name, value in flagged.items():
        assert value > 1e-6, f"{value:.1e} under '{name}'"
