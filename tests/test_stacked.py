"""Stacked 2x2 kernels and the loop-free field diagnostics.

The stacked factorizations and adjoint actions are compared node by node
with the same ``GroupKit`` calls on one node and with a copy of the former
closed-form scalar code, and the chiral stack (..., side, 2, 2) that every
double-group method takes is checked against the (left, right) argument
pairs it replaced; ``duality_check``, ``eom_residuals`` and the loop
initializers are compared with per-node copies of the loops they replaced,
and the field and particle steps, which share ``groups.rkmk4``, with copies
of the two hand-unrolled RKMK4 steppers it replaced.  The field step's
wrapped stencils and its constant 8x8 generator map are compared with the
``np.roll`` stencils and the coefficient chain they replaced.  The particle
right-hand side, energy and charges, which conjugate constants by the
adjoint pair (Ad_{u^-1}, Ad_u), are compared with copies of the graph-map
and linear-solve code they replaced.  The closed-form dexp^-1 of RKMK4 is
compared with the commutator form it replaced, which the two unrolled
steppers use.  The broadcast 2x2 product ``_vmul`` is compared with
numpy's ``@`` (and is ``@`` itself on stacks small enough to stay on it),
the adjugate ``_vadj`` with the inverse on unimodular stacks, and the
graph slices of one stacked product with the per-basis products they
replaced.  The particle's energy and charges of stacked records, with one
stacked adjoint pair, are compared with their per-record calls.  Counts
show that the field step builds its generator map once per splitting,
that a recorded loop state is factorized once in each order and that a
particle trajectory builds one adjoint pair per stage and one for all its
records.
"""

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pltdual import fieldsim as fs
from pltdual import particle as pt
from pltdual.duality import graph_at, graph_slices, splitting
from pltdual.groups import (
    FactorizationError,
    GroupKit,
    _vadj,
    _vdet_normalize,
    _vdexpinv,
    _vmul,
    expm2,
)
from pltdual.liecore import bracket_coeffs
from pltdual.models import ALGEBRA_NAMES, PRESET_NAMES, make_preset


@lru_cache(maxsize=None)
def kit_and_split(algebra):
    preset = make_preset("modified-principal", algebra=algebra)
    return GroupKit(preset.bialgebra), splitting(preset)


loops = st.fixed_dictionaries(
    {
        "algebra": st.sampled_from(["su2", "sl2r"]),
        "boundary": st.sampled_from(["periodic", "double-neumann"]),
        "n_cells": st.integers(min_value=8, max_value=21),
        "seed": st.integers(min_value=0, max_value=2**16),
        "amplitude": st.floats(min_value=0.05, max_value=0.3),
    }
)


def make_loop(cfg):
    kit, split = kit_and_split(cfg["algebra"])
    return fs.random_smooth_loop(
        kit, split, cfg["n_cells"], boundary=cfg["boundary"], seed=cfg["seed"],
        amplitude=cfg["amplitude"],
    )


# ---- reference copies of the per-node code the kernels replaced -------------------


def _inv2(m):
    d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / d


def ref_factorize_gm(kit, k):
    left, right = k
    z = _inv2(right) @ left
    d1 = z[0, 0]
    sq1 = np.sqrt(complex(d1))
    s_left = np.array([[sq1, z[0, 1] / sq1], [0.0, 1.0 / sq1]], dtype=complex)
    u = left @ _inv2(s_left)
    return u, np.stack([s_left, _inv2(u) @ right])


def ref_ad_g(kit, u):
    uinv = _inv2(u)
    cols = []
    for e in kit.basis:
        m = u @ e @ uinv
        cols.append(kit._demat @ np.array([m[0, 0], m[0, 1], m[1, 0]]))
    return np.stack(cols, axis=1)


def ref_ad_d(kit, k):
    blk = np.zeros((6, 6), dtype=complex)
    blk[:3, :3] = ref_ad_g(kit, k[0])
    blk[3:, 3:] = ref_ad_g(kit, k[1])
    return kit.chi_inv @ blk @ kit.chi


def ref_ad_d_pair(kit, left, right):
    """The former two-argument ad_d, which computed Ad_u on g once when
    passed the same array twice."""
    al = kit.ad_g(left)
    ar = al if right is left else kit.ad_g(right)
    lead = al.shape[:-2]
    map_l, map_r = kit._ad_d_maps
    flat = al.reshape(lead + (9,)) @ map_l + ar.reshape(lead + (9,)) @ map_r
    return flat.reshape(lead + (6, 6))


def side_distance(a, b):
    """Sum over both sides of the Frobenius distance of two chiral stacks."""
    return float(np.linalg.norm(a[0] - b[0]) + np.linalg.norm(a[1] - b[1]))


def ref_duality_check(state):
    kit = state.kit
    w = fs._tangent_field(state)
    pd = state.split.pi_diff
    p = state.split.pairing
    gap = 0.0
    recon = 0.0
    for j in range(state.n_nodes):
        k = state.k[j]
        u, s = kit.factorize_gm(k)
        t, v = kit.factorize_mg(k)
        recon = max(recon, side_distance(u @ s, k), side_distance(t @ v, k))
        uinv = np.linalg.inv(u)
        adu = kit.ad_d(u[None])
        adui = kit.ad_d(uinv[None])
        wu = adui @ w[j]
        hu = 0.25 * (wu @ ((adui @ pd @ adu).T @ (p.T @ wu)))
        adt = kit.ad_d(t)
        adti = kit.ad_d(np.linalg.inv(t))
        wt = adti @ w[j]
        ht = 0.25 * (wt @ ((adti @ pd @ adt).T @ (p.T @ wt)))
        gap = max(gap, abs(hu - ht))
    return gap + recon


def ref_primal_fields(state):
    kit, split = state.kit, state.split
    us = [kit.factorize_gm(state.k[j])[0] for j in range(state.n_nodes)]
    dux = fs._x_derivative(np.stack(us), state.dx, state.boundary, order=2)
    kdot = fs._tangent_field(state) @ (split.pi_minus - split.pi_plus).T
    a, b = [], []
    for j, u in enumerate(us):
        uinv = np.linalg.inv(u)
        xi_x = kit.coeffs(uinv @ dux[j])
        xi_t = (kit.ad_d(uinv[None]) @ kdot[j])[:3]
        e_inv, t_inv = graph_at(kit, split, u)
        a.append(np.linalg.inv(e_inv) @ (0.5 * (xi_t - xi_x)))
        b.append(np.linalg.inv(t_inv) @ (0.5 * (xi_t + xi_x)))
    return np.stack(a), np.stack(b)


def ref_dual_fields(state):
    kit, split = state.kit, state.split
    ts = [kit.factorize_mg(state.k[j])[0] for j in range(state.n_nodes)]
    dts = fs._x_derivative(np.stack(ts), state.dx, state.boundary, order=2)
    kdot = fs._tangent_field(state) @ (split.pi_minus - split.pi_plus).T
    a, b = [], []
    for j, t in enumerate(ts):
        tinv = np.linalg.inv(t)
        phi_x = kit.tangent_coeffs(tinv @ dts[j])[3:]
        ad = kit.ad_d(tinv)
        phi_t = (ad @ kdot[j])[3:]
        # Ehat_t^-1, That_t^-1 (g -> m): Ad_{t^-1} [1; X_e] sliced over g
        moved = [ad @ np.vstack([np.eye(3), xe]) for xe in (split.e_matrix, split.t_matrix)]
        e_hat_inv, t_hat_inv = (x[3:] @ np.linalg.inv(x[:3]) for x in moved)
        a.append(np.linalg.solve(e_hat_inv, 0.5 * (phi_t - phi_x)))
        b.append(np.linalg.solve(t_hat_inv, 0.5 * (phi_t + phi_x)))
    return np.stack(a), np.stack(b)


def ref_eom_residuals(state0, state1):
    dt = state1.time - state0.time
    dx, bd = state0.dx, state0.boundary
    bialgebra = state0.split.preset.bialgebra
    interior = slice(2, -2) if bd == "double-neumann" else slice(None)

    def residual(fields0, fields1, c_rhs):
        (a0, b0), (a1, b1) = fields0, fields1
        a_mid, b_mid = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
        da_t, db_t = (a1 - a0) / dt, (b1 - b0) / dt
        da_x = 0.5 * (fs._x_derivative(a0, dx, bd, order=2) + fs._x_derivative(a1, dx, bd, order=2))
        db_x = 0.5 * (fs._x_derivative(b0, dx, bd, order=2) + fs._x_derivative(b1, dx, bd, order=2))
        lhs = 0.5 * (db_t - db_x) - 0.5 * (da_t + da_x)
        rhs = np.stack([bracket_coeffs(c_rhs, a_mid[j], b_mid[j]) for j in range(len(a_mid))])
        return float(np.abs((lhs - rhs)[interior]).max())

    return (
        residual(ref_primal_fields(state0), ref_primal_fields(state1), bialgebra.m.c),
        residual(ref_dual_fields(state0), ref_dual_fields(state1), bialgebra.g.c),
    )


def ref_vdexpinv(sigma, v):
    """The former dexp^-1 of RKMK4, from two commutators of the stacks."""
    c1 = sigma @ v - v @ sigma
    return v - 0.5 * c1 + (sigma @ c1 - c1 @ sigma) / 12.0


def ref_expm2(x):
    """The former single-matrix exponential (determinant from LU)."""
    theta2 = -np.linalg.det(x)
    theta = np.sqrt(theta2)
    if abs(theta) < 1e-6:
        c = 1 + theta2 / 2 + theta2**2 / 24 + theta2**3 / 720
        s = 1 + theta2 / 6 + theta2**2 / 120 + theta2**3 / 5040
    else:
        c, s = np.cosh(theta), np.sinh(theta) / theta
    return c * np.eye(2) + s * x


def ref_loop(kit, ws):
    """Chiral stacks of exp(w) node by node, with the su2 dual real form."""
    ks = []
    for w in ws:
        wc = w.astype(complex)
        if kit.flavor == "su2":
            wc[3:] = -1j * w[3:]
        left, right = kit.chiral_mats(wc)
        ks.append([ref_expm2(left), ref_expm2(right)])
    return np.array(ks)


def ref_random_smooth_loop(kit, cfg, n_modes=2):
    rng = np.random.default_rng(cfg["seed"])
    xs = fs.grid_points(cfg["n_cells"], cfg["boundary"])
    mode_step = 2 if cfg["boundary"] == "periodic" else 1
    coeffs = rng.normal(size=(n_modes + 1, 6)) * cfg["amplitude"] / (n_modes + 1)
    ws = []
    for x in xs:
        w = np.zeros(6)
        for m in range(n_modes + 1):
            w = w + coeffs[m] * np.cos(mode_step * m * x)
        ws.append(w)
    return ref_loop(kit, ws)


def ref_centered_bump_loop(kit, cfg, radius=0.45):
    rng = np.random.default_rng(cfg["seed"])
    coeffs = rng.normal(size=(2, 6)) * cfg["amplitude"]
    ws = []
    for x in fs.grid_points(cfg["n_cells"], cfg["boundary"]):
        y = (x - np.pi / 2) / radius
        env = np.exp(1.0 - 1.0 / (1.0 - y * y)) if abs(y) < 1.0 else 0.0
        ws.append(env * (coeffs[0] + coeffs[1] * np.sin(np.pi * y)))
    return ref_loop(kit, ws)


def ref_roll_derivative(f, dx, order):
    """The former periodic stencils, from np.roll."""
    if order == 2:
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * dx)
    return (
        -np.roll(f, -2, axis=0)
        + 8 * np.roll(f, -1, axis=0)
        - 8 * np.roll(f, 1, axis=0)
        + np.roll(f, 2, axis=0)
    ) / (12 * dx)


def ref_flow_generators(kit, split, w):
    """The former chain from the chiral stack of k_x k^-1 to that of dk/dt k^-1."""
    return kit.chiral_mats(kit.tangent_coeffs(w) @ (split.pi_minus - split.pi_plus).T)


def ref_field_step(state, dt):
    """The former unrolled RKMK4 step of the loop flow, one chiral side at a time."""

    def gens(kl, kr):
        wl = fs._x_derivative(kl, state.dx, state.boundary) @ np.linalg.inv(kl)
        wr = fs._x_derivative(kr, state.dx, state.boundary) @ np.linalg.inv(kr)
        gen = ref_flow_generators(state.kit, state.split, np.stack([wl, wr], axis=1))
        return gen[:, 0], gen[:, 1]

    kl0, kr0 = state.kl, state.kr
    al1, ar1 = gens(kl0, kr0)
    bl1, br1 = al1, ar1
    al2, ar2 = gens(expm2(0.5 * dt * bl1) @ kl0, expm2(0.5 * dt * br1) @ kr0)
    bl2 = ref_vdexpinv(0.5 * dt * bl1, al2)
    br2 = ref_vdexpinv(0.5 * dt * br1, ar2)
    al3, ar3 = gens(expm2(0.5 * dt * bl2) @ kl0, expm2(0.5 * dt * br2) @ kr0)
    bl3 = ref_vdexpinv(0.5 * dt * bl2, al3)
    br3 = ref_vdexpinv(0.5 * dt * br2, ar3)
    al4, ar4 = gens(expm2(dt * bl3) @ kl0, expm2(dt * br3) @ kr0)
    bl4 = ref_vdexpinv(dt * bl3, al4)
    br4 = ref_vdexpinv(dt * br3, ar4)
    sl = (dt / 6.0) * (bl1 + 2 * bl2 + 2 * bl3 + bl4)
    sr = (dt / 6.0) * (br1 + 2 * br2 + 2 * br3 + br4)
    return _vdet_normalize(expm2(sl) @ kl0), _vdet_normalize(expm2(sr) @ kr0)


def ref_particle_step(kit, split, state, dt):
    """The former unrolled RKMK4 particle step: u by the transposed
    dexp^-1 chain, then both chiral factors of a on the recorded w stages."""
    u0, p0, a0 = state.u, state.p, state.a

    def stage(u, dp):
        udot, pdot, w = pt.particle_rhs(kit, split, u, p0 + dp)
        return kit.mat(udot), pdot, w

    b1, kp1, w1 = stage(u0, 0.0)
    a2, kp2, w2 = stage(u0 @ expm2(0.5 * dt * b1), 0.5 * dt * kp1)
    b2 = ref_vdexpinv((0.5 * dt * b1).T, a2.T).T
    a3, kp3, w3 = stage(u0 @ expm2(0.5 * dt * b2), 0.5 * dt * kp2)
    b3 = ref_vdexpinv((0.5 * dt * b2).T, a3.T).T
    a4, kp4, w4 = stage(u0 @ expm2(dt * b3), dt * kp3)
    b4 = ref_vdexpinv((dt * b3).T, a4.T).T
    u1 = u0 @ expm2((dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4))
    p1 = p0 + (dt / 6.0) * (kp1 + 2 * kp2 + 2 * kp3 + kp4)
    c1, m2, m3, m4 = (kit.mat((kit.chi[:, 3:] @ w).reshape(2, 3)) for w in (w1, w2, w3, w4))
    c2 = ref_vdexpinv(0.5 * dt * c1, m2)
    c3 = ref_vdexpinv(0.5 * dt * c2, m3)
    c4 = ref_vdexpinv(dt * c3, m4)
    a_left, a_right = expm2((dt / 6.0) * (c1 + 2 * c2 + 2 * c3 + c4))
    # integrate_particle renormalized u after each step
    return _vdet_normalize(u1), p1, a_left @ a0[0], a_right @ a0[1]


def ref_graph_maps(kit, split, u):
    """The former E_u^-1, T_u^-1 of the particle: Ad_{u^-1} (X_e - r1) + r1."""
    a = ref_ad_g(kit, np.linalg.inv(u))
    r1 = split.preset.bialgebra.rho.T
    return a @ (split.e_inv - r1) @ a.T + r1, a @ (split.t_inv - r1) @ a.T + r1


def ref_particle_rhs(kit, split, u, p):
    """The former right-hand side by two linear solves; also returns x, the
    solve of which w = 2 x - p is the difference."""
    e_inv, t_inv = ref_graph_maps(kit, split, u)
    d = e_inv - t_inv
    x = np.linalg.solve(d, e_inv @ p)
    w = np.linalg.solve(d, (e_inv + t_inv) @ p)
    return 2.0 * (t_inv @ x), bracket_coeffs(split.preset.bialgebra.m.c, w, p), w, x


def ref_particle_hamiltonian(kit, split, u, p):
    e_inv, t_inv = ref_graph_maps(kit, split, u)
    ep = e_inv @ p
    return 0.5 * complex(np.linalg.solve(e_inv - t_inv, ep) @ ep)


def ref_particle_charges(kit, split, u, p):
    """The former charges from the 6x6 Ad_u of the double."""
    w = np.zeros(6, dtype=complex)
    w[3:] = p
    moved = kit.ad_d(u[None]) @ w
    return moved[3:], moved[:3], -0.5 * (split.pairing @ moved)


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


# ---- stacked kernels against the single-element calls ------------------------------


@settings(max_examples=25, deadline=None)
@given(loops)
def test_stacked_kernels_match_single_element_calls(cfg):
    state = make_loop(cfg)
    kit = state.kit
    stacked = (*kit.factorize_gm(state.k), *kit.factorize_mg(state.k), kit.ad_d(state.k))
    for j in range(state.n_nodes):
        k = state.k[j]
        single = (*kit.factorize_gm(k), *kit.factorize_mg(k), kit.ad_d(k))
        for got, want in zip(stacked, single):
            assert np.abs(got[j] - want).max() < 1e-13
        for got, want in zip(stacked[:2], ref_factorize_gm(kit, k)):
            assert np.abs(got[j] - want).max() < 1e-13
        assert np.abs(stacked[-1][j] - ref_ad_d(kit, k)).max() < 1e-13


@settings(max_examples=15, deadline=None)
@given(loops)
def test_initializers_match_per_node_loops(cfg):
    kit, split = kit_and_split(cfg["algebra"])
    args = (kit, split, cfg["n_cells"])
    kw = {"boundary": cfg["boundary"], "seed": cfg["seed"], "amplitude": cfg["amplitude"]}
    u0 = kit.exp_g(np.array([0.2, -0.1, 0.3]))
    p = np.array([0.3, 0.1, -0.2]) * (-1j if cfg["algebra"] == "su2" else 1.0)
    pointlike = fs.init_pointlike(kit, split, u0, p, cfg["n_cells"], boundary=cfg["boundary"])
    xs = fs.grid_points(cfg["n_cells"], cfg["boundary"])
    ref_s = [kit.chiral_mats(np.concatenate([np.zeros(3), x * p])) for x in xs]
    cases = (
        (fs.random_smooth_loop(*args, **kw), ref_random_smooth_loop(kit, cfg)),
        (fs.centered_bump_loop(*args, **kw), ref_centered_bump_loop(kit, cfg)),
        (pointlike, np.array([[u0 @ ref_expm2(m[0]), u0 @ ref_expm2(m[1])] for m in ref_s])),
    )
    for state, k in cases:
        assert state.k.shape == k.shape
        assert np.abs(state.kl - k[:, 0]).max() < 1e-14
        assert np.abs(state.kr - k[:, 1]).max() < 1e-14


# ---- the chiral stack against the argument pairs it replaced ------------------------


def random_group_points(kit, rng, lead):
    """G-valued points, off the real form of the group, stacked over ``lead``."""
    xi = rng.uniform(-0.4, 0.4, lead + (3,)) + 1j * rng.uniform(-0.4, 0.4, lead + (3,))
    return expm2(kit.mat(xi))


@pytest.mark.parametrize("lead", [(), (1,), (7,), (3, 4)])
@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
def test_ad_d_broadcast_side_matches_pair(algebra, lead):
    kit, _ = kit_and_split(algebra)
    u = random_group_points(kit, np.random.default_rng(len(lead)), lead)
    got = kit.ad_d(u[..., None, :, :])
    assert got.shape == lead + (6, 6)
    assert rel_err(got, kit.ad_d(np.stack([u, u], -3))) < 1e-13
    assert rel_err(got, ref_ad_d_pair(kit, u, u)) < 1e-13
    k = np.stack([u, random_group_points(kit, np.random.default_rng(9), lead)], -3)
    assert rel_err(kit.ad_d(k), ref_ad_d_pair(kit, k[..., 0, :, :], k[..., 1, :, :])) < 1e-13


@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
def test_hat_pi_of_a_stack_matches_per_element_calls(algebra):
    kit, _ = kit_and_split(algebra)
    rng = np.random.default_rng(5)
    t = kit.exp_m(rng.uniform(-0.4, 0.4, (7, 3)) + 1j * rng.uniform(-0.4, 0.4, (7, 3)))
    got = kit.hat_pi(t)
    assert got.shape == (7, 3, 3)
    for j in range(7):
        assert rel_err(got[j], kit.hat_pi(t[j])) < 1e-13


@pytest.mark.parametrize("lead", [(), (16,)])
@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
def test_tangent_coeffs_round_trips_chiral_mats(algebra, lead):
    kit, _ = kit_and_split(algebra)
    rng = np.random.default_rng(11)
    w = rng.normal(size=lead + (6,)) + 1j * rng.normal(size=lead + (6,))
    m = kit.chiral_mats(w)
    assert m.shape == lead + (2, 2, 2)
    assert rel_err(kit.tangent_coeffs(m), w) < 1e-13


@settings(max_examples=15, deadline=None)
@given(loops)
def test_factorizations_rebuild_k(cfg):
    state = make_loop(cfg)
    kit = state.kit
    for k in (state.k[state.n_nodes // 2], state.k):
        u, s = kit.factorize_gm(k)
        t, v = kit.factorize_mg(k)
        assert u.shape == v.shape == k.shape[:-3] + (2, 2)
        assert s.shape == t.shape == k.shape
        assert rel_err(u[..., None, :, :] @ s, k) < 1e-13
        assert rel_err(t @ v[..., None, :, :], k) < 1e-13


# ---- loop-free diagnostics against the per-node loops ------------------------------


@settings(max_examples=12, deadline=None)
@given(loops)
def test_diagnostics_match_per_node_loops(cfg):
    state0 = make_loop(cfg)
    state1 = fs.step(state0, 0.25 * state0.dx)
    gap, ref_gap = fs.duality_check(state1), ref_duality_check(state1)
    assert gap < 1e-12 and ref_gap < 1e-12
    for got, want in zip(fs.eom_residuals(state0, state1), ref_eom_residuals(state0, state1)):
        assert abs(got - want) <= 1e-9 * abs(want)


# ---- the shared RKMK4 stepper against the unrolled ones --------------------------------


def random_traceless(rng, size):
    m = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    m[:, 1, 1] = -m[:, 0, 0]
    return m


@pytest.mark.parametrize("norm", [1e-3, 1e-2, 1e-1, 1.0])
@pytest.mark.parametrize("size", [1, 3, 32, 128])
def test_closed_form_dexpinv_matches_commutators(size, norm):
    rng = np.random.default_rng(size)
    sigma, v = random_traceless(rng, size), random_traceless(rng, size)
    sigma *= norm / np.linalg.norm(sigma, axis=(-2, -1))[:, None, None]
    assert rel_err(_vdexpinv(sigma, v), ref_vdexpinv(sigma, v)) < 1e-13


# ---- the broadcast 2x2 product and the adjugate --------------------------------------


def random_stack(rng, lead):
    return rng.normal(size=lead + (2, 2)) + 1j * rng.normal(size=lead + (2, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=70), st.integers(min_value=0, max_value=2**16))
def test_vmul_matches_matmul(nodes, seed):
    """Node stacks, chiral stacks and a G-valued u[:, None] against them."""
    rng = np.random.default_rng(seed)
    for lead_a, lead_b in [((nodes,), (nodes,)), ((nodes, 2), (nodes, 2)),
                           ((nodes, 1), (nodes, 2)), ((nodes, 2), (nodes, 1))]:
        a, b = random_stack(rng, lead_a), random_stack(rng, lead_b)
        assert rel_err(_vmul(a, b), a @ b) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.booleans(),
       st.integers(min_value=0, max_value=2**16))
def test_vmul_is_matmul_on_small_stacks(nodes, broadcast, seed):
    """Operands of at most 64 entries each, such as the particle's (3, 2, 2)
    stack, keep numpy's @ bit for bit."""
    rng = np.random.default_rng(seed)
    a, b = random_stack(rng, (nodes,)), random_stack(rng, (1,) if broadcast else (nodes,))
    assert np.array_equal(_vmul(a, b), a @ b)
    assert np.array_equal(_vmul(b, a), b @ a)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=70), st.integers(min_value=0, max_value=2**16),
       st.floats(min_value=1e-3, max_value=2.0))
def test_vadj_inverts_unimodular_stacks(nodes, seed, norm):
    rng = np.random.default_rng(seed)
    x = random_traceless(rng, 2 * nodes)
    x *= norm / np.linalg.norm(x, axis=(-2, -1))[:, None, None]
    k = expm2(x).reshape(nodes, 2, 2, 2)
    assert rel_err(_vadj(k), np.linalg.inv(k)) < 1e-13


@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_graph_slices_match_per_basis_products(algebra, lead):
    kit, split = kit_and_split(algebra)
    rng = np.random.default_rng(len(lead))
    ad = kit.ad_d(random_group_points(kit, rng, lead)[..., None, :, :])
    n = kit.b.g.dim
    for got, basis in zip(graph_slices(split, ad), (split.basis_plus, split.basis_minus)):
        x = ad @ basis
        assert rel_err(got, x[..., :n, :] @ np.linalg.inv(x[..., n:, :])) < 1e-13


@settings(max_examples=20, deadline=None)
@given(loops, st.floats(min_value=0.05, max_value=0.5))
def test_field_step_matches_unrolled_stepper(cfg, cfl):
    state = make_loop(cfg)
    stepped = fs.step(state, cfl * state.dx)
    kl, kr = ref_field_step(state, cfl * state.dx)
    assert rel_err(stepped.kl, kl) < 1e-13
    assert rel_err(stepped.kr, kr) < 1e-13


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n_nodes", [1, 2, 5, 16])
@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2)])
def test_wrapped_stencils_match_rolls(order, n_nodes, shape):
    rng = np.random.default_rng(n_nodes)
    f = rng.normal(size=(n_nodes, *shape)) + 1j * rng.normal(size=(n_nodes, *shape))
    got = fs._x_derivative(f, 0.3, "periodic", order=order)
    assert np.array_equal(got, ref_roll_derivative(f, 0.3, order))


@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
def test_generator_map_matches_coefficient_chain(algebra, preset):
    kit, split = preset_kit_and_split(algebra, preset)
    rng = np.random.default_rng(7)
    wl, wr = (kit.mat(rng.normal(size=(32, 3)) + 1j * rng.normal(size=(32, 3)))
              for _ in range(2))
    w = np.stack([wl, wr], axis=1)
    got = w.reshape(32, 8) @ fs._generator_map(kit, split)
    want = ref_flow_generators(kit, split, w).reshape(32, 8)
    assert rel_err(got, want) < 1e-14


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["su2", "sl2r"]),
    st.integers(min_value=0, max_value=2**16),
    st.floats(min_value=1e-3, max_value=0.1),
)
def test_particle_step_matches_unrolled_stepper(algebra, seed, dt):
    kit, split = kit_and_split(algebra)
    rng = np.random.default_rng(seed)
    u0 = kit.exp_g(rng.normal(size=3) * 0.3)
    p0 = (rng.normal(size=3) * 0.4).astype(complex)
    a0 = kit.exp_m(rng.normal(size=3) * 0.2)
    stepped = pt._rk_mk_step(kit, split, pt.ParticleState(u0, p0, a0), dt)
    u1, p1, a_left, a_right = ref_particle_step(kit, split, pt.ParticleState(u0, p0, a0), dt)
    assert rel_err(stepped.u, u1) < 1e-13
    assert rel_err(stepped.p, p1) < 1e-13
    assert stepped.a.shape == (2, 2, 2)
    assert rel_err(stepped.a[0], a_left) < 1e-13
    assert rel_err(stepped.a[1], a_right) < 1e-13


@lru_cache(maxsize=None)
def preset_kit_and_split(algebra, preset):
    lam_mu = {"lam": 0.3, "mu": 0.7} if preset == "custom" else {}
    p = make_preset(preset, algebra=algebra, **lam_mu)
    return GroupKit(p.bialgebra), splitting(p)


@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_particle_kernels_match_solve_route(algebra, preset, seed):
    kit, split = preset_kit_and_split(algebra, preset)
    rng = np.random.default_rng(seed)
    # complex coefficients put u off the real form of the group
    u = expm2(kit.mat(rng.uniform(-0.4, 0.4, 3) + 1j * rng.uniform(-0.4, 0.4, 3)))
    p = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    a, b = kit.ad_g_pair(u)
    assert rel_err(a, ref_ad_g(kit, np.linalg.inv(u))) < 1e-13
    assert rel_err(b, ref_ad_g(kit, u)) < 1e-13

    udot, pdot, w = pt.particle_rhs(kit, split, u, p)
    ref_udot, ref_pdot, ref_w, x = ref_particle_rhs(kit, split, u, p)
    # the velocities and H are sums that can be far smaller than their
    # terms (w = 2 x - p is O(1/mu) of x in the principal limit, H is a
    # complex quadratic form that can vanish), so their errors are
    # measured against the size of the terms they are formed from
    e_inv, t_inv = ref_graph_maps(kit, split, u)
    size_x, size_p = np.abs(x).max(), np.abs(p).max()
    assert np.abs(udot - ref_udot).max() < 1e-13 * 2.0 * np.abs(t_inv).max() * size_x
    assert np.abs(w - ref_w).max() < 1e-13 * size_x
    assert np.abs(pdot - ref_pdot).max() < 1e-13 * size_x * size_p
    size_h = 0.5 * size_x * np.abs(e_inv).max() * size_p
    h = pt.particle_hamiltonian(kit, split, u, p)
    assert abs(h - ref_particle_hamiltonian(kit, split, u, p)) < 1e-13 * size_h

    for got, want in zip(pt.particle_charges(kit, split, u, p),
                         ref_particle_charges(kit, split, u, p)):
        assert rel_err(got, want) < 1e-13


def particle_term_sizes(split, a, b, p):
    """Sizes of the terms that particle_hamiltonian and particle_charges
    sum for one record: the same products taken on absolute values."""
    c = split.shifted_maps
    r1 = np.abs(c.r1)
    qg = np.abs(a).T @ np.abs(p)
    rp = np.abs(b) @ (r1 @ np.abs(p))
    s = np.abs(c.e_shift) @ qg + rp
    qm = r1 @ qg + rp
    return 0.5 * s @ np.abs(c.d_inv) @ s, (qg, qm, 0.5 * np.abs(split.pairing) @ np.concatenate([qm, qg]))


@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), n_records=st.integers(1, 30))
def test_stacked_particle_records_match_per_record_calls(algebra, preset, seed, n_records):
    kit, split = preset_kit_and_split(algebra, preset)
    rng = np.random.default_rng(seed)
    shape = (n_records, 3)
    us = expm2(kit.mat(rng.uniform(-0.4, 0.4, shape) + 1j * rng.uniform(-0.4, 0.4, shape)))
    ps = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    pair = kit.ad_g_pair(us)
    hams = pt.particle_hamiltonian(kit, split, us, ps, pair)
    charges = pt.particle_charges(kit, split, us, ps, pair)
    assert hams.shape == (n_records,)
    assert [q.shape for q in charges] == [shape, shape, (n_records, 6)]
    for j in range(n_records):
        a, b = kit.ad_g_pair(us[j])
        assert rel_err(pair[0][j], a) < 1e-13
        assert rel_err(pair[1][j], b) < 1e-13
        size_h, sizes = particle_term_sizes(split, a, b, ps[j])
        assert abs(hams[j] - pt.particle_hamiltonian(kit, split, us[j], ps[j])) <= 1e-13 * size_h
        for got, want, size in zip(charges, pt.particle_charges(kit, split, us[j], ps[j]), sizes):
            assert np.all(np.abs(got[j] - want) <= 1e-13 * size)


@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_particle_stack_map_matches_chiral_route(algebra, seed):
    kit, _ = kit_and_split(algebra)
    rng = np.random.default_rng(seed)
    udot, w = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    got = (kit.particle_stack_map @ np.concatenate([udot, w])).reshape(3, 2, 2)
    a_left, a_right = kit.mat((kit.chi[:, 3:] @ w).reshape(2, 3))
    assert rel_err(got, np.stack([kit.mat(udot).T, a_left, a_right])) < 1e-13


# ---- chart checks name the first bad node -------------------------------------------


@pytest.mark.parametrize("algebra", ["su2", "sl2r"])
def test_off_chart_node_is_named(algebra):
    kit, split = kit_and_split(algebra)
    state = fs.random_smooth_loop(kit, split, 24, boundary="periodic", seed=4, amplitude=0.2)
    j = 17
    # k_R^-1 k_L = [[0, 1], [-1, 0]] has a zero pivot, which is off every chart
    state.k[j, 0] = state.k[j, 1] @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    for call in (lambda: kit.factorize_gm(state.k), lambda: fs.duality_check(state)):
        with pytest.raises(FactorizationError, match=f"node {j}\\b"):
            call()


# ---- work done once per splitting and per state ----------------------------------------


def counted(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def test_generator_map_built_once_per_kit_and_splitting(monkeypatch):
    preset = make_preset("modified-principal", algebra="su2")
    kit, split = GroupKit(preset.bialgebra), splitting(preset)
    calls = Counter()
    monkeypatch.setattr(fs, "_generator_map", counted(calls, "map", fs._generator_map))
    state = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=3)
    traj = fs.integrate_field(state, 0.25 * state.dx, 10)
    assert traj.completed and calls["map"] == 1
    fs.step(fs.LoopState(GroupKit(preset.bialgebra), split, state.k, "periodic"), 0.01)
    assert calls["map"] == 2


def test_recorded_loop_state_is_factorized_once_in_each_order(monkeypatch):
    kit, split = kit_and_split("su2")
    calls = Counter()
    factorize_gm, factorize_mg = GroupKit.factorize_gm, GroupKit.factorize_mg
    inside_mg = []

    def gm(self, k):
        # factorize_mg factors k^-1 by factorize_gm, which is part of its one request
        calls["gm"] += not inside_mg
        return factorize_gm(self, k)

    def mg(self, k):
        calls["mg"] += 1
        inside_mg.append(k)
        try:
            return factorize_mg(self, k)
        finally:
            inside_mg.pop()

    monkeypatch.setattr(GroupKit, "factorize_gm", gm)
    monkeypatch.setattr(GroupKit, "factorize_mg", mg)
    monkeypatch.setattr(fs, "_tangent_field", counted(calls, "tangent", fs._tangent_field))
    state = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=3)
    traj = fs.integrate_field(state, 0.25 * state.dx, 6, record_every=1,
                              with_duality=True, with_residuals=True)
    assert traj.completed and np.isfinite(traj.eom_residuals_g[1:]).all()
    n_records = len(traj.times)
    assert calls == Counter(gm=n_records, mg=n_records, tangent=n_records)


def test_recorded_particle_state_builds_one_adjoint_pair(monkeypatch):
    kit, split = kit_and_split("su2")
    calls = Counter()
    monkeypatch.setattr(GroupKit, "ad_g_pair", counted(calls, "pair", GroupKit.ad_g_pair))
    n_steps = 5
    traj = pt.integrate_particle(kit, split, np.eye(2), np.array([0.3, 0.1, -0.2]), 1e-2, n_steps)
    assert traj.completed and len(traj.times) == n_steps + 1
    # one pair for each of a step's four stages, and one stacked pair for
    # all the records together
    assert calls["pair"] == 1 + 4 * n_steps
