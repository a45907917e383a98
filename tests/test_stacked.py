"""Stacked 2x2 kernels and the loop-free field diagnostics.

The stacked factorizations and adjoint actions are compared node by node
with the same ``GroupKit`` calls on one node and with a copy of the former
closed-form scalar code; ``duality_check``, ``eom_residuals`` and the loop
initializers are compared with per-node copies of the loops they replaced,
and the field and particle steps, which share ``groups.rkmk4``, with copies
of the two hand-unrolled RKMK4 steppers it replaced.  The field step's
wrapped stencils and its constant 8x8 generator map are compared with the
``np.roll`` stencils and the coefficient chain they replaced.  The particle
right-hand side, energy and charges, which conjugate constants by the
adjoint pair (Ad_{u^-1}, Ad_u), are compared with copies of the graph-map
and linear-solve code they replaced.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pltdual import fieldsim as fs
from pltdual import particle as pt
from pltdual.duality import dual_graph_at, graph_at, splitting
from pltdual.groups import (
    DoubleElement,
    FactorizationError,
    GroupKit,
    _vdet_normalize,
    _vdexpinv,
    _vinv,
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


def ref_factorize_gm(kit, left, right):
    z = _inv2(right) @ left
    d1 = z[0, 0]
    sq1 = np.sqrt(complex(d1))
    s_left = np.array([[sq1, z[0, 1] / sq1], [0.0, 1.0 / sq1]], dtype=complex)
    u = left @ _inv2(s_left)
    return u, s_left, _inv2(u) @ right


def ref_ad_g(kit, u):
    uinv = _inv2(u)
    cols = []
    for e in kit.basis:
        m = u @ e @ uinv
        cols.append(kit._demat @ np.array([m[0, 0], m[0, 1], m[1, 0]]))
    return np.stack(cols, axis=1)


def ref_ad_d(kit, left, right):
    blk = np.zeros((6, 6), dtype=complex)
    blk[:3, :3] = ref_ad_g(kit, left)
    blk[3:, 3:] = ref_ad_g(kit, right)
    return kit.chi_inv @ blk @ kit.chi


def ref_duality_check(state):
    kit = state.kit
    w = fs._tangent_field(state)
    pd = state.split.pi_diff
    p = state.split.pairing
    gap = 0.0
    recon = 0.0
    for j in range(state.n_nodes):
        k = DoubleElement(state.kl[j], state.kr[j])
        u, sl, sr = kit.factorize_gm(k.left, k.right)
        tl, tr, v = kit.factorize_mg(k.left, k.right)
        t = DoubleElement(tl, tr)
        recon = max(recon, (DoubleElement.from_group(u) @ DoubleElement(sl, sr)).distance(k))
        recon = max(recon, (t @ DoubleElement.from_group(v)).distance(k))
        uinv = np.linalg.inv(u)
        adu = kit.ad_d(u, u)
        adui = kit.ad_d(uinv, uinv)
        wu = adui @ w[j]
        hu = 0.25 * (wu @ ((adui @ pd @ adu).T @ (p.T @ wu)))
        tinv = t.inverse()
        adt = kit.ad_d(tl, tr)
        adti = kit.ad_d(tinv.left, tinv.right)
        wt = adti @ w[j]
        ht = 0.25 * (wt @ ((adti @ pd @ adt).T @ (p.T @ wt)))
        gap = max(gap, abs(hu - ht))
    return gap + recon


def ref_primal_fields(state):
    kit, split = state.kit, state.split
    us = [kit.factorize_gm(state.kl[j], state.kr[j])[0] for j in range(state.n_nodes)]
    dux = fs._x_derivative(np.stack(us), state.dx, state.boundary, order=2)
    kdot = fs._tangent_field(state) @ (split.pi_minus - split.pi_plus).T
    a, b = [], []
    for j, u in enumerate(us):
        uinv = np.linalg.inv(u)
        xi_x = kit.coeffs(uinv @ dux[j])
        xi_t = (kit.ad_d(uinv, uinv) @ kdot[j])[:3]
        g = graph_at(kit, split, u)
        a.append(g.e_matrix() @ (0.5 * (xi_t - xi_x)))
        b.append(g.t_matrix() @ (0.5 * (xi_t + xi_x)))
    return np.stack(a), np.stack(b)


def ref_dual_fields(state):
    kit, split = state.kit, state.split
    ts = [DoubleElement(*kit.factorize_mg(state.kl[j], state.kr[j])[:2])
          for j in range(state.n_nodes)]
    dtl = fs._x_derivative(np.stack([t.left for t in ts]), state.dx, state.boundary, order=2)
    dtr = fs._x_derivative(np.stack([t.right for t in ts]), state.dx, state.boundary, order=2)
    kdot = fs._tangent_field(state) @ (split.pi_minus - split.pi_plus).T
    a, b = [], []
    for j, t in enumerate(ts):
        tinv = t.inverse()
        phi_x = kit.tangent_coeffs(tinv.left @ dtl[j], tinv.right @ dtr[j])[3:]
        phi_t = (kit.ad_d(tinv.left, tinv.right) @ kdot[j])[3:]
        dg = dual_graph_at(kit, split, t)
        a.append(np.linalg.solve(dg.e_inv, 0.5 * (phi_t - phi_x)))
        b.append(np.linalg.solve(dg.t_inv, 0.5 * (phi_t + phi_x)))
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
    """Chiral pairs of exp(w) node by node, with the su2 dual real form."""
    kl, kr = [], []
    for w in ws:
        wc = w.astype(complex)
        if kit.flavor == "su2":
            wc[3:] = -1j * w[3:]
        left, right = kit.chiral_mats(wc)
        kl.append(ref_expm2(left))
        kr.append(ref_expm2(right))
    return np.stack(kl), np.stack(kr)


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


def ref_flow_generators(kit, split, wl, wr):
    """The former chain from k_x k^-1 to the chiral matrices of dk/dt k^-1."""
    return kit.chiral_mats(kit.tangent_coeffs(wl, wr) @ (split.pi_minus - split.pi_plus).T)


def ref_field_step(state, dt):
    """The former unrolled RKMK4 step of the loop flow, one chiral side at a time."""

    def gens(kl, kr):
        wl = fs._x_derivative(kl, state.dx, state.boundary) @ _vinv(kl)
        wr = fs._x_derivative(kr, state.dx, state.boundary) @ _vinv(kr)
        return ref_flow_generators(state.kit, state.split, wl, wr)

    kl0, kr0 = state.kl, state.kr
    al1, ar1 = gens(kl0, kr0)
    bl1, br1 = al1, ar1
    al2, ar2 = gens(expm2(0.5 * dt * bl1) @ kl0, expm2(0.5 * dt * br1) @ kr0)
    bl2 = _vdexpinv(0.5 * dt * bl1, al2)
    br2 = _vdexpinv(0.5 * dt * br1, ar2)
    al3, ar3 = gens(expm2(0.5 * dt * bl2) @ kl0, expm2(0.5 * dt * br2) @ kr0)
    bl3 = _vdexpinv(0.5 * dt * bl2, al3)
    br3 = _vdexpinv(0.5 * dt * br2, ar3)
    al4, ar4 = gens(expm2(dt * bl3) @ kl0, expm2(dt * br3) @ kr0)
    bl4 = _vdexpinv(dt * bl3, al4)
    br4 = _vdexpinv(dt * br3, ar4)
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
    b2 = _vdexpinv((0.5 * dt * b1).T, a2.T).T
    a3, kp3, w3 = stage(u0 @ expm2(0.5 * dt * b2), 0.5 * dt * kp2)
    b3 = _vdexpinv((0.5 * dt * b2).T, a3.T).T
    a4, kp4, w4 = stage(u0 @ expm2(dt * b3), dt * kp3)
    b4 = _vdexpinv((dt * b3).T, a4.T).T
    u1 = u0 @ expm2((dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4))
    p1 = p0 + (dt / 6.0) * (kp1 + 2 * kp2 + 2 * kp3 + kp4)
    c1, m2, m3, m4 = (kit.mat((kit.chi[:, 3:] @ w).reshape(2, 3)) for w in (w1, w2, w3, w4))
    c2 = _vdexpinv(0.5 * dt * c1, m2)
    c3 = _vdexpinv(0.5 * dt * c2, m3)
    c4 = _vdexpinv(dt * c3, m4)
    a_left, a_right = expm2((dt / 6.0) * (c1 + 2 * c2 + 2 * c3 + c4))
    # integrate_particle renormalized u after each step
    return _vdet_normalize(u1), p1, a_left @ a0.left, a_right @ a0.right


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
    moved = kit.ad_d(u, u) @ w
    return moved[3:], moved[:3], -0.5 * (split.pairing @ moved)


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


# ---- stacked kernels against the single-element calls ------------------------------


@settings(max_examples=25, deadline=None)
@given(loops)
def test_stacked_kernels_match_single_element_calls(cfg):
    state = make_loop(cfg)
    kit = state.kit
    stacked = (
        *kit.factorize_gm(state.kl, state.kr),
        *kit.factorize_mg(state.kl, state.kr),
        kit.ad_d(state.kl, state.kr),
    )
    for j in range(state.n_nodes):
        kl, kr = state.kl[j], state.kr[j]
        single = (*kit.factorize_gm(kl, kr), *kit.factorize_mg(kl, kr), kit.ad_d(kl, kr))
        for got, want in zip(stacked, single):
            assert np.abs(got[j] - want).max() < 1e-13
        for got, want in zip(stacked[:3], ref_factorize_gm(kit, kl, kr)):
            assert np.abs(got[j] - want).max() < 1e-13
        assert np.abs(stacked[-1][j] - ref_ad_d(kit, kl, kr)).max() < 1e-13


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
        (pointlike, (np.stack([u0 @ ref_expm2(m[0]) for m in ref_s]),
                     np.stack([u0 @ ref_expm2(m[1]) for m in ref_s]))),
    )
    for state, (kl, kr) in cases:
        assert state.kl.shape == kl.shape
        assert np.abs(state.kl - kl).max() < 1e-14
        assert np.abs(state.kr - kr).max() < 1e-14


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
    got = np.stack([wl, wr], axis=1).reshape(32, 8) @ fs._generator_map(kit, split)
    want = np.stack(ref_flow_generators(kit, split, wl, wr), axis=1).reshape(32, 8)
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
    assert rel_err(stepped.a.left, a_left) < 1e-13
    assert rel_err(stepped.a.right, a_right) < 1e-13


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
    state.kl[j] = state.kr[j] @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    for call in (lambda: kit.factorize_gm(state.kl, state.kr), lambda: fs.duality_check(state)):
        with pytest.raises(FactorizationError, match=f"node {j}\\b"):
            call()
