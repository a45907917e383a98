"""Stacked 2x2 kernels and the loop-free field diagnostics.

The stacked factorizations and adjoint actions are compared node by node
with the same ``GroupKit`` calls on one node and with a copy of the former
closed-form scalar code, and the chiral stack (..., side, 2, 2) that every
double-group method takes is checked against the (left, right) argument
pairs it replaced; the adjoint pairs of ``ad_g`` and ``ad_d`` are checked
against the per-element block-diagonal oracle at the inverse and against
each other; ``duality_check``, ``eom_residuals`` and the loop
initializers are compared with per-node copies of the loops they replaced,
and the field and particle steps, which share ``groups.cf4_step``, with
hand-unrolled CF4 steps: the field one side at a time, with k^-1 from a
linear solve, and the particle in the left-invariant form u^-1 du = B that
the stacked step takes transposed.  The field step's wrapped stencils and
its constant 32x8 generator map on the products of the entries of k_x and
k are compared with the ``np.roll`` stencils and the coefficient chain
they replaced.  The particle right-hand side, energy and charges, which
conjugate constants by the adjoint pair (Ad_{u^-1}, Ad_u), are compared
with copies of the graph-map and linear-solve code they replaced.  The
broadcast 2x2 product ``_vmul`` is compared with
numpy's ``@`` (and is ``@`` itself on stacks small enough to stay on it),
the adjugate ``_vadj`` with the inverse on unimodular stacks, the
closed-form dexp^-1 of the former RKMK4 step with its commutators and
``cf4_step`` with that RKMK4 step to O(h^5), and the
graph slices of one stacked product with the per-basis products they
replaced.  The particle's energy and charges of stacked records, with one
stacked adjoint pair, are compared with their per-record calls.  Counts
show that the field step builds its generator map once per splitting,
that a recorded loop state is factorized once in each order and builds
one ``ad_d`` pair per factorization, that ``hat_pi`` builds one, and that a
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
from pltdual.duality import GraphBlowupError, graph_at, graph_inverse, graph_slices, splitting
from pltdual.groups import (
    FactorizationError,
    GroupKit,
    _chart_error,
    _theta2,
    _vadj,
    _vdet_normalize,
    _vmul,
    cf4_step,
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
    """Ad on the double of the chiral components (left, right), stacked
    over their leading axes: chi^-1 diag(Ad_left, Ad_right) chi per element."""
    out = np.zeros(left.shape[:-2] + (6, 6), dtype=complex)
    for idx in np.ndindex(left.shape[:-2]):
        out[idx] = ref_ad_d(kit, (left[idx], right[idx]))
    return out


def ref_ad_g_stack(kit, u):
    """ref_ad_g per element of a stack over the leading axes."""
    out = np.zeros(u.shape[:-2] + (3, 3), dtype=complex)
    for idx in np.ndindex(u.shape[:-2]):
        out[idx] = ref_ad_g(kit, u[idx])
    return out


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
        adu = kit.ad_d(u[None])[1]
        adui = kit.ad_d(uinv[None])[1]
        wu = adui @ w[j]
        hu = 0.25 * (wu @ ((adui @ pd @ adu).T @ (p.T @ wu)))
        adt = kit.ad_d(t)[1]
        adti = kit.ad_d(np.linalg.inv(t))[1]
        wt = adti @ w[j]
        ht = 0.25 * (wt @ ((adti @ pd @ adt).T @ (p.T @ wt)))
        gap = max(gap, abs(hu - ht))
    return gap + recon


def ref_primal_fields(state):
    kit, split = state.kit, state.split
    us = [kit.factorize_gm(state.k[j])[0] for j in range(state.n_nodes)]
    dux = fs._x_derivative(np.stack(us), state.dx, state.boundary, order=2)
    kdot = fs._tangent_field(state) @ -split.pi_diff.T
    a, b = [], []
    for j, u in enumerate(us):
        uinv = np.linalg.inv(u)
        xi_x = kit.coeffs(uinv @ dux[j])
        xi_t = (kit.ad_d(uinv[None])[1] @ kdot[j])[:3]
        e_inv, t_inv = graph_at(kit, split, u)
        a.append(np.linalg.inv(e_inv) @ (0.5 * (xi_t - xi_x)))
        b.append(np.linalg.inv(t_inv) @ (0.5 * (xi_t + xi_x)))
    return np.stack(a), np.stack(b)


def ref_dual_fields(state):
    kit, split = state.kit, state.split
    ts = [kit.factorize_mg(state.k[j])[0] for j in range(state.n_nodes)]
    dts = fs._x_derivative(np.stack(ts), state.dx, state.boundary, order=2)
    kdot = fs._tangent_field(state) @ -split.pi_diff.T
    a, b = [], []
    for j, t in enumerate(ts):
        tinv = np.linalg.inv(t)
        phi_x = kit.tangent_coeffs(tinv @ dts[j])[3:]
        ad = kit.ad_d(tinv)[1]
        phi_t = (ad @ kdot[j])[3:]
        # Ehat_t^-1, That_t^-1 (g -> m): Ad_{t^-1} [1; X_e] sliced over g
        moved = [ad @ np.vstack([np.eye(3), xe]) for xe in (split.e_matrix, np.linalg.inv(split.t_inv))]
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
    return kit.chiral_mats(kit.tangent_coeffs(w) @ -split.pi_diff.T)


def cf4_weights(f1, f2, f3, f4, dt):
    """The exponents (first, second) of CF4's last update
    y1 = exp(first) exp(second) y0."""
    return ((dt / 12.0) * (-f1 + 2 * f2 + 2 * f3 + 3 * f4),
            (dt / 12.0) * (3 * f1 + 2 * f2 + 2 * f3 - f4))


def ref_field_step(state, dt):
    """An unrolled CF4 step of the loop flow, one chiral side at a time,
    with k_x k^-1 from a linear solve and the coefficient chain."""

    def gens(kl, kr):
        wl = fs._x_derivative(kl, state.dx, state.boundary) @ np.linalg.inv(kl)
        wr = fs._x_derivative(kr, state.dx, state.boundary) @ np.linalg.inv(kr)
        gen = ref_flow_generators(state.kit, state.split, np.stack([wl, wr], axis=1))
        return gen[:, 0], gen[:, 1]

    kl0, kr0 = state.kl, state.kr
    fl1, fr1 = gens(kl0, kr0)
    kl2, kr2 = expm2(0.5 * dt * fl1) @ kl0, expm2(0.5 * dt * fr1) @ kr0
    fl2, fr2 = gens(kl2, kr2)
    fl3, fr3 = gens(expm2(0.5 * dt * fl2) @ kl0, expm2(0.5 * dt * fr2) @ kr0)
    fl4, fr4 = gens(expm2(dt * fl3 - 0.5 * dt * fl1) @ kl2,
                    expm2(dt * fr3 - 0.5 * dt * fr1) @ kr2)
    first_l, second_l = cf4_weights(fl1, fl2, fl3, fl4, dt)
    first_r, second_r = cf4_weights(fr1, fr2, fr3, fr4, dt)
    return (_vdet_normalize(expm2(first_l) @ expm2(second_l) @ kl0),
            _vdet_normalize(expm2(first_r) @ expm2(second_r) @ kr0))


def ref_particle_step(kit, split, state, dt):
    """An unrolled CF4 particle step in the left-invariant form
    u^-1 du = B, where the exponentials multiply u from the right in
    reverse order, then both chiral factors of a on the recorded w stages."""
    u0, p0, a0 = state.u, state.p, state.a

    def stage(u, dp):
        udot, pdot, w = pt.particle_rhs(kit, split, u, p0 + dp)
        return kit.mat(udot), pdot, w

    b1, kp1, w1 = stage(u0, 0.0)
    u2 = u0 @ expm2(0.5 * dt * b1)
    b2, kp2, w2 = stage(u2, 0.5 * dt * kp1)
    b3, kp3, w3 = stage(u0 @ expm2(0.5 * dt * b2), 0.5 * dt * kp2)
    b4, kp4, w4 = stage(u2 @ expm2(dt * b3 - 0.5 * dt * b1), dt * kp3)
    first, second = cf4_weights(b1, b2, b3, b4, dt)
    u1 = u0 @ expm2(second) @ expm2(first)
    p1 = p0 + (dt / 6.0) * (kp1 + 2 * kp2 + 2 * kp3 + kp4)
    c1, c2, c3, c4 = (kit.mat((kit.chi[:, 3:] @ w).reshape(2, 3)) for w in (w1, w2, w3, w4))
    first, second = cf4_weights(c1, c2, c3, c4, dt)
    a_left, a_right = expm2(first) @ expm2(second)
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
    moved = kit.ad_d(u[None])[1] @ w
    return moved[3:], moved[:3], -0.5 * (split.pairing @ moved)


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


# ---- stacked kernels against the single-element calls ------------------------------


@settings(max_examples=25, deadline=None)
@given(loops)
def test_stacked_kernels_match_single_element_calls(cfg):
    state = make_loop(cfg)
    kit = state.kit
    stacked = (*kit.factorize_gm(state.k), *kit.factorize_mg(state.k), kit.ad_d(state.k)[1])
    for j in range(state.n_nodes):
        k = state.k[j]
        single = (*kit.factorize_gm(k), *kit.factorize_mg(k), kit.ad_d(k)[1])
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
    got = kit.ad_d(u[..., None, :, :])[1]
    assert got.shape == lead + (6, 6)
    assert rel_err(got, kit.ad_d(np.stack([u, u], -3))[1]) < 1e-13
    assert rel_err(got, ref_ad_d_pair(kit, u, u)) < 1e-13
    k = np.stack([u, random_group_points(kit, np.random.default_rng(9), lead)], -3)
    assert rel_err(kit.ad_d(k)[1], ref_ad_d_pair(kit, k[..., 0, :, :], k[..., 1, :, :])) < 1e-13


@pytest.mark.parametrize("lead", [(), (1,), (7,), (3, 4)])
@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
def test_adjoint_pairs_are_the_action_of_the_inverse(algebra, lead):
    """ad_g and ad_d return (Ad at the inverse, Ad), which invert each other,
    for a chiral stack, a G-valued u on a broadcast side axis and u on g."""
    kit, _ = kit_and_split(algebra)
    u = random_group_points(kit, np.random.default_rng(len(lead)), lead)
    k = np.stack([u, random_group_points(kit, np.random.default_rng(9), lead)], -3)
    for x in (k, u[..., None, :, :]):
        xinv = np.broadcast_to(np.linalg.inv(x), lead + (2, 2, 2))
        ad_inv, ad = kit.ad_d(x)
        assert rel_err(ad_inv, ref_ad_d_pair(kit, xinv[..., 0, :, :], xinv[..., 1, :, :])) < 1e-13
        assert np.abs(ad_inv @ ad - np.eye(6)).max() < 1e-13
    ad_inv, ad = kit.ad_g(u)
    assert rel_err(ad_inv, ref_ad_g_stack(kit, np.linalg.inv(u))) < 1e-13
    assert rel_err(ad, ref_ad_g_stack(kit, u)) < 1e-13
    assert np.abs(ad_inv @ ad - np.eye(3)).max() < 1e-13


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


# ---- the broadcast 2x2 product and the adjugate --------------------------------------


def random_traceless(rng, size):
    m = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    m[:, 1, 1] = -m[:, 0, 0]
    return m


def random_stack(rng, lead):
    return rng.normal(size=lead + (2, 2)) + 1j * rng.normal(size=lead + (2, 2))


def ref_vdexpinv(sigma, v):
    """dexp^-1_sigma(v) of RKMK4, truncated after the double commutator."""
    c1 = sigma @ v - v @ sigma
    return v - 0.5 * c1 + (sigma @ c1 - c1 @ sigma) / 12.0


def closed_form_dexpinv(sigma, v):
    """The same sum in closed form: sigma^2 = theta^2 1 gives
    (1 + theta^2/3) v - sigma v + tr(sigma v) (1/2 - sigma/6)."""
    sv = _vmul(sigma, v)
    tr = (sv[..., 0, 0] + sv[..., 1, 1])[..., None, None]
    return (1.0 + _theta2(sigma)[..., None, None] / 3.0) * v - sv + tr * (0.5 * np.eye(2) - sigma / 6.0)


@pytest.mark.parametrize("norm", [1e-3, 1e-2, 1e-1, 1.0])
@pytest.mark.parametrize("size", [1, 3, 32, 128])
def test_closed_form_dexpinv_matches_commutators(size, norm):
    """The closed-form dexp^-1 of the RKMK4 step that CF4 replaced matches
    its two commutators, and ``cf4_step`` agrees with that RKMK4 step to
    O(h^5) on dy/dt y^-1 = S0 + t S1 + y S2 y^-1 with unit S_i and h =
    ``norm`` (the difference is below 0.9 h^5 on these stacks)."""
    rng = np.random.default_rng(size)
    sigma, v = random_traceless(rng, size), random_traceless(rng, size)
    sigma *= norm / np.linalg.norm(sigma, axis=(-2, -1))[:, None, None]
    assert rel_err(closed_form_dexpinv(sigma, v), ref_vdexpinv(sigma, v)) < 1e-13

    s = random_traceless(rng, 3 * size).reshape(3, size, 2, 2)
    s /= np.linalg.norm(s, axis=(-2, -1))[..., None, None]

    def gen(y, t):
        return s[0] + t[:, None, None] * s[1] + y @ s[2] @ np.linalg.inv(y)

    y0, t0, h = expm2(0.3 * random_traceless(rng, size)), np.zeros(size), norm
    y1, t1 = cf4_step(lambda y, t: (gen(y, t), np.ones(size)), y0, t0, h)
    k1 = gen(y0, t0)
    k2 = closed_form_dexpinv(0.5 * h * k1, gen(expm2(0.5 * h * k1) @ y0, t0 + 0.5 * h))
    k3 = closed_form_dexpinv(0.5 * h * k2, gen(expm2(0.5 * h * k2) @ y0, t0 + 0.5 * h))
    k4 = closed_form_dexpinv(h * k3, gen(expm2(h * k3) @ y0, t0 + h))
    want = _vdet_normalize(expm2((h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)) @ y0)
    assert np.array_equal(t1, t0 + h)
    assert rel_err(y1, want) < 4.0 * h**5 + 1e-14


@pytest.mark.parametrize("norm", [1e-3, 1e-2, 1e-1, 1.0])
@pytest.mark.parametrize("size", [1, 3, 32, 128])
def test_expm2_in_place_matches_sum_form(size, norm):
    """expm2 adds cosh(theta) to the diagonal of sinh(theta)/theta x in
    place; the former sum c 1 + s x gives the same values, up to the sign
    of a zero."""
    rng = np.random.default_rng(size)
    x = random_traceless(rng, size)
    x *= norm / np.linalg.norm(x, axis=(-2, -1))[:, None, None]
    theta = np.sqrt(_theta2(x))
    c, s = np.cosh(theta), np.sinh(theta) / theta
    assert np.array_equal(expm2(x), c[:, None, None] * np.eye(2) + s[:, None, None] * x)


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
    ad = kit.ad_d(random_group_points(kit, rng, lead)[..., None, :, :])[1]
    n = kit.b.g.dim
    for got, basis in zip(graph_slices(split, ad), split.basis_pair):
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
    """The maps on the products (k_x)_ab k_cd of each side, GroupKit.tangent_map
    and the generator map, against the chain from k_x adj(k), for any k
    (k_x k^-1 on a unimodular one)."""
    kit, split = preset_kit_and_split(algebra, preset)
    rng = np.random.default_rng(7)
    kx, k = random_stack(rng, (32, 2)), random_stack(rng, (32, 2))
    products = (kx.reshape(32, 2, 4, 1) * k.reshape(32, 2, 1, 4)).reshape(32, 32)
    assert rel_err(products @ kit.tangent_map, kit.tangent_coeffs(kx @ _vadj(k))) < 1e-14
    got = products @ fs._generator_map(kit, split)
    want = ref_flow_generators(kit, split, kx @ _vadj(k)).reshape(32, 8)
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
    # a state without a steps (u, p) alone, to the same bits
    alone = pt._rk_mk_step(kit, split, pt.ParticleState(u0, p0), dt)
    assert alone.a is None
    assert np.array_equal(alone.u, stepped.u) and np.array_equal(alone.p, stepped.p)


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
    a, b = kit.ad_g(u)
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
    pair = kit.ad_g(us)
    hams = pt.particle_hamiltonian(kit, split, us, ps, pair)
    charges = pt.particle_charges(kit, split, us, ps, pair)
    assert hams.shape == (n_records,)
    assert [q.shape for q in charges] == [shape, shape, (n_records, 6)]
    for j in range(n_records):
        a, b = kit.ad_g(us[j])
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
    # in a stack of loops the node is named on its loop's node axis
    clean = fs.random_smooth_loop(kit, split, 24, boundary="periodic", seed=5, amplitude=0.2)
    stack = fs.LoopState(kit, split, np.stack([clean.k, state.k]), "periodic", np.zeros(2))
    for call in (lambda: kit.factorize_gm(state.k), lambda: fs.duality_check(state),
                 lambda: kit.factorize_gm(stack.k), lambda: fs.duality_check(stack)):
        with pytest.raises(FactorizationError, match=f"node {j}\\b"):
            call()
    maps = np.tile(np.eye(3, dtype=complex), (2, 24, 1, 1))
    maps[1, j, 2] = 0.0
    with pytest.raises(GraphBlowupError, match=f"node {j}\\b"):
        graph_inverse(maps, "E_u^-1")
    # collected, the checks hold a mask per loop, and only the second loop's
    # errors name a node, node j, first the zero pivot
    checks = []
    with np.errstate(all="ignore"):
        kit.factorize_gm(stack.k, checks)
    errors = [[_chart_error(bad[i], message, [f[i] for f in figures], error)
               for bad, message, figures, error in checks] for i in (0, 1)]
    assert all(bad.shape == (2, 24) for bad, *_ in checks)
    assert not any(errors[0])
    named = [str(e) for e in errors[1] if e is not None]
    assert named[0] == f"factorization chart: zero pivot (first at node {j})"
    assert all(text.endswith(f"(first at node {j})") for text in named)
    # a NaN node fails its collected check without the SVD, and its inverse is NaN
    maps[1, j] = np.nan
    checks = []
    inverse = graph_inverse(maps, "E_u^-1", checks)
    (bad, message, figures, error), = checks
    assert np.array_equal(np.flatnonzero(bad), [24 + j])
    assert str(_chart_error(bad[1], message, [f[1] for f in figures], error)) == (
        f"E_u^-1 condition number nan exceeds cutoff (first at node {j})")
    assert np.isnan(inverse[1, j]).all() and np.isfinite(np.delete(inverse[1], j, axis=0)).all()


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


def stepped_states(state, dt, n_steps):
    states = [state]
    for _ in range(n_steps):
        states.append(fs.step(states[-1], dt))
    return states


def test_recorded_loop_state_is_factorized_once_in_each_order(monkeypatch):
    """A run with diagnostics factorizes in one stacked call per order, and
    takes one stacked tangent, per pass: the stack holds each record, then
    each step before a record that is not a record itself, once (with
    ``record_every`` 1 the step before a record is the record before)."""
    kit, split = kit_and_split("su2")
    stacks = {"gm": [], "mg": [], "tangent": []}
    factorize_gm, factorize_mg = GroupKit.factorize_gm, GroupKit.factorize_mg
    inside_mg = []

    def gm(self, k, checks=None):
        # factorize_mg factors k^-1 by factorize_gm, which is part of its one request
        if not inside_mg:
            stacks["gm"].append(k)
        return factorize_gm(self, k, checks)

    def mg(self, k, checks=None):
        stacks["mg"].append(k)
        inside_mg.append(k)
        try:
            return factorize_mg(self, k, checks)
        finally:
            inside_mg.pop()

    tangent_field = fs._tangent_field
    monkeypatch.setattr(GroupKit, "factorize_gm", gm)
    monkeypatch.setattr(GroupKit, "factorize_mg", mg)
    monkeypatch.setattr(fs, "_tangent_field",
                        lambda state: stacks["tangent"].append(state.k) or tangent_field(state))
    state = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=3)
    dt = 0.25 * state.dx
    states = stepped_states(state, dt, 6)
    for record_every, stacked in ((1, [0, 1, 2, 3, 4, 5, 6]), (3, [0, 3, 6, 2, 5])):
        for ks in stacks.values():
            ks.clear()
        traj = fs.integrate_field(state, dt, 6, record_every=record_every, diagnostics=True)
        assert traj.completed and np.isfinite(traj.eom_residuals_g[1:]).all()
        expected = np.stack([states[i].k for i in stacked])
        for name, ks in stacks.items():
            assert len(ks) == 1, name
            assert np.array_equal(ks[0], expected), name


def test_adjoint_pairs_built_twice_per_loop_state_and_once_per_hat_pi(monkeypatch):
    """A run with duality and residuals builds one stacked ad_d pair per
    factorization order in its one pass, on the stack of its records (none
    in duality_check), and hat_pi reads both halves of one."""
    kit, split = kit_and_split("su2")
    shapes = []
    ad_d = GroupKit.ad_d
    monkeypatch.setattr(GroupKit, "ad_d", lambda self, k: shapes.append(k.shape) or ad_d(self, k))
    state = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=3)
    traj = fs.integrate_field(state, 0.25 * state.dx, 6, record_every=1,
                              diagnostics=True)
    assert traj.completed and np.isfinite(traj.duality_gaps).all()
    n_records = len(traj.times)
    # u enters with a side axis of length one, t as a chiral stack
    assert shapes == [(n_records, 16, 1, 2, 2), (n_records, 16, 2, 2, 2)]
    shapes.clear()
    kit.hat_pi(kit.exp_m(np.array([0.1, -0.2, 0.3j])))
    assert len(shapes) == 1


def test_recorded_particle_state_builds_one_adjoint_pair(monkeypatch):
    kit, split = kit_and_split("su2")
    shapes = []
    ad_g = GroupKit.ad_g
    monkeypatch.setattr(GroupKit, "ad_g", lambda self, u: shapes.append(u.shape) or ad_g(self, u))
    n_steps = 5
    traj = pt.integrate_particle(kit, split, np.eye(2), np.array([0.3, 0.1, -0.2]), 1e-2, n_steps)
    assert traj.completed and len(traj.times) == n_steps + 1
    # no pair for a step's stages, which read the products of u, and one
    # stacked pair for all the records together
    assert shapes == [(n_steps + 1, 2, 2)]
