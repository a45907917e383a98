"""Stacked 2x2 kernels and the loop-free field diagnostics.

The stacked factorizations and adjoint actions are compared node by node
with the single-element ``GroupKit`` calls and with a copy of the former
closed-form scalar code; ``duality_check`` and ``eom_residuals`` are
compared with per-node copies of the loops they replaced.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pltdual import fieldsim as fs
from pltdual.duality import dual_graph_at, graph_at, splitting
from pltdual.groups import DoubleElement, FactorizationError, GroupKit
from pltdual.liecore import bracket_coeffs
from pltdual.models import make_preset


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
    z = _inv2(k.right) @ k.left
    d1 = z[0, 0]
    sq1 = np.sqrt(complex(d1))
    s_left = np.array([[sq1, z[0, 1] / sq1], [0.0, 1.0 / sq1]], dtype=complex)
    u = k.left @ _inv2(s_left)
    return u, DoubleElement(s_left, _inv2(u) @ k.right)


def ref_ad_g(kit, u):
    uinv = _inv2(u)
    cols = []
    for e in kit.basis:
        m = u @ e @ uinv
        cols.append(kit._demat @ np.array([m[0, 0], m[0, 1], m[1, 0]]))
    return np.stack(cols, axis=1)


def ref_ad_d(kit, k):
    blk = np.zeros((6, 6), dtype=complex)
    blk[:3, :3] = ref_ad_g(kit, k.left)
    blk[3:, 3:] = ref_ad_g(kit, k.right)
    return kit.chi_inv @ blk @ kit.chi


def ref_duality_check(state):
    kit = state.kit
    w = fs._tangent_field(state)
    pd = state.split.pi_diff
    p = state.split.pairing
    gap = 0.0
    recon = 0.0
    for j in range(state.n_nodes):
        k = state.element(j)
        u, s = kit.factorize_gm(k)
        t, v = kit.factorize_mg(k)
        recon = max(recon, (DoubleElement.from_group(u) @ s).distance(k))
        recon = max(recon, (t @ DoubleElement.from_group(v)).distance(k))
        adu = kit.ad_d_group(u)
        adui = kit.ad_d_group(np.linalg.inv(u))
        wu = adui @ w[j]
        hu = 0.25 * (wu @ ((adui @ pd @ adu).T @ (p.T @ wu)))
        adt = kit.ad_d(t)
        adti = kit.ad_d(t.inverse())
        wt = adti @ w[j]
        ht = 0.25 * (wt @ ((adti @ pd @ adt).T @ (p.T @ wt)))
        gap = max(gap, abs(hu - ht))
    return gap + recon


def ref_primal_fields(state):
    kit, split = state.kit, state.split
    us = [kit.factorize_gm(state.element(j))[0] for j in range(state.n_nodes)]
    dux = fs._x_derivative(np.stack(us), state.dx, state.boundary, order=2)
    kdot = fs._tangent_field(state) @ (split.pi_minus - split.pi_plus).T
    a, b = [], []
    for j, u in enumerate(us):
        uinv = np.linalg.inv(u)
        xi_x = kit.coeffs(uinv @ dux[j])
        xi_t = (kit.ad_d_group(uinv) @ kdot[j])[:3]
        g = graph_at(kit, split, u)
        a.append(g.e_matrix() @ (0.5 * (xi_t - xi_x)))
        b.append(g.t_matrix() @ (0.5 * (xi_t + xi_x)))
    return np.stack(a), np.stack(b)


def ref_dual_fields(state):
    kit, split = state.kit, state.split
    ts = [kit.factorize_mg(state.element(j))[0] for j in range(state.n_nodes)]
    dtl = fs._x_derivative(np.stack([t.left for t in ts]), state.dx, state.boundary, order=2)
    dtr = fs._x_derivative(np.stack([t.right for t in ts]), state.dx, state.boundary, order=2)
    kdot = fs._tangent_field(state) @ (split.pi_minus - split.pi_plus).T
    a, b = [], []
    for j, t in enumerate(ts):
        tinv = t.inverse()
        phi_x = kit.tangent_coeffs(tinv.left @ dtl[j], tinv.right @ dtr[j])[3:]
        phi_t = (kit.ad_d(tinv) @ kdot[j])[3:]
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


# ---- stacked kernels against the single-element calls ------------------------------


@settings(max_examples=25, deadline=None)
@given(loops)
def test_stacked_kernels_match_single_element_calls(cfg):
    state = make_loop(cfg)
    kit = state.kit
    u, sl, sr = kit.factorize_gm_nodes(state.kl, state.kr)
    tl, tr, v = kit.factorize_mg_nodes(state.kl, state.kr)
    ad = kit.ad_d_nodes(state.kl, state.kr)
    for j in range(state.n_nodes):
        k = state.element(j)
        u_j, s_j = kit.factorize_gm(k)
        t_j, v_j = kit.factorize_mg(k)
        ref_u, ref_s = ref_factorize_gm(kit, k)
        for got, want in ((u[j], u_j), (sl[j], s_j.left), (sr[j], s_j.right),
                          (tl[j], t_j.left), (tr[j], t_j.right), (v[j], v_j),
                          (u[j], ref_u), (sl[j], ref_s.left), (sr[j], ref_s.right)):
            assert np.abs(got - want).max() < 1e-13
        assert np.abs(ad[j] - kit.ad_d(k)).max() < 1e-13
        assert np.abs(ad[j] - ref_ad_d(kit, k)).max() < 1e-13


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


# ---- chart checks name the first bad node -------------------------------------------


@pytest.mark.parametrize("algebra", ["su2", "sl2r"])
def test_off_chart_node_is_named(algebra):
    kit, split = kit_and_split(algebra)
    state = fs.random_smooth_loop(kit, split, 24, boundary="periodic", seed=4, amplitude=0.2)
    j = 17
    # k_R^-1 k_L = [[0, 1], [-1, 0]] has a zero pivot, which is off every chart
    state.kl[j] = state.kr[j] @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    for call in (lambda: kit.factorize_gm_nodes(state.kl, state.kr), lambda: fs.duality_check(state)):
        with pytest.raises(FactorizationError, match=f"node {j}\\b"):
            call()
