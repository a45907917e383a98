"""Point-particle reduction: closed-form oracles, conservation laws,
order of accuracy, phase-space structure and the conjugate description."""

import re
import warnings

import numpy as np
import pytest

from pltdual.duality import graph_at, graph_inverse, splitting
from pltdual.groups import GroupKit, expm2
from pltdual.liecore import bracket_coeffs
from pltdual.models import make_preset
from pltdual import particle
from pltdual.particle import (
    conjugate_description_residual,
    integrate_particle,
    particle_charges,
    particle_hamiltonian,
    particle_rhs,
    point_phase_matrices,
    poisson_matrix,
    principal_limit_solution,
    pure_qt_reduced_solution,
    pure_qt_solution,
    riccati_h,
)


def setup(algebra, preset="modified-principal", **kw):
    pre = make_preset(preset, algebra=algebra, **kw)
    return pre, GroupKit(pre.bialgebra), splitting(pre)


def rk4(f, y, dt, n):
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + dt / 2 * k1)
        k3 = f(y + dt / 2 * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


# ---- closed-form oracles -----------------------------------------------------------


def test_pure_qt_analytic_solution():
    """Non-compact pure-quasitriangular flow against its exact solution:
    u(t) = u0 exp(-(omega t/2) H), p exponential in the chiral slots."""
    _, kit, split = setup("sl2r", preset="pure-qt")
    omega, x0 = 0.8, 0.35 + 0.0j
    u0 = expm2(kit.mat(np.array([0.1, -0.2, 0.3])))
    p0 = np.array([2 * omega, x0, np.conj(x0)], dtype=complex)
    traj = integrate_particle(kit, split, u0, p0, 1e-3, 1000)
    u_exact, p_exact = pure_qt_solution(kit, u0, omega, x0, 1.0)
    assert traj.completed
    assert np.max(np.abs(traj.us[-1] - u_exact)) < 1e-8
    assert np.max(np.abs(traj.ps[-1] - p_exact)) < 1e-8
    assert np.max(np.abs(traj.hams - traj.hams[0])) < 1e-12
    assert np.max(np.abs(traj.charges_g - traj.charges_g[0])) < 1e-10


def test_riccati_closed_form():
    """dh = omega^2/2 - 2h^2 closed form and the reduced (h, x, y) system."""
    h0, x0, omega = 0.3, 0.4, 1.0
    y0 = (omega**2 / 4.0 - h0**2) / x0  # h0^2 + x0 y0 = omega^2 / 4
    f = lambda v: np.array([2 * v[1] * v[2], -2 * v[0] * v[1], -2 * v[0] * v[2]])
    v = rk4(f, np.array([h0, x0, y0]), 1e-4, 10000)
    h, x, y = pure_qt_reduced_solution(1.0, h0, x0, y0)
    assert abs(v[0] - h) < 1e-8
    assert abs(v[1] - x) < 1e-8
    assert abs(v[2] - y) < 1e-8
    assert abs(riccati_h(1.0, h0, omega) - h) < 1e-12
    # conserved combination along the numerical flow
    assert abs((v[0] ** 2 + v[1] * v[2]) - (h0**2 + x0 * y0)) < 1e-11


def test_riccati_degenerate_branch():
    h0 = 0.25
    h, x, y = pure_qt_reduced_solution(2.0, h0, -h0 * h0 / 1.0, 1.0)
    # omega = 0: h = h0 / (1 + 2 h0 t)
    assert abs(h - h0 / (1 + 2 * h0 * 2.0)) < 1e-12
    assert abs(h * h + x * y) < 1e-12


def test_reduced_flow_is_twisted_bracket():
    """The (h, x, y) system is xi-dot = 2 [(r2 K) xi, xi]; r2 K maps
    (H, X+, X-) to (H/2, X+, 0)."""
    pre, _, _ = setup("sl2r", preset="pure-qt")
    r2k = pre.bialgebra.rho @ np.linalg.inv(pre.bialgebra.kinv_matrix)
    expected = np.zeros((3, 3))
    expected[0, 0] = 0.5
    expected[1, 1] = 1.0
    assert np.max(np.abs(r2k - expected)) < 1e-14
    rng = np.random.default_rng(0)
    xi = rng.normal(size=3)
    lhs = 2 * bracket_coeffs(pre.bialgebra.g.c, r2k @ xi, xi)
    rhs = np.array([2 * xi[1] * xi[2], -2 * xi[0] * xi[1], -2 * xi[0] * xi[2]])
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_integrator_order_four():
    _, kit, split = setup("sl2r", preset="pure-qt")
    omega, x0 = 0.8, 0.35 + 0.0j
    u0 = expm2(kit.mat(np.array([0.1, -0.2, 0.3])))
    p0 = np.array([2 * omega, x0, np.conj(x0)], dtype=complex)
    u_exact, p_exact = pure_qt_solution(kit, u0, omega, x0, 0.5)
    errs, dts = [], [2e-2, 1e-2, 5e-3]
    for dt in dts:
        traj = integrate_particle(kit, split, u0, p0, dt, int(round(0.5 / dt)))
        errs.append(
            max(np.max(np.abs(traj.us[-1] - u_exact)), np.max(np.abs(traj.ps[-1] - p_exact)))
        )
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.3


def test_principal_limit_exact_at_large_mu():
    """At mu = 1e7 the limiting trajectory matches the closed form to the
    integrator tolerance; the finite-mu deviation decays like 1/mu."""
    p0 = np.array([0.3, -0.1, 0.2], dtype=complex)
    devs = []
    for mu in (1e3, 1e5, 1e7):
        _, kit, split = setup("su2", preset="principal-limit", mu=mu)
        u0 = expm2(kit.mat(np.array([0.2, 0.1, -0.3])))
        traj = integrate_particle(kit, split, u0, p0, 1e-3, 1000)
        u_exact = principal_limit_solution(kit, split, u0, p0, 1.0)
        devs.append(np.max(np.abs(traj.us[-1] - u_exact)))
        assert np.max(np.abs(traj.ps - traj.ps[0])) < 10.0 / mu
    assert devs[-1] < 1e-7  # integrator tolerance at mu = 1e7
    slope = np.polyfit(np.log([1e3, 1e5, 1e7]), np.log(devs), 1)[0]
    assert abs(slope + 1.0) < 0.2


def test_su2_componentwise_equations():
    """Component form of the modified-principal su2 equations in the
    coordinates u = [[a, b], [-b*, a*]], rho = p1 + i p2, p3:
    a-dot and b-dot hold verbatim; p3 is constant; the rho equation holds
    with an overall sign flip matching the dual-bracket convention here."""
    pre, kit, split = setup("su2")
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = expm2(kit.mat(rng.normal(size=3) * 0.4))
        p = rng.normal(size=3).astype(complex)
        ud, pd, _ = particle_rhs(kit, split, u, p)
        a, b = u[0, 0], u[0, 1]
        rho = p[0] + 1j * p[1]
        p3 = p[2]
        udot = u @ kit.mat(ud)
        adot = -1j * abs(a) ** 2 * (a * p3 + b * rho)
        bdot = (
            1j * b * p3
            - 0.5j * (1 + abs(a) ** 2) * a * np.conj(rho)
            - 0.5j * rho * np.conj(a) * b**2
        )
        assert abs(udot[0, 0] - adot) < 1e-13
        assert abs(udot[0, 1] - bdot) < 1e-13
        assert abs(pd[2]) < 1e-13  # p3 conserved
        rhodot = (
            -0.5j * np.conj(a) * b * rho**2
            + 0.5j * a * np.conj(b) * (abs(rho) ** 2 + 2 * p3**2)
            + 1j * abs(b) ** 2 * rho * p3
        )
        assert abs((pd[0] + 1j * pd[1]) + rhodot) < 1e-13


# ---- alternative right-hand sides ---------------------------------------------------


def particle_rhs_inverse_form(kit, split, u, p):
    """Velocities via the inverted graph maps E_u, T_u (g -> m):
    u^-1 du/dt = -2 (E_u - T_u)^-1 p.  Agrees with particle_rhs wherever
    E_u and T_u exist, which the primary right-hand side does not need."""
    e_inv, t_inv = graph_at(kit, split, u, route="invariant-split")
    e, t = graph_inverse(e_inv, "E_u^-1"), graph_inverse(t_inv, "T_u^-1")
    udot = -2.0 * np.linalg.solve(e - t, p)
    w = np.linalg.solve(e_inv - t_inv, (e_inv + t_inv) @ p)
    return udot, bracket_coeffs(split.preset.bialgebra.m.c, w, p)


def particle_rhs_invariant_form(kit, split, p):
    """Decoupled velocities for G-invariant splittings (lam = 0).

    The graph maps are u-independent, so with U = 2 (T_e - E_e)^-1 and
    V = (E_e + T_e) / 2 the system reads u^-1 du/dt = U p,
    dp/dt = [V U p, p]; u drops out entirely.
    """
    if split.preset.lam != 0:
        raise ValueError("the decoupled form needs a G-invariant splitting (lam = 0)")
    e, t = split.e_matrix, np.linalg.inv(split.t_inv)
    udot = 2.0 * np.linalg.inv(t - e) @ p
    return udot, bracket_coeffs(split.preset.bialgebra.m.c, 0.5 * (e + t) @ udot, p)


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_inverse_form_agrees(algebra):
    _, kit, split = setup(algebra)
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = kit.exp_g(rng.normal(size=3) * 0.5)
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        ud1, pd1, _ = particle_rhs(kit, split, u, p)
        ud2, pd2 = particle_rhs_inverse_form(kit, split, u, p)
        assert np.max(np.abs(ud1 - ud2)) < 1e-11
        assert np.max(np.abs(pd1 - pd2)) < 1e-11


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_invariant_form_agrees_at_lam_zero(algebra):
    _, kit, split = setup(algebra, preset="g-invariant")
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = kit.exp_g(rng.normal(size=3) * 0.5)
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        ud1, pd1, _ = particle_rhs(kit, split, u, p)
        ud2, pd2 = particle_rhs_invariant_form(kit, split, p)
        assert np.max(np.abs(ud1 - ud2)) < 1e-11
        assert np.max(np.abs(pd1 - pd2)) < 1e-11


def test_invariant_form_rejects_generic_lam():
    _, kit, split = setup("su2")  # lam = -1
    with pytest.raises(ValueError):
        particle_rhs_invariant_form(kit, split, np.array([1.0, 0, 0]))


def test_dual_factor_generator_identity():
    """The M-factor generator w satisfies
    da a^-1 = -(E_u + T_u)(E_u - T_u)^-1 p."""
    _, kit, split = setup("su2")
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = kit.exp_g(rng.normal(size=3) * 0.5)
        p = rng.normal(size=3).astype(complex)
        _, _, w = particle_rhs(kit, split, u, p)
        e_inv, t_inv = graph_at(kit, split, u)
        e, t = np.linalg.inv(e_inv), np.linalg.inv(t_inv)
        expected = -(e + t) @ np.linalg.solve(e - t, p)
        assert np.max(np.abs(w - expected)) < 1e-11


# ---- conservation laws --------------------------------------------------------------


@pytest.mark.parametrize(
    "algebra,preset",
    [
        ("su2", "modified-principal"),
        ("su2", "pure-qt"),
        ("su2", "g-invariant"),
        ("sl2r", "modified-principal"),
        ("sl2r", "pure-qt"),
    ],
)
def test_hamiltonian_conserved(algebra, preset):
    _, kit, split = setup(algebra, preset=preset)
    rng = np.random.default_rng(4)
    u0 = kit.exp_g(rng.normal(size=3) * 0.3)
    p0 = rng.normal(size=3) * 0.4
    traj = integrate_particle(kit, split, u0, p0, 1e-2, 100)
    assert traj.completed
    assert np.max(np.abs(traj.hams - traj.hams[0])) < 1e-11


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
@pytest.mark.parametrize("preset", ["pure-qt", "g-invariant"])
def test_charge_conserved_on_u_independent_families(algebra, preset):
    """With lam = 0 the graph operators are left-invariant, so the linear
    charge Q_G is conserved exactly (generic lam only conserves the
    group-valued charge)."""
    _, kit, split = setup(algebra, preset=preset)
    rng = np.random.default_rng(5)
    u0 = kit.exp_g(rng.normal(size=3) * 0.3)
    p0 = rng.normal(size=3) * 0.4
    traj = integrate_particle(kit, split, u0, p0, 1e-3, 1000, record_every=100)
    assert np.max(np.abs(traj.charges_g - traj.charges_g[0])) < 1e-10


def test_dual_charge_conserved_on_invariant_splitting():
    """With the pure quasitriangular splitting the chiral subspaces are
    ideals, so the complementary charge Q_M is conserved too."""
    _, kit, split = setup("su2", preset="pure-qt")
    rng = np.random.default_rng(6)
    u0 = kit.exp_g(rng.normal(size=3) * 0.3)
    p0 = rng.normal(size=3) * 0.4
    times = np.linspace(0, 1.0, 6)
    state_u, state_p = u0, p0.astype(complex)
    qm0 = particle_charges(kit, split, u0, p0)[1]
    traj = integrate_particle(kit, split, u0, p0, 1e-3, 1000, record_every=200)
    for j in range(len(traj.times)):
        qm = particle_charges(kit, split, traj.us[j], traj.ps[j])[1]
        assert np.max(np.abs(qm - qm0)) < 1e-10


def test_charges_match_dressing_derivative():
    """Q_M equals the dressing-cocycle derivative: with
    exp(eps p) u^-1 = m_eps g_eps, the derivative b of the M-factor obeys
    Q_M = g-part of Ad_u (0 (+) b_m)."""
    _, kit, split = setup("su2")
    rng = np.random.default_rng(8)
    u = kit.exp_g(rng.normal(size=3) * 0.4)
    p = -1j * rng.normal(size=3)  # dual real form stays factorizable
    qg, qm, _ = particle_charges(kit, split, u, p)
    uinv = np.linalg.inv(u)
    eps = 1e-6

    def m_coeffs(e):
        m, _ = kit.factorize_mg(kit.exp_m(e * p) @ uinv)
        return kit.tangent_coeffs(m - np.eye(2))

    b = (m_coeffs(eps) - m_coeffs(-eps)) / (2 * eps)
    w = np.zeros(6, dtype=complex)
    w[3:] = b[3:]
    moved = kit.ad_d(u[None])[1] @ w
    assert np.max(np.abs(moved[:3] - qm)) < 1e-8


def test_moments_are_pairing_of_charges():
    _, kit, split = setup("sl2r")
    rng = np.random.default_rng(9)
    u = kit.exp_g(rng.normal(size=3) * 0.4)
    p = rng.normal(size=3).astype(complex)
    qg, qm, mom = particle_charges(kit, split, u, p)
    # I_delta = -1/2 <Ad_u (0 (+) p), delta>: pairing swaps the blocks
    assert np.max(np.abs(mom[:3] + 0.5 * qg)) < 1e-13
    assert np.max(np.abs(mom[3:] + 0.5 * qm)) < 1e-13


# ---- phase-space structure ----------------------------------------------------------


@pytest.mark.parametrize("algebra", ["sl2r", "su2"])
def test_phase_matrices_mutual_inverse(algebra):
    pre, _, _ = setup(algebra)
    rng = np.random.default_rng(10)
    for _ in range(50):
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        m, minv = point_phase_matrices(pre, p)
        assert np.max(np.abs(m @ minv - np.eye(6))) < 1e-13
        assert np.max(np.abs(m + m.T)) < 1e-13  # antisymmetric


def test_poisson_matrix_momentum_block():
    """{xi, eta} = 2 <p, [xi, eta]> on momentum coordinates."""
    pre, _, _ = setup("su2")
    rng = np.random.default_rng(11)
    p = rng.normal(size=3)
    pois = poisson_matrix(pre, p)
    a = np.einsum("ijk,k->ij", pre.bialgebra.g.c, p.astype(complex))
    assert np.max(np.abs(pois[:3, :3] - 2.0 * a)) < 1e-13
    assert np.max(np.abs(pois[3:, 3:])) < 1e-15  # positions commute


def test_hamiltonian_flow_identity():
    """2 omega_0 applied to the flow vector (dp, u^-1 du) returns twice the
    phase-space gradient of H."""
    pre, kit, split = setup("su2")
    rng = np.random.default_rng(12)
    u = expm2(kit.mat(rng.normal(size=3) * 0.4))
    p = rng.normal(size=3).astype(complex)
    ud, pd, _ = particle_rhs(kit, split, u, p)
    m, _ = point_phase_matrices(pre, p)
    flow = np.concatenate([pd, ud])
    eps = 1e-6
    grad = np.zeros(6, dtype=complex)
    for j in range(3):
        dp = np.eye(3)[j]
        grad[j] = (
            particle_hamiltonian(kit, split, u, p + eps * dp)
            - particle_hamiltonian(kit, split, u, p - eps * dp)
        ) / (2 * eps)
    for j in range(3):
        dxi = kit.mat(np.eye(3)[j])
        grad[3 + j] = (
            particle_hamiltonian(kit, split, u @ expm2(eps * dxi), p)
            - particle_hamiltonian(kit, split, u @ expm2(-eps * dxi), p)
        ) / (2 * eps)
    assert np.max(np.abs(m @ flow - 2.0 * grad)) < 1e-6


def test_moment_map_generates_left_translations():
    """2 omega_0 applied to the left-translation generator of xi = e_i gives
    twice the gradient of the moment I_(e_i)."""
    pre, kit, split = setup("su2")
    rng = np.random.default_rng(13)
    u = expm2(kit.mat(rng.normal(size=3) * 0.4))
    p = rng.normal(size=3).astype(complex)
    m, _ = point_phase_matrices(pre, p)
    uinv = np.linalg.inv(u)
    eps = 1e-6

    def moments(u_, p_):
        return particle_charges(kit, split, u_, p_)[2]

    for i in range(3):
        xi_mat = kit.mat(np.eye(3)[i])
        v = np.concatenate([np.zeros(3), kit.coeffs(uinv @ xi_mat @ u)])
        grad = np.zeros(6, dtype=complex)
        for j in range(3):
            dp = np.eye(3)[j]
            grad[j] = (moments(u, p + eps * dp)[i] - moments(u, p - eps * dp)[i]) / (
                2 * eps
            )
        for j in range(3):
            dxi = kit.mat(np.eye(3)[j])
            grad[3 + j] = (
                moments(u @ expm2(eps * dxi), p)[i]
                - moments(u @ expm2(-eps * dxi), p)[i]
            ) / (2 * eps)
        assert np.max(np.abs(m @ v - 2.0 * grad)) < 1e-6


# ---- conjugate description ----------------------------------------------------------


def test_conjugate_description_order_four():
    """k = u exp(p x) a satisfies the loop flow equation; the residual is
    dominated by the O(dt^4) stencil + integrator error."""
    _, kit, split = setup("su2")
    rng = np.random.default_rng(14)
    u0 = kit.exp_g(rng.normal(size=3) * 0.3)
    p0 = (-1j * rng.normal(size=3)) * 0.4
    r1 = conjugate_description_residual(kit, split, u0, p0, 2e-2, 40)
    r2 = conjugate_description_residual(kit, split, u0, p0, 1e-2, 80)
    assert r1 < 1e-4
    assert 8.0 < r1 / r2 < 32.0  # fourth-order decrease


def test_truncated_run_flags_incomplete():
    """A non-compact trajectory that blows up in finite time ends early
    with completed = False instead of raising or recording NaNs."""
    _, kit, split = setup("sl2r", preset="pure-qt")
    p0 = np.array([-6.0, 4.0, 4.0], dtype=complex)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = integrate_particle(kit, split, np.eye(2), p0, 1e-2, 3000)
    assert not traj.completed
    assert len(traj.times) < 3001  # truncated before the horizon
    assert np.all(np.isfinite(traj.ps))


def test_chart_margin_stops_run_and_is_recorded():
    """The pure-qt flow above drives u off to infinity; the run stops at the
    first step where cond(Ad_u) = cond(u)^2 passes 1/eps, names that step
    and its time, keeps the records before it and reports the worst margin."""
    _, kit, split = setup("sl2r", preset="pure-qt")
    p0 = np.array([-6.0, 4.0, 4.0], dtype=complex)
    traj = integrate_particle(kit, split, np.eye(2), p0, 1e-2, 3000)
    match = re.fullmatch(
        r"chart margin lost at step (\d+) \(t=([0-9.]+)\): cond\(Ad_u\) = (\S+) exceeds 1/eps",
        traj.failure,
    )
    assert match is not None, traj.failure
    step = int(match.group(1))
    assert float(match.group(2)) == pytest.approx(step * 1e-2)
    assert float(match.group(3)) > 1.0 / np.finfo(float).eps
    assert traj.max_ad_cond == pytest.approx(float(match.group(3)), rel=1e-3)
    assert len(traj.times) == step  # t = 0 and every step before the stop
    assert np.all(np.isfinite(traj.hams))


def test_stopped_run_keeps_its_records_and_their_invariants():
    """`pltdual particle --algebra sl2r --p0=5,5,5 --dt 1e-2` blows up: the
    run stops at its first non-finite step, keeps every record before it,
    and the energy and charges computed on the stacked records equal the
    per-state functions on each record's (u, p)."""
    _, kit, split = setup("sl2r")
    u0 = kit.exp_g(np.random.default_rng(0).normal(size=3) * 0.3)
    traj = integrate_particle(kit, split, u0, np.array([5.0, 5.0, 5.0]), 1e-2, 100)
    assert not traj.completed
    assert traj.failure == "non-finite state at step 32 (t=0.32)"
    assert len(traj.times) == len(traj.us) == len(traj.hams) == 32
    for j in range(32):
        u, p = traj.us[j], traj.ps[j]
        h = particle_hamiltonian(kit, split, u, p)
        qg, _, moments = particle_charges(kit, split, u, p)
        assert abs(traj.hams[j] - h) <= 1e-13 * abs(h)
        assert np.abs(traj.charges_g[j] - qg).max() <= 1e-13 * np.abs(qg).max()
        assert np.abs(traj.moments[j] - moments).max() <= 1e-13 * np.abs(moments).max()


@pytest.mark.parametrize(
    "u, p, failure",
    [
        (np.diag([1e200, 1e-200]), [0.1, 0.2, 0.3],
         "chart margin lost at step 1 (t=0.001): cond(Ad_u) = inf exceeds 1/eps"),
        (np.eye(2), [0.1, np.nan, 0.3], "non-finite state at step 1 (t=0.001)"),
        ([[1.0, np.inf], [0.0, 1.0]], [0.1, 0.2, 0.3], "non-finite state at step 1 (t=0.001)"),
        (np.eye(2), [1e200, 0.0, 0.0], None),
    ],
    ids=["norm-overflow", "nan-p", "inf-u", "p-norm-overflow"],
)
def test_chart_check_classifies_crafted_steps(monkeypatch, u, p, failure):
    """The check after each step reads the squared norms of u and p and
    scans the entries only when a norm is not finite: finite entries whose
    norm overflows are a lost chart margin (u) or no failure (p), and only
    a non-finite entry is a non-finite state."""
    _, kit, split = setup("sl2r")
    crafted = np.array(u, dtype=complex), np.array(p, dtype=complex)
    monkeypatch.setattr(particle, "_rk_mk_step", lambda kit, split, u, p, dt: crafted)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate_particle(kit, split, np.eye(2), np.array([0.1, 0.2, 0.3]), 1e-3, 3)
    assert traj.failure == failure
    assert traj.completed is (failure is None)


def test_completed_run_reports_its_margin():
    _, kit, split = setup("sl2r")
    u0 = expm2(kit.mat(np.array([0.4, 0.3, -0.2])))
    traj = integrate_particle(kit, split, u0, np.array([0.3, -0.2, 0.1], complex), 1e-2, 20)
    assert traj.completed
    assert traj.max_ad_cond == pytest.approx(
        max(float(np.linalg.cond(u)) ** 2 for u in traj.us), rel=1e-9
    )


def test_chart_limit_on_the_norm_is_the_limit_on_cond():
    """The check after each step compares f = |u|_F^2 with ``_F_LIMIT``:
    cond(Ad_u), from the shared unimodular formula and increasing in f,
    passes 1/eps exactly from the next float above it.  The unimodular
    u = [[1, y], [0, 1]] has f = 2 + y^2, and y = 2^13 - 2^-13 and the next
    float above it give f at ``_F_LIMIT`` and at the next float above it."""
    limit = particle._F_LIMIT
    y = 2.0 ** 13 - 2.0 ** -13
    at, past = (np.array([[1.0, b], [0.0, 1.0]], dtype=complex) for b in (y, np.nextafter(y, np.inf)))
    assert np.vdot(at, at).real == limit
    assert np.vdot(past, past).real == np.nextafter(limit, np.inf)
    assert particle._ad_cond(at) <= particle._AD_COND_LIMIT
    assert particle._ad_cond(past) > particle._AD_COND_LIMIT


def test_reported_margin_is_the_svd_margin_of_a_well_conditioned_run():
    """A default-like su2 run keeps u nearly unitary, where cond(Ad_u) - 1 is
    roundoff: the reported margin equals the largest SVD cond(u)^2 over
    its records to 1e-12, not only to the 1e-8 that a form in |u|_F^2
    alone can resolve."""
    _, kit, split = setup("su2")
    u0 = kit.exp_g(np.array([0.3, -0.2, 0.4]))
    traj = integrate_particle(kit, split, u0, np.array([0.5, 0.3, -0.2]), 1e-2, 200)
    assert traj.completed
    want = max(float(np.linalg.cond(u)) ** 2 for u in traj.us)
    assert abs(traj.max_ad_cond - want) < 1e-12
