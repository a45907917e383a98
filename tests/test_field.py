"""Loop-group field simulator: discretization orders, conservation laws,
the two dual descriptions and the discrete symplectic structure."""

import numpy as np
import pytest

from pltdual import fieldsim as fs
from pltdual import particle as pt
from pltdual.duality import SplittingData, splitting
from pltdual.groups import GroupKit, expm2
from pltdual.models import make_preset

N = 3  # algebra dimension


def setup(algebra="su2", preset="modified-principal", **kw):
    pre = make_preset(preset, algebra=algebra, **kw)
    return pre, GroupKit(pre.bialgebra), splitting(pre)


@pytest.fixture(scope="module")
def su2_mp():
    _, kit, split = setup()
    return kit, split


@pytest.fixture(scope="module")
def main_run(su2_mp):
    """Smooth periodic run with full diagnostics enabled."""
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 64, boundary="periodic", seed=2, amplitude=0.1)
    return fs.integrate_field(st, 2.5e-3, 400, record_every=40, diagnostics=True)


@pytest.fixture(scope="module")
def pointlike_run(su2_mp):
    kit, split = su2_mp
    p0 = np.array([0.4, -0.2, 0.5], dtype=complex) * 0.3
    u0 = expm2(kit.mat(np.array([0.2, -0.1, 0.3])))
    st = fs.init_pointlike(kit, split, u0, p0, 64)
    traj = fs.integrate_field(st, 2.5e-3, 400, record_every=400)
    return u0, p0, traj


# ---- conservation and duality on the main run ---------------------------------------


def test_energy_conserved(main_run):
    h = main_run.hamiltonians
    assert main_run.completed
    assert np.max(np.abs(h - h[0])) / abs(h[0]) < 1e-6


def test_duality_gap_machine_small(main_run):
    assert np.nanmax(main_run.duality_gaps) < 1e-9


def test_quadratic_loop_function_conserved(main_run):
    assert np.max(np.abs(main_run.f_d - main_run.f_d[0])) < 1e-7


def test_moment_map_g_part_conserved_lam_zero():
    """With the u-independent (lam = 0) family the g-valued moments of the
    loop flow are conserved to integrator accuracy."""
    _, kit, split = setup(preset="g-invariant")
    st = fs.random_smooth_loop(kit, split, 64, boundary="periodic", seed=7, amplitude=0.1)
    traj = fs.integrate_field(st, 2.5e-3, 400, record_every=40)
    drift = np.max(np.abs(traj.moments[:, :N] - traj.moments[0, :N]))
    assert drift < 1e-7


# ---- discretization orders -----------------------------------------------------------


def test_eom_residuals_second_order(su2_mp):
    """The diagnostic stencils for both second-order field equations are
    second order in (dx, dt): halving both shrinks the residual by ~4."""
    kit, split = su2_mp
    res = {}
    for n_cells, dt in ((64, 2.5e-3), (128, 1.25e-3)):
        st = fs.random_smooth_loop(
            kit, split, n_cells, boundary="periodic", seed=3, amplitude=0.3
        )
        n_steps = int(round(0.2 / dt))
        traj = fs.integrate_field(st, dt, n_steps, record_every=n_steps, diagnostics=True)
        res[n_cells] = (traj.eom_residuals_g[-1], traj.eom_residuals_dual[-1])
    for k in (0, 1):
        ratio = res[64][k] / res[128][k]
        assert abs(ratio - 4.0) < 0.8


@pytest.mark.parametrize("n_cells", [64, 128])
def test_dressing_relation_residual_bound(su2_mp, n_cells):
    """s_+- s^-1 equals the graph image of u^-1 u_+- up to spatial
    discretization error bounded by 5e-3 dx^2 on resolved grids."""
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, n_cells, boundary="periodic", seed=1, amplitude=0.3)
    assert fs.dressing_relation_residual(st) < 5e-3 * st.dx**2


def test_time_convergence_fourth_order(su2_mp):
    kit, split = su2_mp
    st0 = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=5, amplitude=0.3)
    T = 0.5
    ref = st0
    for _ in range(int(T / 1e-4)):
        ref = fs.step(ref, 1e-4)
    errs, dts = [], (1e-2, 5e-3, 2.5e-3)
    for dt in dts:
        s = st0
        for _ in range(int(T / dt)):
            s = fs.step(s, dt)
        errs.append(np.abs(s.k - ref.k).max())
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.3


def test_flow_reversible(su2_mp):
    """Swapping the chiral projectors reverses the flow: stepping forward
    then stepping the flipped system returns the initial loop, with a
    defect that shrinks at the integrator order."""
    kit, split = su2_mp
    flip = SplittingData(
        split.preset,
        split.t_inv,
        split.e_inv,
        split.basis_pair[::-1],
        -split.pi_diff,
        split.pairing,
    )
    st0 = fs.random_smooth_loop(kit, split, 32, boundary="periodic", seed=4, amplitude=0.3)
    defects = []
    for dt in (2e-2, 1e-2):
        s1 = fs.step(st0, dt)
        s2 = fs.step(fs.LoopState(kit, flip, s1.k, s1.boundary, s1.time), dt)
        defects.append(np.abs(s2.k - st0.k).max())
    assert defects[0] < 1e-8
    assert defects[0] / defects[1] > 24.0


# ---- pointlike data and the particle reduction --------------------------------------


def test_pointlike_reduces_to_particle(pointlike_run, su2_mp):
    """k(x) = u(t) exp(p(t) x) stays pointlike: the evolved loop's factors
    reproduce the point-particle trajectory at every node."""
    kit, split = su2_mp
    u0, p0, ftraj = pointlike_run
    ptraj = pt.integrate_particle(kit, split, u0, p0, 2.5e-3, 400, record_every=400)
    last = ftraj.final_state
    us, s = kit.factorize_gm(last.k)
    sx = fs._x_derivative(s, last.dx, last.boundary) @ np.linalg.inv(s)
    pf = np.stack([kit.tangent_coeffs(sx[j])[N:] for j in range(last.n_nodes)])
    j = last.n_nodes // 2
    assert np.abs(us[j] - ptraj.us[-1]).max() < 1e-11
    assert np.abs(pf[j] - ptraj.ps[-1]).max() < 1e-11
    # u is x-independent across the whole grid
    assert max(np.abs(u - us[j]).max() for u in us) < 1e-6


def test_pointlike_dual_constancy(pointlike_run, su2_mp):
    """In the dual factorization k = t v of pointlike data, the dressed
    group point t |> v and the combination t_x t^-1 + t (v_x v^-1) t^-1
    are constant in x."""
    kit, _ = su2_mp
    _, _, ftraj = pointlike_run
    last = ftraj.final_state
    t, vm = kit.factorize_mg(last.k)
    tv = np.stack([kit.factorize_gm(t[j] @ vm[j])[0] for j in range(last.n_nodes)])
    assert np.abs(tv - tv.mean(axis=0)).max() < 1e-6
    tx = fs._x_derivative(t, last.dx, last.boundary)
    dv = fs._x_derivative(vm, last.dx, last.boundary)
    comb = tx @ np.linalg.inv(t) + t @ (dv @ np.linalg.inv(vm))[:, None] @ np.linalg.inv(t)
    cc = np.stack([kit.tangent_coeffs(comb[j]) for j in range(last.n_nodes)])
    assert np.abs(cc - cc.mean(axis=0)).max() < 1e-5


# ---- symplectic structure ------------------------------------------------------------


def _smooth_var(seed, xs):
    r = np.random.default_rng(seed)
    c = r.normal(size=(2 * N, 3))
    return np.stack(
        [sum(c[i][m] * np.cos(m * xs) for m in range(3)) for i in range(2 * N)], axis=1
    ).astype(complex)


def test_sbp_operator_exact_summation_by_parts():
    d, h = fs._sbp_operator(20, 0.1)
    m = np.diag(h) @ d + d.T @ np.diag(h)
    expected = np.zeros((20, 20))
    expected[0, 0] = -1.0
    expected[-1, -1] = 1.0
    assert np.max(np.abs(m - expected)) < 1e-13


@pytest.mark.parametrize("boundary", ["periodic", "double-neumann"])
def test_symplectic_form_antisymmetric_and_degenerate(su2_mp, boundary):
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 32, boundary=boundary, seed=6, amplitude=0.3)
    xs = fs.grid_points(32, boundary)
    y = _smooth_var(1, xs)
    z = _smooth_var(2, xs)
    scale = max(abs(fs.symplectic_form(st, y, z)), 1.0)
    assert abs(fs.symplectic_form(st, y, z) + fs.symplectic_form(st, z, y)) < 1e-13 * scale
    # constant right m-translations are gauge: the form must annihilate them
    zm = np.zeros((st.n_nodes, 2 * N), dtype=complex)
    zm[:, N:] = np.array([0.3, -0.2, 0.5])
    assert abs(fs.symplectic_form(st, y, zm)) < 1e-12
    assert abs(fs.symplectic_form(st, zm, y)) < 1e-12


def _perturb(kit, split, state, var, eps):
    mats = [kit.chiral_mats(eps * var[j]) for j in range(state.n_nodes)]
    k = np.stack([state.k[j] @ expm2(m) for j, m in enumerate(mats)])
    return fs.LoopState(kit, split, k, state.boundary, state.time)


def test_flow_is_hamiltonian(su2_mp):
    """2 omega(kdot, z) = 2 dH(z) for smooth variations z on a resolved
    periodic grid."""
    kit, split = su2_mp
    errs = {}
    for n_cells in (128, 256):
        st = fs.random_smooth_loop(
            kit, split, n_cells, boundary="periodic", seed=6, amplitude=0.3
        )
        xs = fs.grid_points(n_cells, "periodic")
        kdot_r = fs._tangent_field(st) @ -split.pi_diff.T
        kdot_l = np.stack(
            [kit.ad_d(np.linalg.inv(st.k[j]))[1] @ kdot_r[j]
             for j in range(st.n_nodes)]
        )
        eps = 1e-6
        z = _smooth_var(2, xs)
        dh = (
            fs.loop_functions(_perturb(kit, split, st, z, eps))[0]
            - fs.loop_functions(_perturb(kit, split, st, z, -eps))[0]
        ) / (2 * eps)
        w = fs.symplectic_form(st, kdot_l, z)
        errs[n_cells] = abs(w - 2 * dh) / abs(2 * dh)
    assert errs[128] < 1e-5
    assert errs[256] < 1e-6
    # the residual is pure spatial discretization: it dies under refinement
    assert errs[128] / errs[256] > 8.0


def test_neumann_flow_vanishes_at_ends(su2_mp):
    """Double-Neumann data has k_x = 0 at both ends, so the flow velocity
    (pi_- - pi_+) k_x k^-1 is small there and O(1) in the interior."""
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 32, boundary="double-neumann", seed=6, amplitude=0.3)
    kd = fs._tangent_field(st) @ -split.pi_diff.T
    assert np.abs(kd[0]).max() < 1e-3
    assert np.abs(kd[-1]).max() < 1e-3
    assert np.abs(kd[st.n_nodes // 2]).max() > 1e-2


def _boundary_balance(algebra, n_cells, flux_at_0=True):
    """Relative mismatches of H(T) - H(0) and f_d(T) - f_d(0) against the
    time integrals of their boundary fluxes -1/4 [<w, w>]_0^pi and
    1/4 [<w, P w>]_0^pi over a double-Neumann run, optionally leaving out
    the flux through x = 0."""
    _, kit, split = setup(algebra)
    st = fs.random_smooth_loop(kit, split, n_cells, "double-neumann", seed=2, amplitude=0.3)
    dt = st.dx / 4
    times, values, fluxes = [], [], []
    for i in range(round(0.25 / dt) + 1):
        if i:
            st = fs.step(st, dt)
        ham, _, f_d = fs.loop_functions(st)
        w = st.tangent
        ww = np.einsum("ni,ij,nj->n", w, split.pairing, w)
        wpw = np.einsum("ni,ij,nj->n", w, split.pairing, w @ split.pi_diff.T)
        times.append(st.time)
        values.append((ham, f_d))
        fluxes.append((-0.25 * (ww[-1] - flux_at_0 * ww[0]), 0.25 * (wpw[-1] - flux_at_0 * wpw[0])))
    change = np.subtract(values[-1], values[0])
    return np.abs(change - np.trapezoid(fluxes, times, axis=0)) / np.abs(change)


@pytest.mark.parametrize("algebra", ["su2", "sl2r"])
def test_double_neumann_energy_balance(algebra):
    """double-Neumann imposes no boundary condition, so H and f_d are not
    conserved: they change by the time integrals of the fluxes through the
    two ends, dH/dt = -1/4 [<w, w>]_0^pi and df_d/dt = 1/4 [<w, P w>]_0^pi
    with P = pi_+ - pi_-.  The mismatch falls under refinement, and leaving
    out the flux through x = 0 breaks the balance."""
    mismatch = {n: _boundary_balance(algebra, n) for n in (16, 32, 64)}
    assert np.all(mismatch[32] < mismatch[16]) and np.all(mismatch[64] < mismatch[32])
    assert np.all(mismatch[64] < 2e-3)
    assert np.all(_boundary_balance(algebra, 32, flux_at_0=False) > 100 * mismatch[32])


# ---- observables and small utilities --------------------------------------------------


def test_quadrature_simpson_exact_on_cubics():
    xs = fs.grid_points(8)
    vals = xs**3 - 2 * xs**2 + 1
    exact = np.pi**4 / 4 - 2 * np.pi**3 / 3 + np.pi
    assert abs(fs._quadrature(vals, np.pi / 8, "double-neumann") - exact) < 1e-12


def test_quadrature_trapezoid_on_odd_cell_count(su2_mp):
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 33, boundary="double-neumann", seed=5, amplitude=0.2)
    dens = fs.hamiltonian_density(st)
    trapezoid = st.dx * (dens.sum() - 0.5 * (dens[0] + dens[-1]))
    assert abs(fs.loop_functions(st)[0] - trapezoid) < 1e-14 * abs(trapezoid)


def test_quadrature_periodic_exact_on_modes():
    xs = fs.grid_points(16, "periodic")
    vals = 1.0 + np.cos(2 * xs) + np.sin(4 * xs)
    assert abs(fs._quadrature(vals, np.pi / 16, "periodic") - np.pi) < 1e-12


def test_moment_map_matches_basis(su2_mp):
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 32, boundary="periodic", seed=8, amplitude=0.2)
    basis = fs.loop_functions(st)[1]
    w = fs._tangent_field(st)
    for i in range(2 * N):
        delta = np.eye(2 * N)[i]
        # I_delta = -1/2 int <w, delta> dx
        moment = fs._quadrature(-0.5 * (w @ (split.pairing @ delta)), st.dx, st.boundary)
        assert abs(moment - basis[i]) < 1e-13


def test_constraint_defect_small_on_initial_data(su2_mp):
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 32, boundary="periodic", seed=9, amplitude=0.2)
    defect = np.abs(np.linalg.det(st.k) - 1.0).max()
    assert defect < 1e-12


def test_hamiltonian_density_matches_total(su2_mp):
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 32, boundary="periodic", seed=10, amplitude=0.2)
    dens = fs.hamiltonian_density(st)
    assert abs(fs._quadrature(dens, st.dx, st.boundary) - fs.loop_functions(st)[0]) < 1e-14


@pytest.mark.parametrize("boundary", ["periodic", "double-neumann"])
def test_diagnostics_switch_fills_exactly_its_columns(su2_mp, boundary):
    """Without ``diagnostics`` the duality gap and both field-equation
    residuals are NaN on every row; with it the gap is filled from row 0
    and the residuals, which need the row before, from row 1.  The other
    columns are the same either way."""
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 16, boundary=boundary, seed=4, amplitude=0.2)
    off = fs.integrate_field(st, 0.01, 6, record_every=2)
    on = fs.integrate_field(st, 0.01, 6, record_every=2, diagnostics=True)
    assert len(off.times) == len(on.times) == 4
    for col in (off.duality_gaps, off.eom_residuals_g, off.eom_residuals_dual):
        assert np.isnan(col).all()
    assert np.isfinite(on.duality_gaps).all()
    for col in (on.eom_residuals_g, on.eom_residuals_dual):
        assert np.isnan(col[0]) and np.isfinite(col[1:]).all()
    for a, b in ((off.hamiltonians, on.hamiltonians), (off.moments, on.moments), (off.f_d, on.f_d)):
        assert np.array_equal(a, b)


# ---- early stops ---------------------------------------------------------------------


@pytest.mark.parametrize("amplitude, seed, rows", [(1.6, 0, 10), (1.8, 3, 0)])
def test_chart_exit_keeps_whole_rows(amplitude, seed, rows):
    """A run that leaves the sl2r chart keeps every row recorded before the
    exit, and each row whole: the failing record appends nothing."""
    _, kit, split = setup("sl2r")
    st = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=seed, amplitude=amplitude)
    traj = fs.integrate_field(st, 0.01, 80, record_every=4, diagnostics=True)
    assert not traj.completed
    at = {10: "step 40 (t=0.4)", 0: "step 0 (t=0)"}[rows]  # the failing record's step
    assert traj.failure.startswith(f"FactorizationError at {at}: sl2r factorization chart")
    columns = (traj.times, traj.hamiltonians, traj.f_d, traj.duality_gaps,
               traj.eom_residuals_g, traj.eom_residuals_dual)
    assert [len(c) for c in columns] == [rows] * len(columns)
    assert traj.moments.shape == (rows, 2 * N)


@pytest.mark.parametrize("diagnostics", [False, True])
def test_nonfinite_state_stops_run(su2_mp, diagnostics):
    """A state that turns non-finite stops the run at that step, named with
    its time, before any diagnostic sees it, with or without diagnostics."""
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=0, amplitude=2)
    traj = fs.integrate_field(st, 0.02, 40, record_every=10, diagnostics=diagnostics)
    assert not traj.completed
    assert traj.failure == "non-finite state at step 15 (t=0.3)"
    assert np.allclose(traj.times, [0.0, 0.2])
    assert np.all(np.isfinite(traj.hamiltonians))


def test_nonfinite_initial_loop_stops_at_step_0(su2_mp):
    """The initial loop meets the check of every stepped state: a non-finite
    node stops the run at step 0, with no row and no step."""
    kit, split = su2_mp
    st = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=0, amplitude=0.1)
    k = st.k.copy()
    k[3] = np.nan
    traj = fs.integrate_field(fs.LoopState(kit, split, k, st.boundary, st.time), 0.01, 4,
                              diagnostics=True)
    assert not traj.completed and traj.failure == "non-finite state at step 0 (t=0)"
    assert len(traj.times) == traj.steps == 0 and traj.final_state is None
    assert traj.moments.shape == (0, 2 * kit.b.g.dim)
