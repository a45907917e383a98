"""End-to-end acceptance gate.

Each test exercises one of the eight headline guarantees at its stated
tolerance and prints a single machine-greppable pass/fail line.
"""

import numpy as np
import pytest

from pltdual import fieldsim as fs
from pltdual.bialgebra import (
    build_double,
    chiral_iso_defect,
    chiral_matrix,
    cybe_residual,
    dual_algebra,
    pairing_ad_invariance_residual,
    symmetric_part_invariance_residual,
)
from pltdual.duality import (
    SplittingError,
    dual_graph_at,
    graph_at,
    lagrangian,
    limit_slopes,
    splitting,
    su2_dual_e_closed,
    su2_dual_e_inv_closed,
    su2_e_closed,
    su2_e_inv_closed,
    su2_trace_lagrangian,
)
from pltdual.groups import GroupKit, expm2
from pltdual.liecore import jacobi_residual
from pltdual.models import make_preset, make_sl2r, make_su2
from pltdual.particle import (
    integrate_particle,
    point_phase_matrices,
    poisson_matrix,
    principal_limit_solution,
    pure_qt_reduced_solution,
    pure_qt_solution,
    riccati_h,
)

from identities import chiral_pairing_defect, splitting_defects

ALGEBRAS = ("sl2r", "su2")


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {detail}")
    assert ok, detail


def _setup(algebra, preset="modified-principal", **kw):
    pre = make_preset(preset, algebra=algebra, **kw)
    return pre, GroupKit(pre.bialgebra), splitting(pre)


# ---- 1. algebraic structure ---------------------------------------------------------


def test_acceptance_1_structure():
    worst = {"cybe": 0.0, "invariance": 0.0, "dual_jacobi": 0.0, "double_jacobi": 0.0,
             "chiral_iso": 0.0}
    for make in (make_sl2r, make_su2):
        b = make()
        worst["cybe"] = max(worst["cybe"], cybe_residual(b.g, b.rho))
        worst["invariance"] = max(
            worst["invariance"], symmetric_part_invariance_residual(b.g, b.rho)
        )
        worst["dual_jacobi"] = max(worst["dual_jacobi"], jacobi_residual(dual_algebra(b)))
        double = build_double(b)
        worst["double_jacobi"] = max(worst["double_jacobi"], jacobi_residual(double.algebra))
        worst["chiral_iso"] = max(worst["chiral_iso"], chiral_iso_defect(double),
                                  chiral_pairing_defect(b, chiral_matrix(b.rho)))
        worst.setdefault("pairing", 0.0)
        worst["pairing"] = max(worst["pairing"], pairing_ad_invariance_residual(double))
    ok = (
        worst["cybe"] < 1e-13
        and worst["invariance"] < 1e-12
        and worst["dual_jacobi"] < 1e-13
        and worst["double_jacobi"] < 1e-12
        and worst["pairing"] < 1e-12
        and worst["chiral_iso"] < 1e-12
    )
    _report(1, ok, "structure residuals: " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# ---- 2. splitting family -------------------------------------------------------------


def test_acceptance_2_splitting_family():
    rng = np.random.default_rng(42)
    worst_orth = worst_diag = worst_proj = 0.0
    for algebra in ALGEBRAS:
        count = 0
        while count < 100:
            lam = rng.uniform(-2.0, 2.0)
            mu = rng.uniform(-2.0, 2.0)
            if abs(lam + 1.0 + 2.0 * mu) <= 0.1:
                continue
            count += 1
            defects = splitting_defects(
                splitting(make_preset("custom", algebra=algebra, lam=lam, mu=mu)))
            worst_orth = max(worst_orth, defects["orthogonality"])
            worst_diag = max(worst_diag, defects["diagonal_plus"], defects["diagonal_minus"])
            worst_proj = max(worst_proj, defects["projectors"])
        try:
            splitting(make_preset("custom", algebra=algebra, lam=1.0, mu=-1.0))
            rank_drop_detected = False
        except SplittingError:
            rank_drop_detected = True
    ok = (
        worst_orth < 1e-10
        and worst_diag < 1e-10
        and worst_proj < 1e-12
        and rank_drop_detected
    )
    _report(
        2,
        ok,
        f"100 random (lam, mu) per algebra: orthogonality={worst_orth:.2e}, "
        f"diagonal={worst_diag:.2e}, projectors={worst_proj:.2e}, "
        f"rank drop detected={rank_drop_detected}",
    )


# ---- 3. graph-coordinate routes --------------------------------------------------------


def test_acceptance_3_route_agreement():
    worst_routes = worst_uindep = 0.0
    for algebra in ALGEBRAS:
        _, kit, split = _setup(algebra)
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = kit.exp_g(rng.normal(size=3) * 0.6)
            (e0, t0), *others = [
                graph_at(kit, split, u, route=r)
                for r in ("transport", "invariant-split", "cocycle")
            ]
            for e_inv, t_inv in others:
                worst_routes = max(
                    worst_routes,
                    float(np.max(np.abs(e0 - e_inv))),
                    float(np.max(np.abs(t0 - t_inv))),
                )
        _, kit_g, split_g = _setup(algebra, preset="g-invariant")
        for _ in range(20):
            u = kit_g.exp_g(rng.normal(size=3) * 0.7)
            e_inv, t_inv = graph_at(kit_g, split_g, u)
            worst_uindep = max(
                worst_uindep,
                float(np.max(np.abs(e_inv - split_g.e_inv))),
                float(np.max(np.abs(t_inv - split_g.t_inv))),
            )
    ok = worst_routes < 1e-11 and worst_uindep < 1e-12
    _report(
        3,
        ok,
        f"three-route agreement={worst_routes:.2e} (100 points/algebra), "
        f"lam=0 u-independence={worst_uindep:.2e}",
    )


# ---- 4. compact closed forms -----------------------------------------------------------


def test_acceptance_4_su2_closed_forms():
    _, kit, split = _setup("su2")
    rng = np.random.default_rng(9)
    worst_graph = worst_inv = worst_lag = 0.0
    for _ in range(50):
        u = kit.exp_g(rng.normal(size=3) * 0.8)
        e_inv, _ = graph_at(kit, split, u)
        worst_graph = max(worst_graph, float(np.max(np.abs(e_inv - su2_e_inv_closed(u)))))
        worst_inv = max(
            worst_inv,
            float(np.max(np.abs(su2_e_closed(u) @ su2_e_inv_closed(u) - np.eye(3)))),
        )
        t_vec = rng.normal(size=3) * 0.3
        t = kit.su2star_from_vector(t_vec)
        e_bar_inv = dual_graph_at(kit, split, t)
        worst_graph = max(
            worst_graph, float(np.max(np.abs(e_bar_inv - su2_dual_e_inv_closed(t_vec))))
        )
        worst_inv = max(
            worst_inv,
            float(
                np.max(
                    np.abs(
                        su2_dual_e_closed(t_vec) @ su2_dual_e_inv_closed(t_vec) - np.eye(3)
                    )
                )
            ),
        )
        xp = rng.normal(size=3) + 1j * rng.normal(size=3)
        xm = rng.normal(size=3) + 1j * rng.normal(size=3)
        val = lagrangian(kit, split, u, xp, xm)
        tr = su2_trace_lagrangian(u, kit.mat(xp), kit.mat(xm))
        worst_lag = max(worst_lag, abs(val - tr) / max(abs(val), 1.0))
    ok = worst_graph < 1e-12 and worst_lag < 1e-10 and worst_inv < 1e-13
    _report(
        4,
        ok,
        f"closed forms (50 pts): graph={worst_graph:.2e}, "
        f"matrix inverses={worst_inv:.2e}, trace Lagrangian rel={worst_lag:.2e}",
    )


# ---- 5. particle solutions ----------------------------------------------------------


def test_acceptance_5_particle_solutions():
    _, kit, split = _setup("sl2r", preset="pure-qt")
    omega, x0 = 0.8, 0.35 + 0.0j
    u0 = expm2(kit.mat(np.array([0.1, -0.2, 0.3])))
    p0 = np.array([2 * omega, x0, np.conj(x0)], dtype=complex)
    traj = integrate_particle(kit, split, u0, p0, 1e-3, 1000)
    u_exact, p_exact = pure_qt_solution(kit, u0, omega, x0, 1.0)
    analytic_err = max(
        float(np.max(np.abs(traj.us[-1] - u_exact))),
        float(np.max(np.abs(traj.ps[-1] - p_exact))),
    )
    charge_drift = float(np.max(np.abs(traj.charges_g - traj.charges_g[0])))

    # reduced Riccati flow
    h0, x0r = 0.3, 0.4
    y0 = (0.25 - h0**2) / x0r

    def f(v):
        return np.array([2 * v[1] * v[2], -2 * v[0] * v[1], -2 * v[0] * v[2]])

    v = np.array([h0, x0r, y0])
    for _ in range(10000):
        k1, k2 = f(v), f(v + 5e-5 * f(v))
        k3 = f(v + 5e-5 * k2)
        k4 = f(v + 1e-4 * k3)
        v = v + 1e-4 / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    h_ref, x_ref, y_ref = pure_qt_reduced_solution(1.0, h0, x0r, y0)
    riccati_err = max(
        abs(v[0] - h_ref), abs(v[1] - x_ref), abs(v[2] - y_ref),
        abs(riccati_h(1.0, h0, 1.0) - h_ref),
    )
    invariant_drift = abs((v[0] ** 2 + v[1] * v[2]) - 0.25)

    # integrator order against the analytic solution
    u_half, p_half = pure_qt_solution(kit, u0, omega, x0, 0.5)
    errs, dts = [], (2e-2, 1e-2, 5e-3)
    for dt in dts:
        tr = integrate_particle(kit, split, u0, p0, dt, int(round(0.5 / dt)))
        errs.append(
            max(np.max(np.abs(tr.us[-1] - u_half)), np.max(np.abs(tr.ps[-1] - p_half)))
        )
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])

    # principal limit at large mu
    p0c = np.array([0.3, -0.1, 0.2], dtype=complex)
    _, kit_l, split_l = _setup("su2", preset="principal-limit", mu=1e7)
    u0c = expm2(kit_l.mat(np.array([0.2, 0.1, -0.3])))
    tr = integrate_particle(kit_l, split_l, u0c, p0c, 1e-3, 1000)
    limit_err = float(
        np.max(np.abs(tr.us[-1] - principal_limit_solution(kit_l, split_l, u0c, p0c, 1.0)))
    )

    ok = (
        analytic_err < 1e-8
        and riccati_err < 1e-8
        and abs(slope - 4.0) < 0.3
        and invariant_drift < 1e-11
        and charge_drift < 1e-10
        and limit_err < 1e-7
    )
    _report(
        5,
        ok,
        f"analytic={analytic_err:.2e}, riccati={riccati_err:.2e}, order={slope:.2f}, "
        f"invariant={invariant_drift:.2e}, charge={charge_drift:.2e}, "
        f"principal limit (mu=1e7)={limit_err:.2e}",
    )


# ---- 6. field simulation ----------------------------------------------------------


def test_acceptance_6_field_simulation():
    _, kit, split = _setup("su2")

    # main smooth run with all diagnostics
    st = fs.random_smooth_loop(kit, split, 64, boundary="periodic", seed=2, amplitude=0.1)
    main = fs.integrate_field(
        st, 2.5e-3, 400, record_every=40, diagnostics=True
    )
    h = main.hamiltonians
    h_drift = float(np.max(np.abs(h - h[0])) / abs(h[0]))
    gap = float(np.nanmax(main.duality_gaps))
    fd_drift = float(np.max(np.abs(main.f_d - main.f_d[0])))

    # equation-of-motion residual refinement
    res = {}
    for n_cells, dt in ((64, 2.5e-3), (128, 1.25e-3)):
        st_r = fs.random_smooth_loop(
            kit, split, n_cells, boundary="periodic", seed=3, amplitude=0.3
        )
        n_steps = int(round(0.2 / dt))
        tr = fs.integrate_field(st_r, dt, n_steps, record_every=n_steps, diagnostics=True)
        res[n_cells] = (tr.eom_residuals_g[-1], tr.eom_residuals_dual[-1])
    ratios = [res[64][k] / res[128][k] for k in (0, 1)]
    ratio_ok = all(abs(r - 4.0) < 0.8 for r in ratios)

    # pointlike data stays pointlike in both factorizations
    p0 = np.array([0.4, -0.2, 0.5], dtype=complex) * 0.3
    u0 = expm2(kit.mat(np.array([0.2, -0.1, 0.3])))
    stp = fs.init_pointlike(kit, split, u0, p0, 64)
    trp = fs.integrate_field(stp, 2.5e-3, 400, record_every=400)
    last = trp.final_state
    us, _ = kit.factorize_gm(last.k)
    u_spread = float(np.abs(us - us[32]).max())
    ts, vs = kit.factorize_mg(last.k)
    tv = kit.factorize_gm(ts @ vs[:, None])[0]
    dual_spread = float(np.abs(tv - tv.mean(axis=0)).max())

    # lam = 0 family conserves the g-valued moments
    _, kit_g, split_g = _setup("su2", preset="g-invariant")
    st_g = fs.random_smooth_loop(kit_g, split_g, 64, boundary="periodic", seed=7, amplitude=0.1)
    tr_g = fs.integrate_field(st_g, 2.5e-3, 400, record_every=40)
    moment_drift = float(np.max(np.abs(tr_g.moments[:, :3] - tr_g.moments[0, :3])))

    ok = (
        h_drift < 1e-6
        and ratio_ok
        and gap < 1e-9
        and u_spread < 1e-6
        and dual_spread < 1e-6
        and moment_drift < 1e-7
    )
    _report(
        6,
        ok,
        f"H drift={h_drift:.2e}, eom ratios={ratios[0]:.2f}/{ratios[1]:.2f}, "
        f"gap={gap:.2e}, pointlike spreads={u_spread:.2e}/{dual_spread:.2e}, "
        f"lam=0 moment drift={moment_drift:.2e}",
    )


# ---- 7. point phase-space structure ---------------------------------------------------


def test_acceptance_7_phase_structure():
    worst_inv = worst_bracket = 0.0
    for algebra in ALGEBRAS:
        pre = make_preset("modified-principal", algebra=algebra)
        rng = np.random.default_rng(10)
        for _ in range(50):
            p = rng.normal(size=3) + 1j * rng.normal(size=3)
            m, minv = point_phase_matrices(pre, p)
            worst_inv = max(worst_inv, float(np.max(np.abs(m @ minv - np.eye(6)))))
        p = rng.normal(size=3)
        pois = poisson_matrix(pre, p)
        # {xi, eta} = 2 <p, [xi, eta]> on the momentum block
        expected = 2.0 * np.einsum("ijk,k->ij", pre.bialgebra.g.c, p.astype(complex))
        worst_bracket = max(worst_bracket, float(np.max(np.abs(pois[:3, :3] - expected))))
    ok = worst_inv < 1e-13 and worst_bracket < 1e-13
    _report(
        7,
        ok,
        f"symplectic/Poisson mutual inverse={worst_inv:.2e} (50 pts/algebra), "
        f"momentum bracket={worst_bracket:.2e}",
    )


# ---- 8. limiting-family slopes -------------------------------------------------------


def test_acceptance_8_limit_slopes():
    report = limit_slopes(algebra="su2", mus=(10.0, 100.0, 1000.0), samples=10, seed=0)
    ok = abs(report["slope_primal"] + 1.0) < 0.2 and abs(report["slope_dual"] + 1.0) < 0.2
    _report(
        8,
        ok,
        f"deviation slopes over mu=10..1000: primal={report['slope_primal']:.3f}, "
        f"dual={report['slope_dual']:.3f} (target -1 +- 0.2)",
    )
