"""Point-particle reduction of the sigma-model flow on the double.

The x-independent momentum p lives in the dual algebra m; the group
coordinate u evolves by

    u^-1 du/dt = 2 T_u^-1 (E_u^-1 - T_u^-1)^-1 E_u^-1 p,
    dp/dt      = [ (E_u^-1 - T_u^-1)^-1 (E_u^-1 + T_u^-1) p, p ]_m,

with conserved energy 4 H = 2 < (E_u^-1 - T_u^-1)^-1 E_u^-1 p, E_u^-1 p >.
The graph maps are X_u^-1 = Ad_{u^-1} (X_e^-1 - r1) Ad_{u^-1}^T + r1, so the
r1 shifts cancel in their difference and

    (E_u^-1 - T_u^-1)^-1 = Ad_u^T (E_e^-1 - T_e^-1)^-1 Ad_u:

one constant matrix conjugated by the adjoint pair (Ad_{u^-1}, Ad_u).  The
right-hand side, the energy and the charges are therefore 3x3 products
with that pair and the constants of :attr:`SplittingData.shifted_maps`,
with no linear solve.  The right-hand side folds its chain of constant
3x3 products into two constant 6x3 maps, so that a stage costs a dozen
small products; at these sizes a numpy call costs about the same whatever
its operands, so the count of calls is the cost.  A trajectory keeps only
(t, u, p) per record while it steps, and the energy and the charges of
all its records are computed afterwards in one pass on the stacked
records, with one stacked adjoint pair.

The conjugate factor a(t) in k = u exp(p x) a evolves in the dual group by
da/dt a^-1 = (E_u^-1 - T_u^-1)^-1 (E_u^-1 + T_u^-1) p and is integrated
alongside as a diagnostic of the equivalence with the loop-field flow.

Integration is the fourth-order Runge-Kutta-Munthe-Kaas step
:func:`pltdual.groups.rkmk4` that also advances the loop field: u^T (whose
right-translated velocity is the transpose of u^-1 du/dt) and the chiral
stack of a are stepped as one stack of group matrices, with p as
the additive variable, so u and a stay on their groups to machine
precision.  The run stops once cond(Ad_u) = cond(u)^2 passes 1/eps, where
Ad_u and Ad_{u^-1} no longer invert each other in double precision.  Since
u is unimodular, cond(u) follows from |u|_F^2 alone: the check after each
step takes the squared norms of u and p and computes cond(Ad_u) in Python
floats, and scans the entries for non-finite values only when a norm is
not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .duality import SplittingData, graph_at, graph_inverse
from .groups import GroupKit, _unimodular_cond, _vadj, expm2, rkmk4
from .liecore import bracket_coeffs
from .models import ModelPreset

__all__ = [
    "ParticleState",
    "ParticleTrajectory",
    "particle_rhs",
    "particle_rhs_inverse_form",
    "particle_rhs_invariant_form",
    "particle_hamiltonian",
    "particle_charges",
    "integrate_particle",
    "point_phase_matrices",
    "poisson_matrix",
    "conjugate_description_residual",
    "riccati_h",
    "pure_qt_reduced_solution",
    "pure_qt_solution",
    "principal_limit_solution",
]


@dataclass
class ParticleState:
    """The particle's (u, p) and conjugate factor a.

    u must be unimodular, as :meth:`GroupKit.ad_g_pair` assumes; a step
    keeps it so.  A step's stages each build their own adjoint pair, and
    the records of a trajectory are evaluated together on their stacks by
    :func:`integrate_particle`, so a state holds no derived data.
    """

    u: np.ndarray  # 2x2 group matrix
    p: np.ndarray  # dual-algebra coefficients
    # conjugate dual-group factor, a (side, 2, 2) chiral stack
    a: np.ndarray = field(default_factory=lambda: np.tile(np.eye(2, dtype=complex), (2, 1, 1)))


@dataclass
class ParticleTrajectory:
    times: np.ndarray
    us: np.ndarray  # group elements u, shape (records, 2, 2)
    ps: np.ndarray
    hams: np.ndarray
    charges_g: np.ndarray  # conserved dual-valued charge components
    moments: np.ndarray  # moment-map values I_delta over the double basis
    completed: bool = True  # False if a singularity truncated the run
    failure: str | None = None  # why an incomplete run stopped, with step and t
    max_ad_cond: float = 1.0  # worst chart margin met: the largest cond(Ad_u)


# past this cond(Ad_u), Ad_u and Ad_{u^-1} no longer invert each other
_AD_COND_LIMIT = 1.0 / np.finfo(float).eps
# the |u|_F^2 of a unimodular u past which cond(Ad_u) = cond(u)^2 exceeds
# the limit: f = c + 1/c for cond(u) = c
_F_LIMIT = _AD_COND_LIMIT ** 0.5 + _AD_COND_LIMIT ** -0.5


def _ad_cond(f: float) -> float:
    """cond(Ad_u) = cond(u)^2 of a unimodular u from f = |u|_F^2."""
    cond = float(_unimodular_cond(f))
    return cond * cond


def particle_rhs(
    kit: GroupKit, split: SplittingData, u: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-translated velocities (u^-1 du, dp, da a^-1) of a unimodular u.

    With (a, b) = (Ad_{u^-1}, Ad_u), D = (E_e^-1 - T_e^-1)^-1 and the
    shifts E', T', S' of :class:`~pltdual.duality.ShiftedMaps`,
    x = (E_u^-1 - T_u^-1)^-1 E_u^-1 p is b^T z with
    z = D (E' a^T p + b r1 p), and a^T x = z gives T_u^-1 x.
    da a^-1 = w is formed the same way from (E_u^-1 + T_u^-1) p as b^T w'
    with w' = D (S' a^T p + 2 b r1 p), not as 2 x - p, which cancels in
    the principal limit.  The constant maps F = [D E'; D S'] and
    G = [D; 2 D] give [z; w'] = F a^T p + G b r1 p in two products, and
    the rows of [z; w'] times b give x and w in one.  The products are
    ``ndarray.dot``, which skips the matmul gufunc's dispatch and costs
    about half of ``@`` on these sizes.
    """
    a, b = kit.ad_g_pair(u)
    c = split.shifted_maps
    zw = c.fold_q.dot(p.dot(a)) + c.fold_rp.dot(b.dot(c.r1.dot(p)))
    xw = zw.reshape(2, 3).dot(b)
    udot = a.dot(c.t_shift2.dot(zw[:3])) + c.r1_2.dot(xw[0])
    pdot = bracket_coeffs(split.preset.bialgebra.m.c, xw[1], p)
    return udot, pdot, xw[1]


def particle_rhs_inverse_form(
    kit: GroupKit, split: SplittingData, u: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Velocities via the inverted graph maps E_u, T_u (g -> m).

    u^-1 du/dt = -2 (E_u - T_u)^-1 p; agrees with :func:`particle_rhs`
    wherever E_u and T_u exist, but requires invertible E_u^-1, T_u^-1,
    so the primary right-hand side works with the un-inverted maps.
    """
    e_inv, t_inv = graph_at(kit, split, u, route="invariant-split")
    e, t = graph_inverse(e_inv, "E_u^-1"), graph_inverse(t_inv, "T_u^-1")
    udot = -2.0 * np.linalg.solve(e - t, p)
    w = np.linalg.solve(e_inv - t_inv, (e_inv + t_inv) @ p)
    pdot = bracket_coeffs(split.preset.bialgebra.m.c, w, p)
    return udot, pdot


def particle_rhs_invariant_form(
    kit: GroupKit, split: SplittingData, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decoupled velocities for G-invariant splittings (lam = 0).

    The graph maps are u-independent, so with U = 2 (T_e - E_e)^-1 and
    V = (E_e + T_e) / 2 the system reads u^-1 du/dt = U p,
    dp/dt = [V U p, p]; u drops out entirely.
    """
    if not split.preset.is_g_invariant():
        raise ValueError("the decoupled form needs a G-invariant splitting (lam = 0)")
    e = split.e_matrix
    t = split.t_matrix
    big_u = 2.0 * np.linalg.inv(t - e)
    big_v = 0.5 * (e + t)
    udot = big_u @ p
    pdot = bracket_coeffs(split.preset.bialgebra.m.c, big_v @ udot, p)
    return udot, pdot


def particle_hamiltonian(
    kit: GroupKit, split: SplittingData, u: np.ndarray, p: np.ndarray, pair=None
) -> complex | np.ndarray:
    """H = < x, E_u^-1 p > / 2 = < s, (E_e^-1 - T_e^-1)^-1 s > / 2 with
    s = Ad_u E_u^-1 p = (E_e^-1 - r1) Ad_{u^-1}^T p + Ad_u r1 p.

    u (..., 2, 2) and p (..., 3) may stack records over leading axes, and
    H then has those axes; ``pair`` is (Ad_{u^-1}, Ad_u) of the same
    stack when the caller holds it.
    """
    a, b = kit.ad_g_pair(u) if pair is None else pair
    c = split.shifted_maps
    s = (np.einsum("...ji,...j->...i", a, p) @ c.e_shift.T
         + np.einsum("...ij,...j->...i", b, p @ c.r1.T))
    return 0.5 * np.sum((s @ c.d_inv.T) * s, axis=-1)


def particle_charges(
    kit: GroupKit, split: SplittingData, u: np.ndarray, p: np.ndarray, pair=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q_G, Q_M, I_delta): projections of u p u^-1 and the moment map.

    In the chiral pair Ad_u acts on both factors by the 3x3 Ad_u, so
    u p u^-1 = (r1 Q_G - Ad_u r1 p) (+) Q_G with the coadjoint
    Q_G = Ad_{u^-1}^T p.  u and p may stack records over leading axes, as
    in :func:`particle_hamiltonian`, and ``pair`` is (Ad_{u^-1}, Ad_u) of
    the same stack when the caller holds it.
    """
    a, b = kit.ad_g_pair(u) if pair is None else pair
    r1t = split.shifted_maps.r1.T
    qg = np.einsum("...ji,...j->...i", a, p)
    qm = qg @ r1t - np.einsum("...ij,...j->...i", b, p @ r1t)
    moments = -0.5 * (np.concatenate([qm, qg], axis=-1) @ split.pairing.T)
    return qg, qm, moments


def _rk_mk_step(kit: GroupKit, split: SplittingData, state: ParticleState, dt: float) -> ParticleState:
    stack_map = kit.particle_stack_map
    y0 = np.concatenate([state.u.T[None], state.a])

    def gens(y: np.ndarray, p: np.ndarray):
        # y stacks (u^T, a_L, a_R): u^-1 du = B is the right-invariant
        # d(u^T) (u^T)^-1 = B^T, and da a^-1 = w acts on both chiral factors
        # through the m-columns of the chiral matrix, w -> (r2 w, -r1 w)
        udot, pdot, w = particle_rhs(kit, split, y[0].T, p)
        return stack_map.dot(np.concatenate([udot, w])).reshape(3, 2, 2), pdot

    y1, p1 = rkmk4(gens, y0, state.p, dt)
    return ParticleState(y1[0].T, p1, y1[1:])


def integrate_particle(
    kit: GroupKit,
    split: SplittingData,
    u0: np.ndarray,
    p0: np.ndarray,
    dt: float,
    n_steps: int,
    record_every: int = 1,
) -> ParticleTrajectory:
    """Step (u, p) from a unimodular u0 and record every ``record_every``
    steps and the last; a run that turns non-finite or loses its chart
    margin stops and keeps the records before the failing step.

    Only (t, u, p) is kept while stepping; the energy and the charges of
    all records are computed after the loop, stopped or not, on the
    stacked records with one stacked adjoint pair.
    """
    state = ParticleState(np.asarray(u0, dtype=complex), np.asarray(p0, dtype=complex))
    times, us, ps = [0.0], [state.u], [state.p]
    failure = None
    # cond(Ad_u) grows with f = |u|_F^2, so the worst margin is read from the
    # largest f once, after the loop
    max_f = float(np.vdot(state.u, state.u).real)
    # a blow-up surfaces as a non-finite state, reported below
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            state = _rk_mk_step(kit, split, state, dt)
            fu = float(np.vdot(state.u, state.u).real)
            # finite norms imply finite entries; only when one is not are the
            # entries scanned, so that finite entries whose norm overflows
            # report the lost chart margin, not a non-finite state
            if not (math.isfinite(fu) and math.isfinite(np.vdot(state.p, state.p).real)) and not (
                    np.isfinite(state.u).all() and np.isfinite(state.p).all()):
                failure = f"non-finite state at step {i + 1} (t={(i + 1) * dt:g})"
                break
            max_f = max(max_f, fu)
            if fu > _F_LIMIT:
                failure = (f"chart margin lost at step {i + 1} (t={(i + 1) * dt:g}): "
                           f"cond(Ad_u) = {_ad_cond(fu):.3e} exceeds 1/eps")
                break
            if (i + 1) % record_every == 0 or i == n_steps - 1:
                times.append((i + 1) * dt)
                us.append(state.u)
                ps.append(state.p)
    us, ps = np.array(us), np.array(ps)
    pair = kit.ad_g_pair(us)
    qg, _, moments = particle_charges(kit, split, us, ps, pair)
    return ParticleTrajectory(
        np.array(times),
        us,
        ps,
        particle_hamiltonian(kit, split, us, ps, pair),
        qg,
        moments,
        failure is None,
        failure,
        _ad_cond(max_f),
    )


def point_phase_matrices(preset: ModelPreset, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The point symplectic matrix 2 omega_0 and its closed-form inverse.

    Block coordinates (dp, u^-1 du):  2 omega_0 = [[0, -I], [I, A]] with
    A_ij = <p, [e_i, e_j]>, inverse [[A, I], [-I, 0]].  The block signs
    are calibrated so that 2 omega_0 @ X_H = 2 grad H holds for the flow
    of particle_rhs and 2 omega_0 @ X_delta = 2 grad I_delta for the
    left-translation generators (grad taken in the same coordinates).
    """
    c = preset.bialgebra.g.c
    n = c.shape[0]
    a = np.einsum("ijk,k->ij", c, np.asarray(p, dtype=complex))
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[:n, n:] = -np.eye(n)
    m[n:, :n] = np.eye(n)
    m[n:, n:] = a
    minv = np.zeros((2 * n, 2 * n), dtype=complex)
    minv[:n, :n] = a
    minv[:n, n:] = np.eye(n)
    minv[n:, :n] = -np.eye(n)
    return m, minv


def poisson_matrix(preset: ModelPreset, p: np.ndarray) -> np.ndarray:
    """Poisson tensor of the point phase space: 2 (2 omega_0)^-1.

    Reproduces {xi, eta} = 2 <p, [xi, eta]> on momentum coordinate
    functions and {f, g} = 0 on position functions.
    """
    _, minv = point_phase_matrices(preset, p)
    return 2.0 * minv


def conjugate_description_residual(
    kit: GroupKit,
    split: SplittingData,
    u0: np.ndarray,
    p0: np.ndarray,
    dt: float,
    n_steps: int,
    x_samples=(0.0, 0.35, 0.8),
) -> float:
    """Defect of the reconstructed double flow k = u exp(p x) a.

    The triple (u, p, a) is integrated, the composite k is formed at a few
    x stations, and the loop-flow equation
    dk/dt k^-1 = (pi_- - pi_+)(k_x k^-1) with k_x k^-1 = u p u^-1 is
    tested with a five-point time stencil.  Both the stencil truncation
    and the integrator error are fourth order, so the residual decreases
    at order 4 (any structural sign error would leave an O(1) defect).
    """
    n = kit.b.g.dim
    state = ParticleState(np.asarray(u0, complex), np.asarray(p0, complex))
    composites: list[list[np.ndarray]] = [[] for _ in x_samples]
    gens: list[np.ndarray] = []
    pid = split.pi_minus - split.pi_plus
    for step in range(n_steps + 1):
        for i, x in enumerate(x_samples):
            composites[i].append(_compose_k(kit, state, x))
        w = np.zeros(2 * n, dtype=complex)
        w[n:] = state.p
        gen = pid @ (kit.ad_d(state.u[None]) @ w)
        gens.append(kit.chiral_mats(gen))
        if step < n_steps:
            state = _rk_mk_step(kit, split, state, dt)
    worst = 0.0
    for i in range(len(x_samples)):
        ks = composites[i]
        for j in range(2, n_steps - 1):
            deriv = (ks[j - 2] - 8 * ks[j - 1] + 8 * ks[j + 1] - ks[j + 2]) / (12 * dt)
            res = deriv @ _vadj(ks[j]) - gens[j]
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


def _compose_k(kit: GroupKit, state: ParticleState, x: float) -> np.ndarray:
    return state.u @ kit.exp_m(x * state.p) @ state.a


# ---- closed-form solutions (regression oracles) ---------------------------------


def riccati_h(t: float, h0: complex, omega: complex) -> complex:
    """Solution of dh/dt = omega^2 / 2 - 2 h^2 with h(0) = h0.

    h(t) = (omega/2) (sinh wt + (2 h0/omega) cosh wt)
                   / (cosh wt + (2 h0/omega) sinh wt);
    imaginary omega (negative discriminant) turns the hyperbolic
    functions trigonometric automatically through complex arithmetic.
    """
    w = complex(omega)
    c, s = np.cosh(w * t), np.sinh(w * t)
    r = 2.0 * complex(h0) / w
    return 0.5 * w * (s + r * c) / (c + r * s)


def pure_qt_reduced_solution(
    t: float, h0: complex, x0: complex, y0: complex
) -> tuple[complex, complex, complex]:
    """Reduced sl2r flow dh = 2xy, dx = -2hx, dy = -2hy in closed form.

    The combination h^2 + xy is conserved and fixes omega^2 = 4(h0^2 +
    x0 y0); x and y share the integrating factor exp(-2 int h).
    """
    w = np.sqrt(complex(4.0 * (h0 * h0 + x0 * y0)))
    if abs(w) < 1e-14:
        # omega = 0 degenerate branch: dh = 2 x y = -2 h^2
        h = h0 / (1.0 + 2.0 * h0 * t)
        damp = 1.0 / (1.0 + 2.0 * h0 * t)
        return h, x0 * damp, y0 * damp
    c, s = np.cosh(w * t), np.sinh(w * t)
    r = 2.0 * complex(h0) / w
    h = 0.5 * w * (s + r * c) / (c + r * s)
    damp = 1.0 / (c + r * s)  # exp(-2 int_0^t h)
    return h, x0 * damp, y0 * damp


def pure_qt_solution(
    kit: GroupKit, u0: np.ndarray, omega: complex, x0: complex, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic sl2r pure-quasitriangular particle solution.

    u(t) = u(0) exp(-(omega t / 2) H) and, in the dual basis
    (phi, psi_-, psi_+) dual to (H, X+, X-),
    p(t) = 2 omega phi + exp(-omega t) x0 psi_- + exp(omega t) conj(x0) psi_+.
    """
    u = np.asarray(u0, dtype=complex) @ expm2(-0.5 * omega * t * kit.mat(np.array([1.0, 0, 0])))
    p = np.array(
        [2.0 * omega, np.exp(-omega * t) * x0, np.exp(omega * t) * np.conj(x0)],
        dtype=complex,
    )
    return u, p


def principal_limit_solution(
    kit: GroupKit, split: SplittingData, u0: np.ndarray, p: np.ndarray, t: float
) -> np.ndarray:
    """Large-mu limit: u(t) = u(0) exp(-t K^-1 pbar) with constant momentum.

    In the rescaled limiting preset the stored momentum coordinate is
    already the renormalized pbar, and K^-1 of the unrescaled bialgebra
    is mu times the preset's kinv matrix.
    """
    kinv_orig = split.preset.mu * split.preset.bialgebra.kinv_matrix
    return np.asarray(u0, dtype=complex) @ expm2(-t * kit.mat(kinv_orig @ np.asarray(p)))
