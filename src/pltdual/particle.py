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
with no linear solve.  The pair is linear in the products of the entries
of u and u^-1 = adj(u), a signed permutation of u, so every matrix of the
right-hand side is linear in the 16 products u_ab u_cd: a stage reads
them from one constant map (:attr:`SplittingData.particle_stage`) and
builds no adjoint pair, in one multiply and seven products; at these
sizes a numpy call costs about the same whatever its operands, so the
count of calls is the cost.  A trajectory keeps only (t, u, p) per
record while it steps, and the energy and the charges of all its records
are computed afterwards in one pass on the stacked records, with one
stacked adjoint pair.

The conjugate factor a(t) in k = u exp(p x) a evolves in the dual group by
da/dt a^-1 = w = (E_u^-1 - T_u^-1)^-1 (E_u^-1 + T_u^-1) p.  Only the check
that this reduction reproduces the loop-field flow,
:func:`conjugate_description_residual`, reads a: it steps its own stack
(u^T, a_L, a_R), with the chiral matrices of 0 (+) w as a's generator.

Integration is the fourth-order commutator-free step CF4 of Celledoni,
Marthinsen and Owren (:func:`pltdual.groups.cf4_step`) that also advances
the loop field: it steps u^T, whose right-translated velocity is the
transpose of u^-1 du/dt, with p as the additive variable, so u stays on
its group to machine precision.  The run stops once cond(Ad_u) =
cond(u)^2 passes 1/eps, where Ad_u and Ad_{u^-1} no longer invert each
other in double precision.  Since u is unimodular, cond(u) grows with |u|_F^2
alone: the check after each step takes the squared norms of u and p,
compares that of u with the norm at which cond(Ad_u) reaches 1/eps, and
scans the entries for non-finite values only when a norm is not finite.
The worst margin is reported from the entries of the u of largest norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import SplittingData
from .groups import GroupKit, _unimodular_cond, _vadj, cf4_step, expm2
from .models import ModelPreset

__all__ = [
    "ParticleTrajectory",
    "particle_rhs",
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
    steps: int = 0  # steps completed; a stopped run does not count the step that failed


# past this cond(Ad_u), Ad_u and Ad_{u^-1} no longer invert each other
_AD_COND_LIMIT = 1.0 / np.finfo(float).eps
# the |u|_F^2 of a unimodular u past which cond(Ad_u) = cond(u)^2 exceeds
# the limit: f = c + 1/c for cond(u) = c
_F_LIMIT = _AD_COND_LIMIT ** 0.5 + _AD_COND_LIMIT ** -0.5


def _ad_cond(u: np.ndarray) -> float:
    """cond(Ad_u) = cond(u)^2 of a unimodular u."""
    cond = float(_unimodular_cond(u))
    return cond * cond


# the flat indices of u_ab and u_cd in the product u_ab u_cd at 4 (2a + b) + 2c + d
_LEFT, _RIGHT = np.divmod(np.arange(16), 4)


def particle_rhs(
    kit: GroupKit, split: SplittingData, u: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-translated velocities (u^-1 du, dp, da a^-1) of a unimodular u.

    With (a, b) = (Ad_{u^-1}, Ad_u), D = (E_e^-1 - T_e^-1)^-1, the shifts
    E', T' of :class:`~pltdual.duality.ShiftedMaps` and S' = E' + T',
    x = (E_u^-1 - T_u^-1)^-1 E_u^-1 p is b^T z with
    z = D (E' a^T p + b r1 p), and a^T x = z gives
    u^-1 du = 2 T_u^-1 x = (2 a T' + 2 r1 b^T) z.
    da a^-1 = w is formed the same way from (E_u^-1 + T_u^-1) p as b^T w'
    with w' = D (S' a^T p + 2 b r1 p), not as 2 x - p, which cancels in
    the principal limit.  So [z; w'] = [F | G] A p with the constant
    F = [D E'; D S'] and G = [D; 2 D] and A = [a^T; b r1], and the
    velocities are U z and B w' with U = 2 a T' + 2 r1 b^T and B = b^T.
    adj(u) is a signed permutation of u, so A, U and B are linear in the
    16 products u_ab u_cd: one gathered multiply and one product with
    the constant 16x36 map of :attr:`SplittingData.particle_stage` give
    all three, with no adjoint pair.  The bracket [w, p]_m is w times the
    structure constants of m contracted with p.  The products are
    ``ndarray.dot``, which skips the matmul gufunc's dispatch and costs
    about half of ``@`` on these sizes.
    """
    stage = split.particle_stage
    entries = u.ravel()
    blocks = (entries[_LEFT] * entries[_RIGHT]).dot(stage.blocks).reshape(12, 3)
    zw = stage.fold.dot(blocks[:6].dot(p))
    w = blocks[9:].dot(zw[3:])
    return blocks[6:9].dot(zw[:3]), w.dot(stage.bracket.dot(p).reshape(3, 3)), w


def particle_hamiltonian(
    kit: GroupKit, split: SplittingData, u: np.ndarray, p: np.ndarray, pair=None
) -> complex | np.ndarray:
    """H = < x, E_u^-1 p > / 2 = < s, (E_e^-1 - T_e^-1)^-1 s > / 2 with
    s = Ad_u E_u^-1 p = (E_e^-1 - r1) Ad_{u^-1}^T p + Ad_u r1 p.

    u (..., 2, 2) and p (..., 3) may stack records over leading axes, and
    H then has those axes; ``pair`` is (Ad_{u^-1}, Ad_u) of the same
    stack when the caller holds it.
    """
    a, b = kit.ad_g(u) if pair is None else pair
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
    a, b = kit.ad_g(u) if pair is None else pair
    r1t = split.shifted_maps.r1.T
    qg = np.einsum("...ji,...j->...i", a, p)
    qm = qg @ r1t - np.einsum("...ij,...j->...i", b, p @ r1t)
    moments = -0.5 * (np.concatenate([qm, qg], axis=-1) @ split.pairing.T)
    return qg, qm, moments


def _rk_mk_step(kit: GroupKit, split: SplittingData, u: np.ndarray, p: np.ndarray, dt: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """One CF4 step of (u, p), stepping u^T: u^-1 du = B is the
    right-invariant d(u^T) (u^T)^-1 = B^T."""
    stack_map = kit.particle_stack_map

    def gens(y: np.ndarray, p: np.ndarray):
        udot, pdot, _ = particle_rhs(kit, split, y.T, p)
        return stack_map.dot(udot).reshape(2, 2), pdot

    y1, p1 = cf4_step(gens, u.T, p, dt)
    return y1.T, p1


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
    u, p = np.asarray(u0, dtype=complex), np.asarray(p0, dtype=complex)
    times, us, ps = [0.0], [u], [p]
    failure = None
    # cond(Ad_u) grows with f = |u|_F^2, so the worst margin is read once,
    # after the loop, from the u of largest f
    max_f, worst_u = float(np.vdot(u, u).real), u
    # a blow-up surfaces as a non-finite state, reported below
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            u, p = _rk_mk_step(kit, split, u, p, dt)
            fu = float(np.vdot(u, u).real)
            # finite norms imply finite entries; only when one is not are the
            # entries scanned, so that finite entries whose norm overflows
            # report the lost chart margin, not a non-finite state
            if not (math.isfinite(fu) and math.isfinite(np.vdot(p, p).real)) and not (
                    np.isfinite(u).all() and np.isfinite(p).all()):
                failure = f"non-finite state at step {i + 1} (t={(i + 1) * dt:g})"
                break
            if fu > max_f:
                max_f, worst_u = fu, u
            if fu > _F_LIMIT:
                failure = (f"chart margin lost at step {i + 1} (t={(i + 1) * dt:g}): "
                           f"cond(Ad_u) = {_ad_cond(u):.3e} exceeds 1/eps")
                break
            if (i + 1) % record_every == 0 or i == n_steps - 1:
                times.append((i + 1) * dt)
                us.append(u)
                ps.append(p)
    steps = n_steps if failure is None else i
    us, ps = np.array(us), np.array(ps)
    pair = kit.ad_g(us)
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
        _ad_cond(worst_u),
        steps,
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
    stack_map = kit.particle_stack_map
    zero = np.zeros(n, dtype=complex)

    def gens(y: np.ndarray, p: np.ndarray):
        # y stacks u^T and the chiral factors (a_L, a_R); da a^-1 = w acts on
        # both through the chiral matrices of 0 (+) w
        udot, pdot, w = particle_rhs(kit, split, y[0].T, p)
        return np.concatenate([stack_map.dot(udot).reshape(1, 2, 2),
                               kit.chiral_mats(np.concatenate([zero, w]))]), pdot

    y = np.concatenate([np.asarray(u0, complex).T[None], np.tile(np.eye(2), (2, 1, 1))])
    p = np.asarray(p0, complex)
    composites: list[list[np.ndarray]] = [[] for _ in x_samples]
    flows: list[np.ndarray] = []
    pid = -split.pi_diff
    for step in range(n_steps + 1):
        u = y[0].T
        for i, x in enumerate(x_samples):
            composites[i].append(u @ kit.exp_m(x * p) @ y[1:])
        flows.append(kit.chiral_mats(pid @ (kit.ad_d(u[None])[1] @ np.concatenate([zero, p]))))
        if step < n_steps:
            y, p = cf4_step(gens, y, p, dt)
    worst = 0.0
    for i in range(len(x_samples)):
        ks = composites[i]
        for j in range(2, n_steps - 1):
            deriv = (ks[j - 2] - 8 * ks[j - 1] + 8 * ks[j + 1] - ks[j + 2]) / (12 * dt)
            res = deriv @ _vadj(ks[j]) - flows[j]
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


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
