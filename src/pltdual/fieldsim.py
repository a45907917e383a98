"""Method-of-lines integrator for the first-order loop flow on the double.

The loop field k(x) takes values in the double group, stored as the
node-first chiral stack (nodes, side, 2, 2) of :mod:`pltdual.groups`, on
the grid x_j = j pi / N.  The flow is

    dk/dt k^-1 = (pi_- - pi_+)(k_x k^-1),

with the constant splitting projectors of the chosen preset; spatial
derivatives are fourth-order finite differences (one-sided at the ends
of a double-Neumann run, wrapped for a periodic run) and the time step
is the fourth-order Runge-Kutta-Munthe-Kaas update :func:`pltdual.groups.rkmk4`
on that stack, so every grid element stays on the group up to a
determinant renormalization per step.  Each stage takes one derivative,
one adjugate and one broadcast product (:func:`pltdual.groups._vmul`) of
that stack for k_x k^-1, and maps its eight chiral entries to those of
dk/dt k^-1 by one constant 8x8 matrix built once per splitting (and
group kit) and held by the splitting.

Diagnostics cover the conserved Hamiltonian 4 H = <(pi_+ - pi_-) w, w>
with w = k_x k^-1, the moment map I_delta = -1/2 int <w, delta> dx, the
loop functions f_v and f_d, the two-factorization duality gap, discrete
residuals of the second-order field equations in both the group and the
dual-group description, and the loop-space symplectic form with its
boundary term (gauge-fixed by s(0) = e).

Like the time step, the diagnostics are array expressions over the node
axis: the factorizations, adjoint actions and graph slices come stacked
from :mod:`pltdual.groups` and :mod:`pltdual.duality`, and every chart
check is elementwise, naming the first node that fails.  A state computes
the quantities they share (its tangent field, both factorizations with
the inverse first factor and its double adjoint action) once, on first
use, so a recorded state is factorized once in each order even when it
also serves as the earlier time level of the next residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .duality import GraphBlowupError, SplittingData, graph_inverse, graph_slices
from .groups import FactorizationError, GroupKit, _vadj, _vmul, rkmk4
from .liecore import bracket_coeffs

__all__ = [
    "LoopState",
    "FieldTrajectory",
    "init_pointlike",
    "random_smooth_loop",
    "centered_bump_loop",
    "step",
    "integrate_field",
    "hamiltonian_density",
    "total_hamiltonian",
    "moment_map_basis",
    "loop_functions",
    "duality_check",
    "eom_residuals",
    "dressing_relation_residual",
    "symplectic_form",
    "grid_points",
]

BOUNDARIES = ("double-neumann", "periodic")
# the CFL bound on the time step, in units of dx
CFL = 0.5


# ---- loop state ---------------------------------------------------------------


@dataclass
class LoopState:
    """A loop in the double group sampled on the spatial grid.

    ``k`` must be unimodular at every node (det k = 1 on both sides): the
    loop tangent k_x k^-1 takes k^-1 as the adjugate, with no division by
    det k.  :func:`step` renormalizes the determinant of each new state.

    :attr:`tangent`, :attr:`gm_factors` and :attr:`mg_factors` are
    computed from ``k`` on first use and kept, so ``k`` must not be
    mutated once any of them has been read.
    """

    kit: GroupKit
    split: SplittingData
    k: np.ndarray  # (nodes, side, 2, 2) chiral stack
    boundary: str = "double-neumann"
    time: float = 0.0

    def __post_init__(self):
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary condition '{self.boundary}'")
        self.k = np.asarray(self.k, dtype=complex)

    @property
    def kl(self) -> np.ndarray:
        """The left chiral matrices, a view of ``k``."""
        return self.k[:, 0]

    @property
    def kr(self) -> np.ndarray:
        """The right chiral matrices, a view of ``k``."""
        return self.k[:, 1]

    @property
    def n_nodes(self) -> int:
        return self.k.shape[0]

    @property
    def n_cells(self) -> int:
        return self.n_nodes - 1 if self.boundary == "double-neumann" else self.n_nodes

    @property
    def dx(self) -> float:
        return np.pi / self.n_cells

    def copy(self) -> "LoopState":
        return LoopState(self.kit, self.split, self.k.copy(), self.boundary, self.time)

    @cached_property
    def tangent(self) -> np.ndarray:
        """w = k_x k^-1 as (nodes, 2n) double-algebra coefficients."""
        return _tangent_field(self)

    @cached_property
    def gm_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(u, s, u^-1, Ad_{u^-1}) at every node, for k = u s."""
        u, s = self.kit.factorize_gm(self.k)
        uinv = _vadj(u)
        return u, s, uinv, self.kit.ad_d(uinv[:, None])

    @cached_property
    def mg_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(t, v, t^-1, Ad_{t^-1}) at every node, for k = t v."""
        t, v = self.kit.factorize_mg(self.k)
        tinv = _vadj(t)
        return t, v, tinv, self.kit.ad_d(tinv)


@dataclass
class FieldTrajectory:
    times: np.ndarray
    hamiltonians: np.ndarray
    moments: np.ndarray
    f_d: np.ndarray
    duality_gaps: np.ndarray
    eom_residuals_g: np.ndarray
    eom_residuals_dual: np.ndarray
    final_state: LoopState | None = None  # the state of the last recorded row
    completed: bool = True
    failure: str | None = None  # the error that stopped an incomplete run
    warnings: list = field(default_factory=list)  # e.g. a time step past the CFL bound


def grid_points(n_cells: int, boundary: str = "double-neumann") -> np.ndarray:
    dx = np.pi / n_cells
    n_nodes = n_cells + 1 if boundary == "double-neumann" else n_cells
    return dx * np.arange(n_nodes)


# ---- initializers --------------------------------------------------------------


def init_pointlike(
    kit: GroupKit,
    split: SplittingData,
    u0: np.ndarray,
    p: np.ndarray,
    n_cells: int,
    boundary: str = "double-neumann",
) -> LoopState:
    """Pointlike data k(x) = u0 exp(p x): x-independent u, s_x s^-1 = p.

    ``u0`` must be unimodular (det u0 = 1), as :class:`LoopState` requires;
    ``GroupKit.exp_g`` gives such a point.
    """
    xs = grid_points(n_cells, boundary)
    s = kit.exp_m(xs[:, None] * np.asarray(p))
    return LoopState(kit, split, np.asarray(u0, dtype=complex) @ s, boundary)


def _loop_from_coeffs(
    kit: GroupKit, split: SplittingData, w: np.ndarray, boundary: str
) -> LoopState:
    """The loop exp(w(x)) from real (nodes, 2n) double-algebra coefficients,
    with the m-part taken in the dual real form for su2."""
    n = kit.b.g.dim
    wc = w.astype(complex)
    if kit.flavor == "su2":
        wc[:, n:] = -1j * w[:, n:]
    return LoopState(kit, split, kit.exp_d(wc), boundary)


# highest cosine mode of a random smooth loop
_N_MODES = 2
# half-width of the support of a centred bump loop
_BUMP_RADIUS = 0.45


def random_smooth_loop(
    kit: GroupKit,
    split: SplittingData,
    n_cells: int,
    boundary: str = "double-neumann",
    seed: int = 0,
    amplitude: float = 0.3,
) -> LoopState:
    """Smooth random loop from the cosine modes 0 to ``_N_MODES``.

    The double-algebra coefficients are real combinations of cos(m x)
    for the double-Neumann run (k_x vanishes at both ends) and of
    cos(2 m x) for the periodic run (period pi, matching the grid).
    """
    rng = np.random.default_rng(seed)
    xs = grid_points(n_cells, boundary)
    n = kit.b.g.dim
    mode_step = 2 if boundary == "periodic" else 1
    coeffs = rng.normal(size=(_N_MODES + 1, 2 * n)) * amplitude / (_N_MODES + 1)
    w = np.zeros((len(xs), 2 * n))
    for m in range(_N_MODES + 1):
        w = w + np.cos(mode_step * m * xs)[:, None] * coeffs[m]
    return _loop_from_coeffs(kit, split, w, boundary)


def centered_bump_loop(
    kit: GroupKit,
    split: SplittingData,
    n_cells: int,
    boundary: str = "double-neumann",
    seed: int = 0,
    amplitude: float = 0.3,
) -> LoopState:
    """Smooth loop concentrated around x = pi/2 with compact support.

    The double-algebra coefficients carry the C-infinity bump envelope
    exp(1 - 1/(1 - y^2)) with y = (x - pi/2)/r and r = ``_BUMP_RADIUS``,
    so k_x vanishes identically within a distance pi/2 - r of both ends.
    The disturbance (propagating at unit speed) cannot reach either
    boundary before t = pi/2 - r - epsilon, which makes this the
    reference data for energy-conservation runs under the double-Neumann
    condition.
    """
    rng = np.random.default_rng(seed)
    xs = grid_points(n_cells, boundary)
    n = kit.b.g.dim
    coeffs = rng.normal(size=(2, 2 * n)) * amplitude
    y = (xs - np.pi / 2) / _BUMP_RADIUS
    inside = np.abs(y) < 1.0
    env = np.zeros_like(xs)
    env[inside] = np.exp(1.0 - 1.0 / (1.0 - y[inside] * y[inside]))
    w = env[:, None] * (coeffs[0] + np.sin(np.pi * y)[:, None] * coeffs[1])
    return _loop_from_coeffs(kit, split, w, boundary)


# ---- spatial derivative ---------------------------------------------------------


_EDGE_STENCIL = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_NEAR_STENCIL = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _wrapped(f: np.ndarray, width: int) -> np.ndarray:
    """``f`` with ``width`` nodes of its periodic continuation on either
    side (as ``np.pad(..., mode="wrap")``), for any node count."""
    return np.take(f, np.arange(-width, f.shape[0] + width), axis=0, mode="wrap")


def _x_derivative(f: np.ndarray, dx: float, boundary: str, order: int = 4) -> np.ndarray:
    """Spatial derivative of samples stacked node first (centred, wrapped
    for periodic runs, one-sided at Neumann ends).

    The integrator uses the fourth-order stencils; the field-equation
    residual diagnostics use order 2 so their leading error is the known
    O(dx^2) stencil truncation.
    """
    if order == 2:
        if boundary == "periodic":
            p = _wrapped(f, 1)
            return (p[2:] - p[:-2]) / (2 * dx)
        out = np.empty_like(f)
        out[1:-1] = (f[2:] - f[:-2]) / (2 * dx)
        out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * dx)
        out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * dx)
        return out
    if boundary == "periodic":
        p = _wrapped(f, 2)
        return (-p[4:] + 8 * p[3:-1] - 8 * p[1:-3] + p[:-4]) / (12 * dx)
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * dx)
    out[0] = np.einsum("s,s...->...", _EDGE_STENCIL, f[:5]) / dx
    out[1] = np.einsum("s,s...->...", _NEAR_STENCIL, f[:5]) / dx
    out[-1] = -np.einsum("s,s...->...", _EDGE_STENCIL, f[-5:][::-1]) / dx
    out[-2] = -np.einsum("s,s...->...", _NEAR_STENCIL, f[-5:][::-1]) / dx
    return out


def _right_tangent(k: np.ndarray, dx: float, boundary: str) -> np.ndarray:
    """k_x k^-1 at every node of a node-first stack of unimodular 2x2
    matrices.

    k^-1 is taken as the adjugate, with no division by det k, so ``k``
    must be unimodular: every caller passes RKMK stage points (exponentials
    times a normalized state), recorded states or the M factor of one.
    """
    return _vmul(_x_derivative(k, dx, boundary), _vadj(k))


def _tangent_field(state: LoopState) -> np.ndarray:
    """w = k_x k^-1 as (nodes, 2n) double-algebra coefficients, from one
    derivative of the chiral stack (read it as :attr:`LoopState.tangent`)."""
    return state.kit.tangent_coeffs(_right_tangent(state.k, state.dx, state.boundary))


def _flow_velocity(state: LoopState) -> np.ndarray:
    """dk/dt k^-1 = (pi_- - pi_+)(k_x k^-1) as (nodes, 2n) coefficients."""
    return state.tangent @ (state.split.pi_minus - state.split.pi_plus).T


def _generator_map(kit: GroupKit, split: SplittingData) -> np.ndarray:
    """8x8 map of the chiral entries of k_x k^-1 to those of
    dk/dt k^-1 = (pi_- - pi_+)(k_x k^-1), both flattened over (side, row,
    column): :meth:`GroupKit.tangent_coeffs`, the projector difference and
    :meth:`GroupKit.chiral_mats` composed on the unit entries.  The (1, 1)
    entries, which a traceless input fixes, get zero rows.  :func:`step`
    builds it once per (kit, splitting) pair and keeps it in
    :attr:`SplittingData.generator_maps`."""
    units = np.eye(8).reshape(8, 2, 2, 2)
    w = kit.tangent_coeffs(units) @ (split.pi_minus - split.pi_plus).T
    return kit.chiral_mats(w).reshape(8, 8)


# ---- time stepping -------------------------------------------------------------


def step(state: LoopState, dt: float) -> LoopState:
    """One fourth-order Runge-Kutta-Munthe-Kaas step of the loop flow, on
    the chiral stack of the loop."""
    dx, boundary = state.dx, state.boundary
    maps = state.split.generator_maps
    gen_map = maps.get(state.kit)
    if gen_map is None:
        gen_map = maps[state.kit] = _generator_map(state.kit, state.split)

    def gens(k: np.ndarray, _):
        w = _right_tangent(k, dx, boundary)
        return (w.reshape(-1, 8) @ gen_map).reshape(k.shape), 0.0

    k1, _ = rkmk4(gens, state.k, 0.0, dt)
    return LoopState(state.kit, state.split, k1, boundary, state.time + dt)


# ---- diagnostics ----------------------------------------------------------------


def _quadrature(values: np.ndarray, dx: float, boundary: str) -> complex:
    """Composite Simpson for the Neumann grid (trapezoid on an odd cell
    count), Riemann sum for periodic."""
    if boundary == "periodic":
        return complex(values.sum() * dx)
    n = len(values) - 1
    w = np.ones(n + 1)
    if n % 2:
        w[[0, -1]] = 0.5
        return complex((w * values).sum() * dx)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((w * values).sum() * dx / 3.0)


def hamiltonian_density(state: LoopState) -> np.ndarray:
    """Nodewise 1/4 <(pi_+ - pi_-) w, w> with w = k_x k^-1."""
    w = state.tangent
    pw = w @ (state.split.pi_diff.T @ state.split.pairing.T)
    return 0.25 * np.einsum("ni,ni->n", pw, w)


def total_hamiltonian(state: LoopState) -> complex:
    return _quadrature(hamiltonian_density(state), state.dx, state.boundary)


def moment_map_basis(state: LoopState) -> np.ndarray:
    """I_delta = -1/2 int <k_x k^-1, delta> dx for every double basis
    vector delta at once."""
    w = state.tangent
    vals = -0.5 * (w @ state.split.pairing)
    return np.array(
        [_quadrature(vals[:, i], state.dx, state.boundary) for i in range(vals.shape[1])]
    )


def loop_functions(state: LoopState, v: np.ndarray | None = None) -> tuple[complex, complex]:
    """(f_v, f_d): f_v = -1/2 int <w, v> dx and f_d = -1/4 int <w, w> dx.

    ``v`` is a (nodes, 2n) coefficient field; it must vanish at the ends
    of a double-Neumann run.
    """
    w = state.tangent
    p = state.split.pairing
    if v is None:
        f_v = 0.0 + 0.0j
    else:
        v = np.asarray(v, dtype=complex)
        if state.boundary == "double-neumann" and (
            np.abs(v[0]).max() > 1e-12 or np.abs(v[-1]).max() > 1e-12
        ):
            raise ValueError("loop direction v must vanish at the endpoints")
        f_v = _quadrature(-0.5 * np.einsum("ni,ij,nj->n", w, p, v), state.dx, state.boundary)
    f_d = _quadrature(-0.25 * np.einsum("ni,ij,nj->n", w, p, w), state.dx, state.boundary)
    return f_v, f_d


# ---- factorizations and duality --------------------------------------------------


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (m @ v[..., None])[..., 0]


def _transported_density(split: SplittingData, ad: np.ndarray, ad_inv: np.ndarray,
                         w: np.ndarray) -> np.ndarray:
    """Nodewise Hamiltonian density in the description reached by ad_inv:
    1/4 <(ad_inv (pi_+ - pi_-) ad) ad_inv w, ad_inv w>."""
    wt = _matvec(ad_inv, w)
    pd = ad_inv @ split.pi_diff @ ad
    return 0.25 * np.sum(wt * _matvec(np.swapaxes(pd, -1, -2), wt @ split.pairing), axis=-1)


def duality_check(state: LoopState) -> float:
    """Max gap between the (u, s) and (t, v) Hamiltonian densities plus
    the reconstruction defects of both factorizations."""
    kit, k = state.kit, state.k
    w = state.tangent
    u, s, _, ad_uinv = state.gm_factors
    t, v, _, ad_tinv = state.mg_factors
    u, v = u[:, None], v[:, None]
    # the reconstruction defects, summed over both sides
    recon_gm = np.linalg.norm(_vmul(u, s) - k, axis=(-2, -1)).sum(axis=-1)
    recon_mg = np.linalg.norm(_vmul(t, v) - k, axis=(-2, -1)).sum(axis=-1)
    # primal description: transport by Ad_{u^-1}
    hu = _transported_density(state.split, kit.ad_d(u), ad_uinv, w)
    # dual description: transport by Ad_{t^-1}
    ht = _transported_density(state.split, kit.ad_d(t), ad_tinv, w)
    return float(np.abs(hu - ht).max() + max(recon_gm.max(), recon_mg.max()))


# ---- field-equation residuals ------------------------------------------------


def _primal_lightcone_fields(state: LoopState) -> tuple[np.ndarray, np.ndarray]:
    """(E_u(u^-1 u_-), T_u(u^-1 u_+)) at every node, for k = u s.

    The time derivative comes exactly from the loop flow: decomposing
    Ad_{u^-1}(dk/dt k^-1) = u^-1 du/dt (+) ds/dt s^-1 for k = u s, so no
    time levels are consumed; the spatial part is the 2nd-order stencil.
    """
    kit = state.kit
    n = kit.b.g.dim
    u, _, uinv, ad = state.gm_factors
    xi_x = kit.coeffs(_vmul(uinv, _x_derivative(u, state.dx, state.boundary, order=2)))
    xi_t = _matvec(ad, _flow_velocity(state))[..., :n]
    e_inv, t_inv = graph_slices(state.split, ad)
    e, t = graph_inverse(e_inv, "E_u^-1"), graph_inverse(t_inv, "T_u^-1")
    return _matvec(e, 0.5 * (xi_t - xi_x)), _matvec(t, 0.5 * (xi_t + xi_x))


def _dual_lightcone_fields(state: LoopState) -> tuple[np.ndarray, np.ndarray]:
    """(Ehat_t phi_-, That_t phi_+) at every node, for k = t v, with
    Ehat_t and That_t the transported slices over m at Ad_{t^-1}."""
    kit = state.kit
    n = kit.b.g.dim
    t, _, tinv, ad = state.mg_factors
    phi_x = kit.tangent_coeffs(
        _vmul(tinv, _x_derivative(t, state.dx, state.boundary, order=2)))[..., n:]
    phi_t = _matvec(ad, _flow_velocity(state))[..., n:]
    e_hat, t_hat = graph_slices(state.split, ad)
    return _matvec(e_hat, 0.5 * (phi_t - phi_x)), _matvec(t_hat, 0.5 * (phi_t + phi_x))


def eom_residuals(state0: LoopState, state1: LoopState) -> tuple[float, float]:
    """Discrete residuals of the second-order field equations.

    Uses two consecutive time levels; the lightcone fields at each level
    are spatial-only evaluations (the factor time derivatives come
    exactly from the first-order flow), and the outer lightcone
    derivative is a midpoint stencil, so the residual decreases at
    second order in (dx, dt) for exact flows.  The primal equation reads

        (T_u(u^-1 u_+))_- - (E_u(u^-1 u_-))_+ = [E_u(u^-1 u_-), T_u(u^-1 u_+)]

    in m, and the dual equation is the same shape on the dual group in g.
    """
    split = state0.split
    dt = state1.time - state0.time
    dx = state0.dx
    bd = state0.boundary
    interior = slice(2, -2) if bd == "double-neumann" else slice(None)

    def residual(fields0, fields1, c_rhs):
        (a0, b0), (a1, b1) = fields0, fields1
        a_mid, b_mid = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
        da_t, db_t = (a1 - a0) / dt, (b1 - b0) / dt
        da_x = 0.5 * (_x_derivative(a0, dx, bd, order=2) + _x_derivative(a1, dx, bd, order=2))
        db_x = 0.5 * (_x_derivative(b0, dx, bd, order=2) + _x_derivative(b1, dx, bd, order=2))
        lhs = 0.5 * (db_t - db_x) - 0.5 * (da_t + da_x)
        rhs = bracket_coeffs(c_rhs, a_mid, b_mid)
        return float(np.abs((lhs - rhs)[interior]).max())

    res_g = residual(
        _primal_lightcone_fields(state0),
        _primal_lightcone_fields(state1),
        split.preset.bialgebra.m.c,
    )
    res_t = residual(
        _dual_lightcone_fields(state0),
        _dual_lightcone_fields(state1),
        split.preset.bialgebra.g.c,
    )
    return res_g, res_t


def dressing_relation_residual(state: LoopState) -> float:
    """Defect of the factor relations tying s to the graph images of u.

    For k = u s on a flow trajectory the dual factor obeys
    s_+ s^-1 = T_u(u^-1 u_+) and s_- s^-1 = E_u(u^-1 u_-); both sides
    are evaluated from the same time level (factor time derivatives
    taken exactly from the flow), so the defect is a pure
    spatial-discretization error.
    """
    kit = state.kit
    n = kit.b.g.dim
    dx, bd = state.dx, state.boundary
    u, s, uinv, ad = state.gm_factors
    dec = _matvec(ad, _flow_velocity(state))
    xi_t = dec[..., :n]
    s_t = dec[..., n:]  # ds/dt s^-1 in m-coefficients
    xi_x = kit.coeffs(_vmul(uinv, _x_derivative(u, dx, bd)))
    s_x = kit.tangent_coeffs(_right_tangent(s, dx, bd))[..., n:]
    e_inv, t_inv = graph_slices(state.split, ad)
    e, t = graph_inverse(e_inv, "E_u^-1"), graph_inverse(t_inv, "T_u^-1")
    lhs_p = 0.5 * (s_t + s_x) - _matvec(t, 0.5 * (xi_t + xi_x))
    lhs_m = 0.5 * (s_t - s_x) - _matvec(e, 0.5 * (xi_t - xi_x))
    return float(max(np.abs(lhs_p).max(), np.abs(lhs_m).max()))


# ---- symplectic form ------------------------------------------------------------


def _sbp_operator(n_nodes: int, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal-norm summation-by-parts pair (D, h) of interior order 4.

    h_i (D f)_i g_i + f_i h_i (D g)_i sums to f g | ends exactly, which
    makes the discrete symplectic form antisymmetric and degenerate on
    right m-translations to machine precision rather than to O(dx^4).
    """
    d = np.zeros((n_nodes, n_nodes))
    for j, cf in ((-2, 1 / 12), (-1, -2 / 3), (1, 2 / 3), (2, -1 / 12)):
        idx = np.arange(4, n_nodes - 4)
        d[idx, idx + j] = cf
    top = np.array(
        [
            [-24 / 17, 59 / 34, -4 / 17, -3 / 34, 0, 0],
            [-1 / 2, 0, 1 / 2, 0, 0, 0],
            [4 / 43, -59 / 86, 0, 59 / 86, -4 / 43, 0],
            [3 / 98, 0, -59 / 98, 0, 32 / 49, -4 / 49],
        ]
    )
    d[:4, :6] = top
    d[-4:, -6:] = -top[::-1, ::-1]
    h = np.ones(n_nodes)
    h[:4] = [17 / 48, 59 / 48, 43 / 48, 49 / 48]
    h[-4:] = [49 / 48, 43 / 48, 59 / 48, 17 / 48]
    return d / dx, h * dx


def symplectic_form(state: LoopState, var_y: np.ndarray, var_z: np.ndarray) -> complex:
    """Loop-space symplectic form on two left-translated variations.

    2 omega = int <(k^-1 k_y)_x, k^-1 k_z> dx - [<s_z s^-1, u^-1 u_y>]_0^pi,
    where the boundary decomposition uses Ad_s(k^-1 k_.) = u^-1 u_. (g-part)
    + s_. s^-1 (m-part) for the factorization k = u s (gauge s(0) = e).
    The bulk derivative/quadrature pair obeys summation by parts, so
    antisymmetry and the m-translation degeneracy hold to roundoff.
    The convention matches the flow: 2 omega(kdot, z) = 2 d<H>(z).
    """
    kit = state.kit
    n = kit.b.g.dim
    y = np.asarray(var_y, dtype=complex)
    z = np.asarray(var_z, dtype=complex)
    p = state.split.pairing
    if state.boundary == "periodic":
        dyx = _x_derivative(y, state.dx, state.boundary)
        return complex(np.einsum("ni,ij,nj->", dyx, p, z) * state.dx)
    d, h = _sbp_operator(state.n_nodes, state.dx)
    dyx = np.tensordot(d, y, axes=(1, 0))
    bulk = complex(np.einsum("n,ni,ij,nj->", h, dyx, p, z))
    ends = [state.n_nodes - 1, 0]
    ads = kit.ad_d(kit.factorize_gm(state.k[ends])[1])
    wy = _matvec(ads, y[ends])
    wz = _matvec(ads, z[ends])
    at_pi, at_0 = np.einsum("ni,ni->n", wz[:, n:], wy[:, :n])
    return bulk - complex(at_pi - at_0)


# ---- driver ----------------------------------------------------------------------


def integrate_field(
    state: LoopState,
    dt: float,
    n_steps: int,
    record_every: int = 1,
    with_duality: bool = False,
    with_residuals: bool = False,
) -> FieldTrajectory:
    """Integrate the loop flow, recording diagnostics every ``record_every``
    steps and after the last one.

    A chart exit (factorization, graph blow-up or a singular matrix) or a
    state that turns non-finite ends the run early with ``completed``
    False and ``failure`` set to ``<error> at step i (t=...): <message>``,
    step 0 being the initial record; the rows recorded before it are
    kept, and a row is recorded whole or not at all.  A time step past the
    CFL bound is listed in ``warnings``, its one report: :func:`step`
    itself does not warn.
    ``final_state`` is the state of the last recorded row.
    """
    columns = times, hams, moms, fds, gaps, rgs, rts = [], [], [], [], [], [], []
    final_state = failure = None
    notes = []
    if dt > CFL * state.dx + 1e-15:
        notes.append(f"dt = {dt:g} exceeds the CFL bound {CFL:g} * dx = {CFL * state.dx:g}")

    def record(s: LoopState, prev_state: LoopState | None):
        nonlocal final_state
        row = [s.time, total_hamiltonian(s), moment_map_basis(s), loop_functions(s)[1]]
        row.append(duality_check(s) if with_duality else np.nan)
        if with_residuals and prev_state is not None:
            row.extend(eom_residuals(prev_state, s))
        else:
            row.extend([np.nan, np.nan])
        for column, value in zip(columns, row):
            column.append(value)
        final_state = s

    where = f"at step 0 (t={state.time:g})"
    try:
        record(state, None)
        for i in range(n_steps):
            where = f"at step {i + 1} (t={state.time + dt:g})"
            prev = state
            # a blow-up surfaces as a non-finite state, checked before any
            # diagnostic sees it
            with np.errstate(all="ignore"):
                state = step(state, dt)
            if not np.isfinite(state.k).all():
                failure = f"non-finite state {where}"
                break
            if (i + 1) % record_every == 0 or i == n_steps - 1:
                record(state, prev)
    except (FactorizationError, GraphBlowupError, np.linalg.LinAlgError) as exc:
        failure = f"{type(exc).__name__} {where}: {exc}"
    return FieldTrajectory(
        np.array(times),
        np.array(hams, dtype=complex),
        np.array(moms, dtype=complex).reshape(len(moms), 2 * state.kit.b.g.dim),
        np.array(fds, dtype=complex),
        np.array(gaps),
        np.array(rgs),
        np.array(rts),
        final_state,
        failure is None,
        failure,
        notes,
    )
