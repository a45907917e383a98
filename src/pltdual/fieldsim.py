"""Method-of-lines integrator for the first-order loop flow on the double.

The loop field k(x) takes values in the double group, stored as the
chiral stack (..., nodes, side, 2, 2) of :mod:`pltdual.groups` on the grid
x_j = j pi / N, whose leading axes may hold a stack of loops.  The flow is

    dk/dt k^-1 = (pi_- - pi_+)(k_x k^-1),

with the constant splitting projectors of the chosen preset; spatial
derivatives are fourth-order finite differences (one-sided at the ends
of a double-Neumann run, wrapped for a periodic run) and the time step
is the commutator-free CF4 update of Celledoni, Marthinsen and Owren
(:func:`pltdual.groups.cf4_step`) on that stack, so every grid element
stays on the group up to a determinant renormalization per step.  As
k^-1 is the adjugate of the unimodular k, dk/dt k^-1 is bilinear in k_x
and k: a stage takes one derivative, one broadcast outer product of the
entries of k_x and k on each side, and one product with the constant 32x8
matrix :attr:`SplittingData.generator_map`, built once per splitting.

A double-Neumann run has open ends: the one-sided closures are all that
treats them, and no boundary condition is imposed, so its initial data
(whose k_x vanishes at both ends) do not keep k_x = 0 there.  H and f_d
are then not conserved but change by the fluxes through the two ends,
dH/dt = -1/4 [<w, w>]_0^pi and df_d/dt = 1/4 [<w, (pi_+ - pi_-) w>]_0^pi;
a periodic run conserves both.

Diagnostics cover the Hamiltonian 4 H = <(pi_+ - pi_-) w, w> with
w = k_x k^-1, the moment map I_delta = -1/2 int <w, delta> dx and the loop
function f_d = -1/4 int <w, w> dx (one kernel, :func:`loop_functions`),
the two-factorization duality gap, discrete residuals of the second-order
field equations in both the group and the dual-group description, and the
loop-space symplectic form with its boundary term (gauge-fixed by s(0) = e).

Like the time step, the diagnostics are array expressions over the node
axis, which is the axis just before an element's own axes (-4 for chiral
stacks, -3 for 2x2 stacks, -2 for coefficients); the axes before it
broadcast, so a stack of loops gets one value per loop and a single loop
what it got alone.  The factorizations, adjoint actions and graph slices
come stacked from :mod:`pltdual.groups` and :mod:`pltdual.duality`, and
every chart check is a per-node mask, naming the first node that fails.  A
state computes the quantities they share (its tangent field, both
factorizations with the inverse first factor and both halves of its
double adjoint pair) once, on first use.

:func:`integrate_field` keeps the state of each record and of the step
before it, and computes the rows in stacked passes on a leading record
axis: each distinct state is factorized once in each order, and the
tangents, lightcone fields, duality gap and quadratures are computed on
the stack, so the per-call cost of numpy is paid once per pass rather
than once per state; it collects its chart checks as masks, and the first
record in time that fails one stops the run after the rows before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .duality import SplittingData, graph_inverse, graph_slices
from .groups import GroupKit, _chart_error, _entry_products, _vadj, _vmul, cf4_step
from .liecore import _stack_dot, bracket_coeffs

__all__ = [
    "LoopState",
    "FieldTrajectory",
    "init_pointlike",
    "random_smooth_loop",
    "step",
    "integrate_field",
    "hamiltonian_density",
    "loop_functions",
    "duality_check",
    "eom_residuals",
    "dressing_relation_residual",
    "symplectic_form",
    "grid_points",
]

BOUNDARIES = ("periodic", "double-neumann")
# the CFL bound on the time step, in units of dx
CFL = 0.5


# ---- loop state ---------------------------------------------------------------


@dataclass
class LoopState:
    """A loop in the double group sampled on the spatial grid, or a stack of
    loops on leading axes: ``k`` is (..., nodes, side, 2, 2) and ``time``
    a float or an array over the leading axes.  Every diagnostic below
    returns one value per loop of a stack, and a float (or an array over
    the basis) for a single loop.

    ``k`` must be unimodular at every node (det k = 1 on both sides): the
    loop tangent k_x k^-1 takes k^-1 as the adjugate, with no division by
    det k.  :func:`step` renormalizes the determinant of each new state.

    :attr:`tangent`, :attr:`gm_factors` and :attr:`mg_factors` are
    computed from ``k`` on first use and kept, so ``k`` must not be
    mutated once any of them has been read.
    """

    kit: GroupKit
    split: SplittingData
    k: np.ndarray  # (..., nodes, side, 2, 2) chiral stack
    boundary: str = "double-neumann"
    time: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary condition '{self.boundary}'")
        self.k = np.asarray(self.k, dtype=complex)

    @property
    def kl(self) -> np.ndarray:
        """The left chiral matrices, a view of ``k``."""
        return self.k[..., 0, :, :]

    @property
    def kr(self) -> np.ndarray:
        """The right chiral matrices, a view of ``k``."""
        return self.k[..., 1, :, :]

    @property
    def n_nodes(self) -> int:
        return self.k.shape[-4]

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
        """w = k_x k^-1 as (..., nodes, 2n) double-algebra coefficients."""
        return _tangent_field(self)

    @cached_property
    def gm_factors(self) -> tuple[np.ndarray, ...]:
        """(u, s, u^-1, Ad_{u^-1}, Ad_u) at every node, for k = u s."""
        return _factors(self, "gm")

    @cached_property
    def mg_factors(self) -> tuple[np.ndarray, ...]:
        """(t, v, t^-1, Ad_{t^-1}, Ad_t) at every node, for k = t v."""
        return _factors(self, "mg")


def _factors(state: LoopState, order: str, checks: list | None = None) -> tuple[np.ndarray, ...]:
    """:attr:`LoopState.gm_factors` (``order`` "gm") or ``mg_factors`` ("mg"),
    with the chart checks collected in ``checks`` as by :meth:`GroupKit.factorize_gm`."""
    x, y = (state.kit.factorize_gm if order == "gm" else state.kit.factorize_mg)(state.k, checks)
    return x, y, _vadj(x), *state.kit.ad_d(x[..., None, :, :] if order == "gm" else x)


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
    failure: str | None = None  # the error that stopped an incomplete run
    warnings: list = field(default_factory=list)  # e.g. a time step past the CFL bound
    steps: int = 0  # steps completed; a stopped run does not count the step that failed

    @property
    def completed(self) -> bool:
        return self.failure is None


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


# highest cosine mode of a random smooth loop
_N_MODES = 2


def random_smooth_loop(
    kit: GroupKit,
    split: SplittingData,
    n_cells: int,
    boundary: str = "double-neumann",
    seed: int = 0,
    amplitude: float = 0.3,
) -> LoopState:
    """Smooth random loop exp(w(x)) from the cosine modes 0 to ``_N_MODES``.

    The double-algebra coefficients w are real combinations of cos(m x)
    for the double-Neumann run (k_x vanishes at both ends) and of
    cos(2 m x) for the periodic run (period pi, matching the grid), with
    the m-part taken in the dual real form for su2.
    """
    rng = np.random.default_rng(seed)
    xs = grid_points(n_cells, boundary)
    n = kit.b.g.dim
    mode_step = 2 if boundary == "periodic" else 1
    coeffs = rng.normal(size=(_N_MODES + 1, 2 * n)) * amplitude / (_N_MODES + 1)
    w = np.zeros((len(xs), 2 * n))
    for m in range(_N_MODES + 1):
        w = w + np.cos(mode_step * m * xs)[:, None] * coeffs[m]
    wc = w.astype(complex)
    if kit.flavor == "su2":
        wc[:, n:] = -1j * w[:, n:]
    return LoopState(kit, split, kit.exp_d(wc), boundary)


# ---- spatial derivative ---------------------------------------------------------


_EDGE_STENCIL = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_NEAR_STENCIL = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


@lru_cache(maxsize=None)
def _wrap_index(n_nodes: int, width: int) -> np.ndarray:
    """The node indices that take ``n_nodes`` nodes to themselves with
    ``width`` nodes of their periodic continuation on either side (as
    ``np.pad(..., mode="wrap")``), for any node count; built once per
    (n_nodes, width) and read-only."""
    index = np.arange(-width, n_nodes + width) % n_nodes
    index.flags.writeable = False
    return index


def _x_derivative(f: np.ndarray, dx: float, boundary: str, order: int = 4,
                  axis: int = 0) -> np.ndarray:
    """Spatial derivative along the node ``axis`` of ``f`` (centred, wrapped
    for periodic runs, one-sided at Neumann ends).

    The node axis is the one just before an element's own axes: -4 for
    chiral stacks, -3 for 2x2 stacks, -2 for coefficients and 0 for samples
    stacked node first; the axes before it broadcast.  The integrator uses
    the fourth-order stencils; the field-equation residual diagnostics use
    order 2 so their leading error is the known O(dx^2) stencil truncation.
    """
    if axis % f.ndim:
        # a stack of loops: the stencils below act on a view with the nodes first
        moved = _x_derivative(np.moveaxis(f, axis, 0), dx, boundary, order)
        return np.moveaxis(moved, 0, axis)
    # the centred stencil, on the periodic continuation or the Neumann interior
    half = order // 2
    p = f.take(_wrap_index(len(f), half), axis=0) if boundary == "periodic" else f
    if order == 2:
        centred = (p[2:] - p[:-2]) / (2 * dx)
    else:
        centred = (-p[4:] + 8 * p[3:-1] - 8 * p[1:-3] + p[:-4]) / (12 * dx)
    if boundary == "periodic":
        return centred
    out = np.empty_like(f)
    out[half:-half] = centred
    if order == 2:
        out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * dx)
        out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * dx)
        return out
    out[0] = np.einsum("s,s...->...", _EDGE_STENCIL, f[:5]) / dx
    out[1] = np.einsum("s,s...->...", _NEAR_STENCIL, f[:5]) / dx
    out[-1] = -np.einsum("s,s...->...", _EDGE_STENCIL, f[-5:][::-1]) / dx
    out[-2] = -np.einsum("s,s...->...", _NEAR_STENCIL, f[-5:][::-1]) / dx
    return out


def _right_tangent(k: np.ndarray, dx: float, boundary: str, out_map: np.ndarray) -> np.ndarray:
    """k_x k^-1 of a node-first chiral stack, read through ``out_map`` from
    the products (k_x)_ab k_cd of each side: :attr:`GroupKit.tangent_map`
    gives its (nodes, 2n) double-algebra coefficients,
    :attr:`SplittingData.generator_map` the chiral entries of dk/dt k^-1.

    k^-1 is read as the adjugate, with no division by det k, so ``k``
    must be unimodular: every caller passes recorded states, stage points
    or the M factor of one.  Leading axes broadcast, with one BLAS product
    with the map per loop (:func:`~pltdual.liecore._stack_dot`).
    """
    products = _entry_products(_x_derivative(k, dx, boundary, axis=-4), k)
    return _stack_dot(products.reshape(k.shape[:-3] + (32,)), out_map)


def _tangent_field(state: LoopState) -> np.ndarray:
    """w = k_x k^-1 as (..., nodes, 2n) double-algebra coefficients, from one
    derivative of the chiral stack (read it as :attr:`LoopState.tangent`)."""
    return _right_tangent(state.k, state.dx, state.boundary, state.kit.tangent_map)


def _flow_velocity(state: LoopState) -> np.ndarray:
    """dk/dt k^-1 = (pi_- - pi_+)(k_x k^-1) as (..., nodes, 2n) coefficients."""
    return state.tangent @ -state.split.pi_diff.T


# ---- time stepping -------------------------------------------------------------


def step(state: LoopState, dt: float) -> LoopState:
    """One fourth-order commutator-free (CF4) step of the loop flow, on the
    chiral stack of the loop."""
    dx, boundary, gen_map = state.dx, state.boundary, state.split.generator_map

    def gens(k: np.ndarray, _):
        return _right_tangent(k, dx, boundary, gen_map).reshape(k.shape), 0.0

    k1, _ = cf4_step(gens, state.k, 0.0, dt)
    return LoopState(state.kit, state.split, k1, boundary, state.time + dt)


# ---- diagnostics ----------------------------------------------------------------


def _quadrature(values: np.ndarray, dx: float, boundary: str, axis: int = 0):
    """Composite Simpson for the Neumann grid (trapezoid on an odd cell
    count), Riemann sum for periodic, over the node ``axis`` (as in
    :func:`_x_derivative`)."""
    if boundary == "periodic":
        total = values.sum(axis=axis) * dx
    else:
        w, div = np.ones(values.shape[axis]), 1.0
        if len(w) % 2 == 0:
            w[[0, -1]] = 0.5
        else:
            w[1:-1:2], w[2:-1:2], div = 4.0, 2.0, 3.0
        w = w.reshape((-1,) + (1,) * (values.ndim - 1 - axis % values.ndim))
        total = (w * values).sum(axis=axis) * dx / div
    return total


def hamiltonian_density(state: LoopState) -> np.ndarray:
    """Nodewise 1/4 <(pi_+ - pi_-) w, w> with w = k_x k^-1."""
    w = state.tangent
    pw = w @ (state.split.pi_diff.T @ state.split.pairing.T)
    return 0.25 * np.einsum("...i,...i->...", pw, w)


def loop_functions(state: LoopState) -> tuple:
    """(H, I_delta, f_d) with w = k_x k^-1: the energy H = int of
    :func:`hamiltonian_density`, the moment map I_delta = -1/2 int <w, delta> dx
    for every double basis vector delta at once, and the loop function
    f_d = -1/4 int <w, w> dx."""
    w, pairing, dx, boundary = state.tangent, state.split.pairing, state.dx, state.boundary
    return (_quadrature(hamiltonian_density(state), dx, boundary, axis=-1),
            _quadrature(-0.5 * (w @ pairing), dx, boundary, axis=-2),
            _quadrature(-0.25 * np.einsum("...i,ij,...j->...", w, pairing, w), dx, boundary,
                        axis=-1))


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


def duality_check(state: LoopState) -> float | np.ndarray:
    """Max gap between the (u, s) and (t, v) Hamiltonian densities plus
    the reconstruction defects of both factorizations.

    A transported density equals 1/4 <(pi_+ - pi_-) w, w> for every Ad
    that preserves the pairing, so the gap reads roundoff plus the defects
    |us - k| and |tv - k|, and nothing of E_u or Ehat_t.
    """
    k, w = state.k, state.tangent
    u, s, _, ad_uinv, ad_u = state.gm_factors
    t, v, _, ad_tinv, ad_t = state.mg_factors
    u, v = u[..., None, :, :], v[..., None, :, :]
    # the reconstruction defects, summed over both sides
    recon_gm = np.linalg.norm(_vmul(u, s) - k, axis=(-2, -1)).sum(axis=-1)
    recon_mg = np.linalg.norm(_vmul(t, v) - k, axis=(-2, -1)).sum(axis=-1)
    # primal description: transport by Ad_{u^-1}
    hu = _transported_density(state.split, ad_u, ad_uinv, w)
    # dual description: transport by Ad_{t^-1}
    ht = _transported_density(state.split, ad_t, ad_tinv, w)
    return np.abs(hu - ht).max(axis=-1) + np.maximum(recon_gm.max(axis=-1), recon_mg.max(axis=-1))


# ---- field-equation residuals ------------------------------------------------


def _primal_lightcone_fields(state: LoopState, order: int = 2,
                             checks: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(E_u(u^-1 u_-), T_u(u^-1 u_+)) at every node, for k = u s.

    The time derivative comes exactly from the loop flow: decomposing
    Ad_{u^-1}(dk/dt k^-1) = u^-1 du/dt (+) ds/dt s^-1 for k = u s, so no
    time levels are consumed; the spatial part is the stencil of ``order``.
    ``checks`` is that of :func:`~pltdual.duality.graph_inverse`.
    """
    kit = state.kit
    n = kit.b.g.dim
    u, _, uinv, ad, _ = state.gm_factors
    xi_x = kit.coeffs(_vmul(uinv, _x_derivative(u, state.dx, state.boundary, order, axis=-3)))
    xi_t = _matvec(ad, _flow_velocity(state))[..., :n]
    e_inv, t_inv = graph_slices(state.split, ad)
    e, t = graph_inverse(e_inv, "E_u^-1", checks), graph_inverse(t_inv, "T_u^-1", checks)
    return _matvec(e, 0.5 * (xi_t - xi_x)), _matvec(t, 0.5 * (xi_t + xi_x))


def _dual_lightcone_fields(state: LoopState) -> tuple[np.ndarray, np.ndarray]:
    """(Ehat_t phi_-, That_t phi_+) at every node, for k = t v, with
    Ehat_t and That_t the transported slices over m at Ad_{t^-1}."""
    kit = state.kit
    n = kit.b.g.dim
    t, _, tinv, ad, _ = state.mg_factors
    phi_x = kit.tangent_coeffs(
        _vmul(tinv, _x_derivative(t, state.dx, state.boundary, order=2, axis=-4)))[..., n:]
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
    Stacks of states of one shape give a residual per leading index.
    """
    levels = LoopState(state0.kit, state0.split, np.stack([state0.k, state1.k]),
                       state0.boundary, np.array([state0.time, state1.time]))
    return _level_residuals(levels, 0, 1)


def _level_residuals(levels: LoopState, i0, i1,
                     checks: list | None = None) -> tuple[float | np.ndarray, ...]:
    """The field-equation residuals of :func:`eom_residuals` between the
    time levels ``levels[i0]`` and ``levels[i1]`` (indices or index arrays
    on the first axis), with the lightcone fields and their x-derivatives
    computed once per level of the stack (``checks`` as in :func:`graph_inverse`)."""
    split = levels.split
    dx, bd = levels.dx, levels.boundary
    dt = np.asarray(levels.time[i1] - levels.time[i0])[..., None, None]
    interior = slice(2, -2) if bd == "double-neumann" else slice(None)

    def residual(fields, c_rhs):
        (a, b), (a_x, b_x) = fields, [_x_derivative(f, dx, bd, order=2, axis=-2) for f in fields]
        a0, a1, b0, b1 = a[i0], a[i1], b[i0], b[i1]
        a_mid, b_mid = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
        da_t, db_t = (a1 - a0) / dt, (b1 - b0) / dt
        da_x, db_x = 0.5 * (a_x[i0] + a_x[i1]), 0.5 * (b_x[i0] + b_x[i1])
        lhs = 0.5 * (db_t - db_x) - 0.5 * (da_t + da_x)
        rhs = bracket_coeffs(c_rhs, a_mid, b_mid)
        return np.abs(lhs - rhs)[..., interior, :].max(axis=(-2, -1))

    bialgebra = split.preset.bialgebra
    res_g = residual(_primal_lightcone_fields(levels, checks=checks), bialgebra.m.c)
    return res_g, residual(_dual_lightcone_fields(levels), bialgebra.g.c)


def dressing_relation_residual(state: LoopState) -> float | np.ndarray:
    """Defect of the factor relations tying s to the graph images of u.

    For k = u s on a flow trajectory the dual factor obeys
    s_+ s^-1 = T_u(u^-1 u_+) and s_- s^-1 = E_u(u^-1 u_-); both sides
    are evaluated from the same time level (factor time derivatives
    taken exactly from the flow), so the defect is a pure
    spatial-discretization error.
    """
    kit = state.kit
    n = kit.b.g.dim
    _, s, _, ad, _ = state.gm_factors
    s_t = _matvec(ad, _flow_velocity(state))[..., n:]  # ds/dt s^-1 in m-coefficients
    s_x = _right_tangent(s, state.dx, state.boundary, kit.tangent_map)[..., n:]
    e_minus, t_plus = _primal_lightcone_fields(state, order=4)
    lhs_p = 0.5 * (s_t + s_x) - t_plus
    lhs_m = 0.5 * (s_t - s_x) - e_minus
    return np.maximum(np.abs(lhs_p).max(axis=(-2, -1)), np.abs(lhs_m).max(axis=(-2, -1)))


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
    ads = kit.ad_d(kit.factorize_gm(state.k[ends])[1])[1]
    wy = _matvec(ads, y[ends])
    wz = _matvec(ads, z[ends])
    at_pi, at_0 = np.einsum("ni,ni->n", wz[:, n:], wy[:, :n])
    return bulk - complex(at_pi - at_0)


# ---- driver ----------------------------------------------------------------------


# the most stacked nodes (states times grid nodes) one record pass holds
_PASS_NODES = 2048


def _substack(states: LoopState, index: slice, shared: tuple[str, ...]) -> LoopState:
    """The states ``index`` of a stack, holding the slices of the quantities
    ``shared`` (attributes of :class:`LoopState`), each computed once on the
    whole stack."""
    sub = LoopState(states.kit, states.split, states.k[index], states.boundary,
                    states.time[index])
    for name in shared:
        value = getattr(states, name)
        sub.__dict__[name] = value[index] if name == "tangent" else tuple(a[index] for a in value)
    return sub


def _record_columns(records: list, diagnostics: bool) -> tuple:
    """The times, H, the moments, f_d, the duality gap and both
    field-equation residuals of ``records``, a list of (state, the state one
    step before it or None), in one pass on a stack of the record states and
    then of each step before a record that is not itself a record (kept only
    with ``diagnostics``): every state is factorized once in each order and
    its tangent and lightcone fields are computed once.  The chart checks
    are collected, not raised, and the first record that fails one comes
    with the columns (:func:`_first_failure`)."""
    loops, before = [s for s, _ in records], []
    for j, (_, prev) in enumerate(records):
        if not diagnostics or prev is None:
            before.append(-1)
        elif j and prev is records[j - 1][0]:
            before.append(j - 1)
        else:
            before.append(len(loops))
            loops.append(prev)
    states = LoopState(loops[0].kit, loops[0].split, np.stack([s.k for s in loops]),
                       loops[0].boundary, np.array([s.time for s in loops]))
    n_records, before = len(records), np.array(before)
    shared, checks = ("tangent",), ([], [], [])
    if diagnostics:
        states.__dict__.update(gm_factors=_factors(states, "gm", checks[0]),
                               mg_factors=_factors(states, "mg", checks[1]))
        shared += ("gm_factors", "mg_factors")
    recorded = _substack(states, slice(n_records), shared)
    columns = [recorded.time, *loop_functions(recorded)]
    gap, res_g, res_t = np.full((3, n_records), np.nan)
    if not diagnostics:
        return columns + [gap, res_g, res_t], None
    paired = before >= 0
    # the time levels: all states but a first record that no residual reads
    first = int(not paired[0] and 0 not in before)
    if paired.any():
        levels = _substack(states, slice(first, None), shared)
        res_g[paired], res_t[paired] = _level_residuals(
            levels, before[paired] - first, np.flatnonzero(paired) - first, checks[2])
    return columns + [duality_check(recorded), res_g, res_t], _first_failure(checks, before, first)


def _first_failure(checks: tuple, before: np.ndarray, first: int) -> tuple | None:
    """The index and error of the first record of a pass that fails one of
    its failing ``checks`` (G.M, M.G and the graph maps of the levels from
    ``first`` on), or None, in the order of a record evaluated on its own:
    its G.M and M.G factorizations, G.M of the step before it, E_u^-1 and
    T_u^-1 of that step and then of the record, M.G of the step before it."""
    gm, mg, graphs = checks
    if not any(checks):
        return None
    for r, p in enumerate(before):
        sites = [(c, r) for c in gm + mg]
        if p >= 0:
            sites += [(c, p) for c in gm] + [(c, i - first) for i in (p, r) for c in graphs]
            sites += [(c, p) for c in mg]
        for (bad, message, figures, error), i in sites:
            if exc := _chart_error(bad[i], message, [f[i] for f in figures], error):
                return r, exc
    return None


def integrate_field(
    state: LoopState,
    dt: float,
    n_steps: int,
    record_every: int = 1,
    diagnostics: bool = False,
) -> FieldTrajectory:
    """Integrate the loop flow, recording diagnostics every ``record_every``
    steps and after the last one.

    With ``diagnostics`` every row also holds the duality gap and, from
    the second row on, the field-equation residuals against the row
    before; without it those three columns stay NaN.

    The loop keeps each record's state and, for the residuals, the state
    one step before it; the rows are computed from them in stacked passes
    (:func:`_record_columns`), each of records whose states stack at most
    ``_PASS_NODES`` nodes, during the loop and after it.

    A chart exit (factorization or graph blow-up) or a non-finite state,
    the initial one included, ends the run early with ``completed`` False
    and ``failure`` set to ``<error> at step i (t=...): <message>``, step 0
    being the initial record, as the first record in time that fails a
    check of its pass meets it evaluated on its own
    (:func:`_first_failure`); the rows before it are kept, and a row is
    recorded whole or not at all.  The earliest stop in time wins, so a
    chart exit at a record before a non-finite state is the one reported.
    A time step past the CFL bound is listed in ``warnings``, its one
    report: :func:`step` itself does not warn.  ``final_state`` is the
    state of the last recorded row.
    """
    columns = times, hams, moms, fds, gaps, rgs, rts = [], [], [], [], [], [], []
    final_state = failure = None
    notes = []
    if dt > CFL * state.dx + 1e-15:
        notes.append(f"dt = {dt:g} exceeds the CFL bound {CFL:g} * dx = {CFL * state.dx:g}")
    pending = []  # (state, the state one step before or None, step) of the records to pass
    stopped = 0  # the step that stopped the run, if one did

    def flush() -> bool:
        """Pass the pending records; False if one fails a chart check."""
        nonlocal final_state, failure, stopped
        block, stop = _record_columns([r[:2] for r in pending], diagnostics)
        passed = pending[:stop[0]] if stop else pending
        for column, values in zip(columns, block):
            column.extend(values[:len(passed)])
        final_state = passed[-1][0] if passed else final_state
        if stop:
            s, _, stopped = pending[stop[0]]
            failure = f"{type(stop[1]).__name__} at step {stopped} (t={s.time:g}): {stop[1]}"
        pending.clear()
        return stop is None

    def record(s: LoopState, prev: LoopState | None, at: int) -> bool:
        pending.append((s, prev, at))
        # a record stacks at most two states
        return 2 * len(pending) * s.n_nodes < _PASS_NODES or flush()

    prev = None
    # a blow-up surfaces as a non-finite state, checked before any
    # diagnostic sees it, and a node off the chart leaves non-finite values
    # in its own record's columns
    with np.errstate(all="ignore"):
        for i in range(n_steps + 1):
            if i:
                prev, state = state, step(state, dt)
            if not np.isfinite(state.k).all():
                failure, stopped = f"non-finite state at step {i} (t={state.time:g})", i
                break
            if (i % record_every == 0 or i == n_steps) and not record(state, prev, i):
                break
        if pending:
            flush()
    return FieldTrajectory(
        np.array(times),
        np.array(hams, dtype=complex),
        np.array(moms, dtype=complex).reshape(len(moms), 2 * state.kit.b.g.dim),
        np.array(fds, dtype=complex),
        np.array(gaps),
        np.array(rgs),
        np.array(rts),
        final_state,
        failure,
        notes,
        n_steps if failure is None else max(stopped - 1, 0),
    )
