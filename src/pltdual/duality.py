"""Orthogonal splittings of the double and moving graph coordinates.

The two-parameter family of splittings is generated by

    E_e^-1 = (lam + 1) r1 + mu K^-1        (m -> g),
    T_e^-1 = -(lam + 1) r2 - mu K^-1       (m -> g),

whose graphs E_plus = {E_e^-1 phi (+) phi} and E_minus = {T_e^-1 phi (+)
phi} are complementary, mutually orthogonal subspaces of the double
whenever lam + 1 + 2 mu is away from zero.  The diagonal pairings are
+-(lam + 1 + 2 mu) K^-1 and the splitting is Ad_G-invariant iff lam = 0.

Every graph map is a plain array, stacked over leading axes such as grid
nodes.  :func:`graph_slices` reads the transported subspaces ad E_+- as
graphs over m: at Ad_{u^-1} they are the sigma model's (E_u^-1, T_u^-1),
at Ad_{t^-1} the dual model's (Ehat_t, That_t), the inverses of its graph
maps g -> m.  Three independent routes to (E_u^-1, T_u^-1) (exact subspace
transport, the invariant-split closed form, and the cocycle form) agree to
machine precision and are kept separate deliberately (:func:`graph_at`);
the dual model's bar form Ebar-hat_t^-1 = E_e + Pi-hat(t) is
:func:`dual_graph_at`.  :func:`graph_inverse` is the one chart check: it
inverts a graph map inside its chart and raises :class:`GraphBlowupError`,
naming the first node of a stack, outside it; given a list, it appends
a failing check to it instead, as the factorizations of :mod:`pltdual.groups` do.

Two reports close the module: :func:`validation_report` collects every
structural residual of one preset, and :func:`limit_slopes` fits the
deviation slopes of the two limiting families against their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bialgebra import (
    build_double,
    chiral_iso_defect,
    cybe_residual,
    dual_algebra,
    hyperbolic_pairing,
    pairing_ad_invariance_residual,
    symmetric_part_invariance_residual,
    tensor_conjugate,
)
from .groups import (COND_CUTOFF, GroupKit, _chart_check, _entry_products, _realization, _vadj,
                     _vdet_normalize)
from .liecore import jacobi_residual
from .models import _EPS, ModelPreset, make_preset

__all__ = [
    "SplittingError",
    "GraphBlowupError",
    "SplittingData",
    "ShiftedMaps",
    "ParticleStage",
    "splitting",
    "graph_slices",
    "graph_inverse",
    "graph_at",
    "dual_graph_at",
    "lagrangian",
    "su2_trace_lagrangian",
    "dual_lagrangian",
    "su2_dual_vector_lagrangian",
    "su2_pi_vector",
    "su2_e_inv_closed",
    "su2_e_closed",
    "su2_dual_pi_vector",
    "su2_dual_e_inv_closed",
    "su2_dual_e_closed",
    "validation_report",
    "limit_slopes",
]


class ShiftedMaps(NamedTuple):
    """Constants of the graph maps at u, X_u^-1 = Ad_{u^-1} (X_e^-1 - r1)
    Ad_{u^-1}^T + r1, with D = (E_e^-1 - T_e^-1)^-1 and the shifts
    E' = E_e^-1 - r1 and T' = T_e^-1 - r1."""

    r1: np.ndarray
    e_shift: np.ndarray  # E'
    t_shift: np.ndarray  # T'
    d_inv: np.ndarray  # D


class ParticleStage(NamedTuple):
    """Constant maps of one stage of the particle's right-hand side (see
    :func:`pltdual.particle.particle_rhs`), with S' = E' + T'."""

    # the 16 products u_ab u_cd, flattened over (a, b, c, d), to the rows of
    # [F | G] A, U = 2 Ad_{u^-1} T' + 2 r1 Ad_u^T and B = Ad_u^T, with
    # A = [Ad_{u^-1}^T; Ad_u r1] and the constant [F | G] = [D E', D; D S', 2 D]
    blocks: np.ndarray  # 16 x 36
    bracket: np.ndarray  # 9 x 3, c_ijk of m over (i, k) by j: [w, p]_m = w (bracket p)


class SplittingError(ValueError):
    """The (lam, mu) parameters do not define a factorisable splitting."""


class GraphBlowupError(RuntimeError):
    """A moving graph coordinate left its invertible chart."""


@dataclass
class SplittingData:
    """What the simulator reads of one preset's splitting: the graph operators,
    the stacked bases of E_+- and pi_+ - pi_- (projectors onto E_+- along E_-+)."""

    preset: ModelPreset
    e_inv: np.ndarray  # E_e^-1 as m -> g matrix
    t_inv: np.ndarray  # T_e^-1 as m -> g matrix
    basis_pair: np.ndarray  # 2 x 2n x n, columns of [0] span E_+, of [1] E_-
    pi_diff: np.ndarray  # 2n x 2n, pi_+ - pi_-
    pairing: np.ndarray  # 2n x 2n hyperbolic pairing matrix

    @cached_property
    def e_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.e_inv)

    @cached_property
    def shifted_maps(self) -> ShiftedMaps:
        r1 = np.ascontiguousarray(self.preset.bialgebra.rho.T)
        d = np.linalg.inv(self.e_inv - self.t_inv)
        return ShiftedMaps(r1, self.e_inv - r1, self.t_inv - r1, d)

    @cached_property
    def generator_map(self) -> np.ndarray:
        """32x8 map of the products (k_x)_ab k_cd of each side to the chiral
        entries of the loop flow's dk/dt k^-1 = (pi_- - pi_+)(k_x k^-1)
        (:func:`pltdual.fieldsim.step`): :attr:`GroupKit.tangent_map`, the
        projector difference and :meth:`GroupKit.chiral_mats` of the unit
        coefficients."""
        kit = GroupKit(self.preset.bialgebra)
        n2 = 2 * kit.b.g.dim
        entries = kit.chiral_mats(np.eye(n2)).reshape(n2, 8)
        return kit.tangent_map @ -self.pi_diff.T @ entries

    @cached_property
    def particle_stage(self) -> ParticleStage:
        """The maps of :class:`ParticleStage`.  u^-1 = adj(u) is a signed
        permutation of u, so the products u_ab (u^-1)_cd of the flavor's
        adjoint-pair map are a signed permutation of the u_ab u_cd, read off
        :func:`~pltdual.groups._vadj` on the unit matrices and folded into
        the map, as is [F | G] into the rows of A."""
        c = self.shifted_maps
        units = np.eye(4).reshape(4, 2, 2)
        adj_fold = _entry_products(units[:, None], _vadj(units)[None]).reshape(16, 16)
        ad_map = _realization(self.preset.bialgebra.g.name)[3]
        pair = (adj_fold @ ad_map).reshape(16, 2, 3, 3)
        a, b = pair[:, 0], pair[:, 1]
        bt = b.transpose(0, 2, 1)
        d, s_shift = c.d_inv, c.e_shift + c.t_shift
        fold = np.block([[d @ c.e_shift, d], [d @ s_shift, 2.0 * d]])
        rows = fold @ np.concatenate([a.transpose(0, 2, 1), b @ c.r1], axis=1)
        blocks = np.concatenate([rows, 2.0 * (a @ c.t_shift) + 2.0 * (c.r1 @ bt), bt], axis=1)
        m = self.preset.bialgebra.m.c
        return ParticleStage(
            blocks.reshape(16, 36),
            np.ascontiguousarray(m.transpose(0, 2, 1)).reshape(9, 3),
        )


def splitting(preset: ModelPreset) -> SplittingData:
    """E_e^-1, T_e^-1, the bases [E_e^-1; 1], [T_e^-1; 1] and pi_+ - pi_- of
    ``preset``, or SplittingError if degenerate.  Orthogonality, the diagonal
    pairings and the projector identities hold by construction (see tests)."""
    b = preset.bialgebra
    rho = b.rho
    kinv = b.kinv_matrix
    lam, mu = preset.lam, preset.mu
    if not preset.is_factorisable():
        # real parameters print a real value, not "0.000e+00+0.000e+00j"
        den = preset.split_denominator
        raise SplittingError(
            f"lam + 1 + 2 mu = {den.real if den.imag == 0 else den:.3e} is degenerate; "
            "the splitting subspaces lose rank"
        )
    e_inv = (lam + 1.0) * rho.T + mu * kinv
    t_inv = -(lam + 1.0) * rho - mu * kinv
    n = b.g.dim
    basis = np.stack([np.vstack([e_inv, np.eye(n)]), np.vstack([t_inv, np.eye(n)])])
    joint = np.hstack(basis)
    if np.linalg.cond(joint) > COND_CUTOFF:
        raise SplittingError("splitting subspaces are numerically degenerate")
    joint_inv = np.linalg.inv(joint)
    pi_diff = basis[0] @ joint_inv[:n] - basis[1] @ joint_inv[n:]
    return SplittingData(preset, e_inv, t_inv, basis, pi_diff, hyperbolic_pairing(n))


def graph_slices(split: SplittingData, ad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ad E_+ and ad E_- as graphs over m (m -> g), stacked over the leading
    axes of the double adjoint action ``ad``.

    At Ad_{u^-1} these are the sigma model's (E_u^-1, T_u^-1), the
    ``transport`` route of :func:`graph_at`; at Ad_{t^-1} they are the dual
    model's (Ehat_t, That_t), the inverses of its graph maps g -> m.
    Both come from one product with the stacked bases and one stacked
    inverse of their lower blocks.  A node whose lower block is exactly
    singular has no graph over m and reads NaN; at Ad_{u^-1} that block is
    the coadjoint action of u, of determinant 1.
    """
    n = split.preset.bialgebra.g.dim
    x = ad[..., None, :, :] @ split.basis_pair
    lower = x[..., n:, :]
    try:
        inv = np.linalg.inv(lower)
    except np.linalg.LinAlgError:  # an exactly singular node
        inv = np.linalg.inv(np.where((np.linalg.det(lower) != 0)[..., None, None], lower, np.nan))
    graphs = x[..., :n, :] @ inv
    return graphs[..., 0, :, :], graphs[..., 1, :, :]


def graph_inverse(m: np.ndarray, name: str, checks: list | None = None) -> np.ndarray:
    """The inverse of the graph map ``m``, stacked over its leading axes.

    Raises GraphBlowupError where the 2-norm condition number of ``name``
    exceeds ``COND_CUTOFF``, naming the first node of a stack by its index
    on the last stacked axis (:func:`pltdual.groups._chart_error`).  The
    bound |m|_F |m^-1|_F is never below that number, so only a stack past
    the cutoff on the bound (or NaN) or with an exactly singular node runs
    the SVD.

    A non-finite node fails with a NaN condition number.  With a list
    ``checks`` a failing check is appended to it instead of raised
    (:func:`pltdual.groups._chart_check`), and every failing node's inverse
    is NaN.
    """
    try:
        inv = np.linalg.inv(m)
        fro2 = [np.einsum("...ij,...ij->...", a, a.conj()).real for a in (m, inv)]
        if np.all(fro2[0] * fro2[1] <= COND_CUTOFF * COND_CUTOFF):
            return inv
    except np.linalg.LinAlgError:  # an exactly singular node
        inv = None
    # the SVD cannot take a non-finite node: its check reads NaN there
    finite = np.isfinite(m).all(axis=(-2, -1))
    safe = np.where(finite[..., None, None], m, np.eye(m.shape[-1]))
    cond = np.where(finite, np.linalg.cond(safe), np.nan)
    bad = ~(cond <= COND_CUTOFF)
    _chart_check(checks, bad, f"{name} condition number {{:.3e}} exceeds cutoff", cond,
                 error=GraphBlowupError)
    if inv is None or bad.any():
        inv = np.linalg.inv(np.where(bad[..., None, None], np.nan, m))
    return inv


def graph_at(
    kit: GroupKit,
    split: SplittingData,
    u: np.ndarray,
    route: str = "transport",
) -> tuple[np.ndarray, np.ndarray]:
    """(E_u^-1, T_u^-1) : m -> g, the graphs of Ad_{u^-1} E_+- over m, by
    the selected route.

    Routes (all equal; kept independent as cross-checks):

    * ``transport``: exact slice of the transported subspace bases.
    * ``invariant-split``: Ad_{u^-1}(X_e - r1) + r1, using that the
      Ad-invariant part conjugates trivially.
    * ``cocycle``: Ad_{u^-1}(X_e) + Pi(u^-1) with the r2 dressing cocycle
      Pi(v) = Ad_v rho Ad_v^T - rho (equal to r1 - Ad_v r1 Ad_v^T by the
      Ad-invariance of the symmetric part).

    u need not be unimodular: it is normalized once, which leaves Ad_u
    unchanged, so c u gives the maps of u on every route.
    """
    u = _vdet_normalize(np.asarray(u, dtype=complex))
    if route == "transport":
        return graph_slices(split, kit.ad_d(u[None])[0])
    a = kit.ad_g(u)[0]
    if route == "invariant-split":
        c = split.shifted_maps
        return tensor_conjugate(c.e_shift, a) + c.r1, tensor_conjugate(c.t_shift, a) + c.r1
    if route == "cocycle":
        pi2 = kit.pi(_vadj(u))  # r2 cocycle at u^-1
        return tensor_conjugate(split.e_inv, a) + pi2, tensor_conjugate(split.t_inv, a) + pi2
    raise ValueError(f"unknown graph route '{route}'")


def dual_graph_at(kit: GroupKit, split: SplittingData, t: np.ndarray) -> np.ndarray:
    """Ebar-hat_t^-1 = E_e + Pi-hat(t) : g -> m, the dual model's graph map
    at the chiral stack t of M in right-translated form."""
    return split.e_matrix + kit.hat_pi(t)


def lagrangian(
    kit: GroupKit,
    split: SplittingData,
    u: np.ndarray,
    xi_plus: np.ndarray,
    xi_minus: np.ndarray,
) -> complex:
    """Sigma-model Lagrangian density < E_u(u^-1 u_+), u^-1 u_- >.

    ``xi_plus`` and ``xi_minus`` are the left-translated lightcone
    derivatives of the path as g coefficient vectors; E_u^-1 comes by the
    ``transport`` route of :func:`graph_at`.
    """
    e = graph_inverse(graph_at(kit, split, u)[0], "E_u^-1")
    return complex(np.asarray(xi_minus, dtype=complex) @ (e @ np.asarray(xi_plus, dtype=complex)))


def su2_trace_lagrangian(u: np.ndarray, w_plus: np.ndarray, w_minus: np.ndarray) -> complex:
    """su2 modified-principal Lagrangian in 2x2 trace form.

    ``w_plus`` / ``w_minus`` are the matrices of the left-translated
    lightcone derivatives u^-1 u_+- in the defining representation.
    L = (Tr[(1 - ps) w_+ w_-] - 1/2 Tr[ps w_+] Tr[ps w_-]) / |a|^2 with
    ps = [[0, b], [conj(b), 0]] u for u = [[a, b], [-conj(b), conj(a)]].
    """
    a, b = u[0, 0], u[0, 1]
    ps = np.array([[0.0, b], [np.conj(b), 0.0]], dtype=complex) @ u
    eye = np.eye(2)
    val = np.trace((eye - ps) @ w_plus @ w_minus)
    val -= 0.5 * np.trace(ps @ w_plus) * np.trace(ps @ w_minus)
    return complex(val / abs(a) ** 2)


def dual_lagrangian(
    kit: GroupKit,
    split: SplittingData,
    t: np.ndarray,
    phi_plus: np.ndarray,
    phi_minus: np.ndarray,
) -> complex:
    """Dual sigma-model Lagrangian < (E_e + Pi-hat(t))^-1 (t_+ t^-1), t_- t^-1 >.

    ``phi_plus`` / ``phi_minus`` are the right-translated lightcone
    derivatives of the dual path as m coefficient vectors.  The value is
    numpy's complex scalar, a subclass of ``complex``.
    """
    e_bar = graph_inverse(dual_graph_at(kit, split, t), "Ebar-hat_t^-1")
    return np.asarray(phi_plus, dtype=complex) @ (e_bar @ np.asarray(phi_minus, dtype=complex))


def su2_dual_vector_lagrangian(
    t_vec: np.ndarray, grad_plus: np.ndarray, grad_minus: np.ndarray
) -> complex:
    """Dual modified-principal Lagrangian in explicit vector form.

    L-hat = 2/(1 - pi-hat^2) (g_+ . g_- - i pi-hat . (g_+ x g_-)
    - (pi-hat . g_+)(pi-hat . g_-)) with g_+- the right-translated
    lightcone derivatives as real 3-vectors.
    """
    ph = su2_dual_pi_vector(t_vec)
    gp = np.asarray(grad_plus, dtype=complex)
    gm = np.asarray(grad_minus, dtype=complex)
    denom = 1.0 - float(ph @ ph)
    return complex(
        2.0 / denom * (gp @ gm - 1j * ph @ np.cross(gp, gm) - (ph @ gp) * (ph @ gm))
    )


# ---- su2 closed forms -------------------------------------------------------

def _su2_metric(c: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c (1 + i eps.v) and its inverse (1 - i eps.v - v v^T) / (c (1 - v.v)),
    the one shape of the su2 graph maps and of their duals."""
    eps_v = 1j * np.einsum("ijk,k->ij", _EPS, v)
    return c * (np.eye(3) + eps_v), (np.eye(3) - eps_v - np.outer(v, v)) / (c * (1.0 - v @ v))


def su2_pi_vector(u: np.ndarray) -> np.ndarray:
    """pi = (Re(a conj(b)), Im(a conj(b)), -|b|^2) for u = [[a, b], [-b*, a*]]."""
    a, b = u[0, 0], u[0, 1]
    ab = a * np.conj(b)
    return np.array([ab.real, ab.imag, -abs(b) ** 2])


def su2_e_inv_closed(u: np.ndarray) -> np.ndarray:
    """Closed-form E_u^-1 for the su2 modified-principal splitting.

    Operator convention: columns act on dual coefficients, which is the
    transpose of the row-evaluated display -2(delta_ij + i eps_ijk pi_k).
    """
    return _su2_metric(-2.0, su2_pi_vector(u))[0].T


def su2_e_closed(u: np.ndarray) -> np.ndarray:
    """Closed-form inverse E_u (m -> g reversed) of :func:`su2_e_inv_closed`."""
    return _su2_metric(-2.0, su2_pi_vector(u))[1].T


def su2_dual_pi_vector(t_vec: np.ndarray) -> np.ndarray:
    """pi-hat = 2 t + (0, 0, t.t) in dual vector coordinates."""
    return 2.0 * np.asarray(t_vec, dtype=float) + np.array(
        [0.0, 0.0, float(t_vec @ t_vec)]
    )


def su2_dual_e_inv_closed(t_vec: np.ndarray) -> np.ndarray:
    """Closed-form Ebar-hat_t^-1 = -1/2 (delta + i eps pi-hat) (g -> m)."""
    return _su2_metric(-0.5, su2_dual_pi_vector(t_vec))[0]


def su2_dual_e_closed(t_vec: np.ndarray) -> np.ndarray:
    """Closed-form inverse of :func:`su2_dual_e_inv_closed`."""
    return _su2_metric(-0.5, su2_dual_pi_vector(t_vec))[1]


# ---- reports ----------------------------------------------------------------


def validation_report(preset: ModelPreset, samples: int = 5, seed: int = 0) -> dict:
    """All structural residuals for one preset, as a flat name -> value map,
    their maximum and ``passed``, that maximum below 1e-10.

    Each can be moved by some bialgebra or graph route; g's own Jacobi
    identity is the g-block of ``double_jacobi``.  The identities of
    :func:`splitting` and of the chiral map's pairing hold for every r, lam
    and mu, so they are left to the tests.
    """
    b = preset.bialgebra
    double = build_double(b)
    split = splitting(preset)
    kit = GroupKit(b)
    rng = np.random.default_rng(seed)
    route_gap = 0.0
    for _ in range(samples):
        u = kit.exp_g(rng.normal(size=b.g.dim) * 0.5)
        graphs = [graph_at(kit, split, u, route=r) for r in
                  ("transport", "invariant-split", "cocycle")]
        for g2 in graphs[1:]:
            route_gap = max(
                route_gap, float(np.max(np.abs(np.subtract(graphs[0], g2)))))
    residuals = {
        "cybe": cybe_residual(b.g, b.rho),
        "symmetric_part_invariance": symmetric_part_invariance_residual(b.g, b.rho),
        "dual_jacobi": jacobi_residual(dual_algebra(b)),
        "double_jacobi": jacobi_residual(double.algebra),
        "pairing_ad_invariance": pairing_ad_invariance_residual(double),
        "chiral_iso_morphism": chiral_iso_defect(double),
        "graph_route_agreement": route_gap,
    }
    worst = max(residuals.values())
    return {
        "preset": preset.name,
        "algebra": b.g.name,
        "lam": preset.lam,
        "mu": preset.mu,
        "split_denominator": preset.split_denominator,
        "residuals": residuals,
        "max_residual": worst,
        "passed": bool(worst < 1e-10),
    }


def limit_slopes(algebra: str = "su2", mus=(10.0, 100.0, 1000.0), samples: int = 10,
                 seed: int = 0) -> dict:
    """Deviation slope fits for the two limiting families.

    Primal: with the limiting preset the Lagrangian approaches the
    bi-invariant-metric form x_minus K x_plus, with deviation O(1/mu).
    Dual: in coordinates scaled by the dual scale c the dual Lagrangian,
    rescaled by 1/c^4, approaches 2 t_plus . t_minus, again O(1/mu).
    """
    mus = [float(m) for m in mus]
    k_mat = make_preset("modified-principal", algebra=algebra).bialgebra.k_matrix
    devs_primal, devs_dual = [], []
    for mu in mus:
        preset = make_preset("principal-limit", algebra=algebra, mu=mu)
        kit = GroupKit(preset.bialgebra)
        split = splitting(preset)
        worst = 0.0
        rng = np.random.default_rng(seed + 2)
        for _ in range(samples):
            u = kit.exp_g(rng.normal(size=3) * 0.5)
            xp = rng.normal(size=3) + 1j * rng.normal(size=3)
            xm = rng.normal(size=3) + 1j * rng.normal(size=3)
            lag = lagrangian(kit, split, u, xp, xm)
            ref = xm @ (k_mat @ xp)
            worst = max(worst, abs(lag - ref) / abs(ref))
        devs_primal.append(worst)
        c = kit.dual_scale
        worst = 0.0
        rng = np.random.default_rng(seed + 3)
        for _ in range(samples):
            tvec = rng.normal(size=3) * 0.3
            tp = rng.normal(size=3)
            tm = rng.normal(size=3)
            svec = c * tvec
            t = kit.su2star_from_vector(svec)
            phi_p = -1j * c * kit.su2star_nabla(svec, c * tp)
            phi_m = -1j * c * kit.su2star_nabla(svec, c * tm)
            lag = dual_lagrangian(kit, split, t, phi_p, phi_m)
            ref = 2.0 * tp @ tm
            worst = max(worst, abs(lag / c**4 - ref) / abs(ref))
        devs_dual.append(worst)
    log_mu = np.log(mus)
    slope_primal = float(np.polyfit(log_mu, np.log(devs_primal), 1)[0])
    slope_dual = float(np.polyfit(log_mu, np.log(devs_dual), 1)[0])
    return {
        "mus": mus,
        "deviations_primal": devs_primal,
        "deviations_dual": devs_dual,
        "slope_primal": slope_primal,
        "slope_dual": slope_dual,
        "passed": bool(
            abs(slope_primal + 1.0) < 0.2 and abs(slope_dual + 1.0) < 0.2
        ),
    }
