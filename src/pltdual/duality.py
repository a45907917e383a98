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
naming the first node of a stack, outside it.

Two reports close the module: :func:`validation_report` collects every
structural residual of one preset, and :func:`limit_slopes` fits the
deviation slopes of the two limiting families against their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bialgebra import (
    build_double,
    chiral_iso_defects,
    cocycle_residual,
    cybe_residual,
    dual_algebra,
    hyperbolic_pairing,
    pairing_ad_invariance_residual,
    symmetric_part_invariance_residual,
    tensor_conjugate,
)
from .groups import COND_CUTOFF, GroupKit, _vadj, _vdet_normalize
from .liecore import jacobi_residual
from .models import ModelPreset, make_preset

__all__ = [
    "SplittingError",
    "GraphBlowupError",
    "SplittingData",
    "ShiftedMaps",
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
    Ad_{u^-1}^T + r1, and the particle's right-hand side folded from them
    (see :mod:`pltdual.particle`), with D = (E_e^-1 - T_e^-1)^-1 and the
    shifts E' = E_e^-1 - r1, T' = T_e^-1 - r1 and S' = E' + T'."""

    r1: np.ndarray
    e_shift: np.ndarray  # E'
    t_shift: np.ndarray  # T'
    d_inv: np.ndarray  # D
    fold_q: np.ndarray  # F = [D E'; D S'], 6x3
    fold_rp: np.ndarray  # G = [D; 2 D], 6x3
    t_shift2: np.ndarray  # 2 T'
    r1_2: np.ndarray  # 2 r1


class SplittingError(ValueError):
    """The (lam, mu) parameters do not define a factorisable splitting."""


class GraphBlowupError(RuntimeError):
    """A moving graph coordinate left its invertible chart."""


@dataclass
class SplittingData:
    """Splitting operators, subspace bases and projectors for one preset."""

    preset: ModelPreset
    e_inv: np.ndarray  # E_e^-1 as m -> g matrix
    t_inv: np.ndarray  # T_e^-1 as m -> g matrix
    basis_plus: np.ndarray  # 2n x n, columns span E_+
    basis_minus: np.ndarray
    pi_plus: np.ndarray  # 2n x 2n projector onto E_+ along E_-
    pi_minus: np.ndarray
    pairing: np.ndarray  # 2n x 2n hyperbolic pairing matrix
    # the loop flow's constant 8x8 generator map for each GroupKit, kept by
    # pltdual.fieldsim.step
    generator_maps: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def pi_diff(self) -> np.ndarray:
        return self.pi_plus - self.pi_minus

    @cached_property
    def basis_pair(self) -> np.ndarray:
        """(basis_plus, basis_minus) stacked, 2 x 2n x n, for :func:`graph_slices`."""
        return np.stack([self.basis_plus, self.basis_minus])

    @cached_property
    def e_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.e_inv)

    @cached_property
    def t_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.t_inv)

    @cached_property
    def shifted_maps(self) -> ShiftedMaps:
        r1 = np.ascontiguousarray(self.preset.bialgebra.rho.T)
        e_shift, t_shift = self.e_inv - r1, self.t_inv - r1
        d = np.linalg.inv(self.e_inv - self.t_inv)
        return ShiftedMaps(
            r1, e_shift, t_shift, d,
            np.vstack([d @ e_shift, d @ (e_shift + t_shift)]), np.vstack([d, 2.0 * d]),
            2.0 * t_shift, 2.0 * r1,
        )

    def orthogonality_defect(self) -> float:
        return float(
            np.max(np.abs(self.basis_plus.T @ self.pairing @ self.basis_minus))
        )

    def diagonal_pairing_defects(self) -> tuple[float, float]:
        """Deviation of the E_+- diagonal pairings from +-(lam+1+2mu) K^-1."""
        b = self.preset.bialgebra
        expected = self.preset.split_denominator * b.kinv_matrix
        dp = self.basis_plus.T @ self.pairing @ self.basis_plus - expected
        dm = self.basis_minus.T @ self.pairing @ self.basis_minus + expected
        return float(np.max(np.abs(dp))), float(np.max(np.abs(dm)))

    def projector_defects(self) -> float:
        n2 = self.pi_plus.shape[0]
        eye = np.eye(n2)
        worst = float(np.max(np.abs(self.pi_plus + self.pi_minus - eye)))
        worst = max(worst, float(np.max(np.abs(self.pi_plus @ self.pi_plus - self.pi_plus))))
        worst = max(worst, float(np.max(np.abs(self.pi_minus @ self.pi_minus - self.pi_minus))))
        worst = max(worst, float(np.max(np.abs(self.pi_plus @ self.pi_minus))))
        return worst


def splitting(preset: ModelPreset) -> SplittingData:
    b = preset.bialgebra
    rho = b.rho
    kinv = b.kinv_matrix
    lam, mu = preset.lam, preset.mu
    if not preset.is_factorisable():
        raise SplittingError(
            f"lam + 1 + 2 mu = {preset.split_denominator:.3e} is degenerate; "
            "the splitting subspaces lose rank"
        )
    e_inv = (lam + 1.0) * rho.T + mu * kinv
    t_inv = -(lam + 1.0) * rho - mu * kinv
    n = b.g.dim
    eye = np.eye(n)
    basis_plus = np.vstack([e_inv, eye])
    basis_minus = np.vstack([t_inv, eye])
    joint = np.hstack([basis_plus, basis_minus])
    if np.linalg.cond(joint) > COND_CUTOFF:
        raise SplittingError("splitting subspaces are numerically degenerate")
    joint_inv = np.linalg.inv(joint)
    pi_plus = basis_plus @ joint_inv[:n]
    pi_minus = basis_minus @ joint_inv[n:]
    return SplittingData(
        preset, e_inv, t_inv, basis_plus, basis_minus, pi_plus, pi_minus,
        hyperbolic_pairing(n),
    )


def graph_slices(split: SplittingData, ad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ad E_+ and ad E_- as graphs over m (m -> g), stacked over the leading
    axes of the double adjoint action ``ad``.

    At Ad_{u^-1} these are the sigma model's (E_u^-1, T_u^-1), the
    ``transport`` route of :func:`graph_at`; at Ad_{t^-1} they are the dual
    model's (Ehat_t, That_t), the inverses of its graph maps g -> m.
    Both come from one product with the stacked bases and one stacked
    inverse of their lower blocks.
    """
    n = split.preset.bialgebra.g.dim
    x = ad[..., None, :, :] @ split.basis_pair
    graphs = x[..., :n, :] @ np.linalg.inv(x[..., n:, :])
    return graphs[..., 0, :, :], graphs[..., 1, :, :]


def graph_inverse(m: np.ndarray, name: str) -> np.ndarray:
    """The inverse of the graph map ``m``, stacked over its leading axes.

    Raises GraphBlowupError where the condition number of ``name`` exceeds
    ``COND_CUTOFF``, naming the first node of a stack.
    """
    cond = np.linalg.cond(m)
    bad = np.flatnonzero(cond > COND_CUTOFF)
    if bad.size:
        j = bad[0]
        node = f" (first at node {j})" if np.ndim(cond) else ""
        raise GraphBlowupError(
            f"{name} condition number {np.ravel(cond)[j]:.3e} exceeds cutoff{node}"
        )
    return np.linalg.inv(m)


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
    uinv = _vadj(_vdet_normalize(np.asarray(u, dtype=complex)))
    if route == "transport":
        return graph_slices(split, kit.ad_d(uinv[None]))
    a = kit.ad_g(uinv)
    if route == "invariant-split":
        c = split.shifted_maps
        return tensor_conjugate(c.e_shift, a) + c.r1, tensor_conjugate(c.t_shift, a) + c.r1
    if route == "cocycle":
        rho = split.preset.bialgebra.rho
        pi2 = tensor_conjugate(rho, a) - rho  # r2 cocycle at u^-1
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
    route: str = "transport",
) -> complex:
    """Sigma-model Lagrangian density < E_u(u^-1 u_+), u^-1 u_- >.

    ``xi_plus`` and ``xi_minus`` are the left-translated lightcone
    derivatives of the path as g coefficient vectors.
    """
    e = graph_inverse(graph_at(kit, split, u, route=route)[0], "E_u^-1")
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
    derivatives of the dual path as m coefficient vectors.
    """
    e_bar = graph_inverse(dual_graph_at(kit, split, t), "Ebar-hat_t^-1")
    return complex(
        np.asarray(phi_plus, dtype=complex) @ (e_bar @ np.asarray(phi_minus, dtype=complex))
    )


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

_EPS = np.zeros((3, 3, 3))
for _i in range(3):
    for _j in range(3):
        for _k in range(3):
            _EPS[_i, _j, _k] = (_i - _j) * (_j - _k) * (_k - _i) / 2.0


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
    pi = su2_pi_vector(u)
    return (-2.0 * (np.eye(3) + 1j * np.einsum("ijk,k->ij", _EPS, pi))).T


def su2_e_closed(u: np.ndarray) -> np.ndarray:
    """Closed-form inverse E_u (m -> g reversed) of :func:`su2_e_inv_closed`."""
    pi = su2_pi_vector(u)
    pi2 = float(pi @ pi)
    m = (
        np.eye(3)
        - 1j * np.einsum("ijk,k->ij", _EPS, pi)
        - np.outer(pi, pi)
    ) / (-2.0 * (1.0 - pi2))
    return m.T


def su2_dual_pi_vector(t_vec: np.ndarray) -> np.ndarray:
    """pi-hat = 2 t + (0, 0, t.t) in dual vector coordinates."""
    return 2.0 * np.asarray(t_vec, dtype=float) + np.array(
        [0.0, 0.0, float(t_vec @ t_vec)]
    )


def su2_dual_e_inv_closed(t_vec: np.ndarray) -> np.ndarray:
    """Closed-form Ebar-hat_t^-1 = -1/2 (delta + i eps pi-hat) (g -> m)."""
    ph = su2_dual_pi_vector(t_vec)
    return -0.5 * (np.eye(3) + 1j * np.einsum("ijk,k->ij", _EPS, ph))


def su2_dual_e_closed(t_vec: np.ndarray) -> np.ndarray:
    ph = su2_dual_pi_vector(t_vec)
    ph2 = float(ph @ ph)
    return (
        np.eye(3) - 1j * np.einsum("ijk,k->ij", _EPS, ph) - np.outer(ph, ph)
    ) * (-2.0 / (1.0 - ph2))


# ---- reports ----------------------------------------------------------------


def validation_report(preset: ModelPreset, samples: int = 5, seed: int = 0) -> dict:
    """All structural residuals for one preset, as a flat name -> value map."""
    b = preset.bialgebra
    double = build_double(b)
    split = splitting(preset)
    kit = GroupKit(b)
    iso_morphism, iso_pairing = chiral_iso_defects(double)
    rng = np.random.default_rng(seed)
    route_gap = 0.0
    for _ in range(samples):
        u = kit.exp_g(rng.normal(size=b.g.dim) * 0.5)
        graphs = [graph_at(kit, split, u, route=r) for r in
                  ("transport", "invariant-split", "cocycle")]
        for g2 in graphs[1:]:
            route_gap = max(
                route_gap, float(np.max(np.abs(np.subtract(graphs[0], g2)))))
    diag_plus, diag_minus = split.diagonal_pairing_defects()
    residuals = {
        "cybe": cybe_residual(b.g, b.rho),
        "symmetric_part_invariance": symmetric_part_invariance_residual(b.g, b.rho),
        "cobracket_cocycle": cocycle_residual(b),
        "dual_jacobi": jacobi_residual(dual_algebra(b)),
        "double_jacobi": jacobi_residual(double.algebra),
        "pairing_ad_invariance": pairing_ad_invariance_residual(double),
        "chiral_iso_morphism": iso_morphism,
        "chiral_iso_pairing": iso_pairing,
        "splitting_orthogonality": split.orthogonality_defect(),
        "splitting_diagonal_plus": diag_plus,
        "splitting_diagonal_minus": diag_minus,
        "splitting_projectors": split.projector_defects(),
        "graph_route_agreement": route_gap,
    }
    n = b.g.dim
    return {
        "preset": preset.name,
        "algebra": b.g.name,
        "lam": preset.lam,
        "mu": preset.mu,
        "split_denominator": preset.split_denominator,
        "subspace_rank_plus": int(np.linalg.matrix_rank(split.basis_plus)),
        "subspace_rank_minus": int(np.linalg.matrix_rank(split.basis_minus)),
        "expected_rank": n,
        "residuals": residuals,
        "max_residual": max(residuals.values()),
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
            e_bar = graph_inverse(dual_graph_at(kit, split, t), "Ebar-hat_t^-1")
            lag = phi_p @ (e_bar @ phi_m)
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
