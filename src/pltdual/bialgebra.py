"""Quasitriangular Lie bialgebras and their double Lie algebras.

Conventions used throughout (all verified by the test suite):

* An element rho of g (x) g is stored as its coefficient matrix,
  r = sum_ij rho[i, j] e_i (x) e_j.
* r2 is the map m -> g obtained by evaluating a dual vector against the
  *second* tensor slot, so r2(phi) has coefficients rho @ phi; r1
  evaluates against the first slot, giving rho.T @ phi.
* The symmetric part 2 r_+ = rho + rho.T is required ad-invariant and
  invertible; its inverse is the map K : g -> m.
* The cobracket is delta(xi) = A rho + rho A^T with A = ad_xi, kept for
  every basis vector as the stack :attr:`QuasiBialgebra.cobracket`, and
  the dual algebra m carries the opposite of the transpose bracket:
  the coefficient of f_k in [f_a, f_b] is -delta(e_k)[a, b].
* The double d = g (+) m has brackets
    [xi, eta]   = g-bracket,
    [phi, psi]  = m-bracket,
    [phi, xi]   = phi |> xi - phi <| xi,
  where phi |> xi = delta(xi) evaluated against phi in the *first* slot
  (a g-vector) and phi <| xi = the m-cobracket of phi evaluated against
  xi in the second slot (an m-vector).  The m-cobracket of f_a is the
  tensor with coefficients D_a[b, c] = c_g[b, c, a].  This is the unique
  sign choice for which the double satisfies the Jacobi identity and the
  pairing below is ad-invariant (both anchors are enforced in tests).
* The invariant pairing is <xi (+) phi, eta (+) psi> = phi(eta) + psi(xi);
  both factors are isotropic.  Its matrix is built by
  :func:`hyperbolic_pairing` and the chiral isomorphism d -> g_L (+) g_R
  by :func:`chiral_matrix`; every other module reuses these two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liecore import LieAlgebra, ad_matrix, bracket_coeffs

__all__ = [
    "QuasiBialgebra",
    "DoubleAlgebra",
    "cybe_residual",
    "symmetric_part_invariance_residual",
    "cobracket_matrix",
    "dual_algebra",
    "hyperbolic_pairing",
    "build_double",
    "chiral_matrix",
    "chiral_iso_defect",
    "pairing_ad_invariance_residual",
    "tensor_conjugate",
]


def cybe_residual(algebra: LieAlgebra, rho: np.ndarray) -> float:
    """Max-norm of [[r, r]] = [r12, r13] + [r12, r23] + [r13, r23]."""
    rho = np.asarray(rho, dtype=complex)
    c = algebra.c
    t1 = np.einsum("ij,kl,ikm->mjl", rho, rho, c)
    t2 = np.einsum("ij,kl,jkm->iml", rho, rho, c)
    t3 = np.einsum("ij,kl,jlm->ikm", rho, rho, c)
    return float(np.max(np.abs(t1 + t2 + t3)))


def _basis_ads(algebra: LieAlgebra) -> np.ndarray:
    """The matrices ad_{e_i} = c[i]^T of every basis vector, stacked."""
    return np.swapaxes(algebra.c, -1, -2)


def _ad_act(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(a (x) 1 + 1 (x) a) t = a t + t a^T on two-tensor coefficient
    matrices; leading axes of ``a`` and ``t`` broadcast."""
    return a @ t + t @ np.swapaxes(a, -1, -2)


def symmetric_part_invariance_residual(algebra: LieAlgebra, rho: np.ndarray) -> float:
    """Ad-invariance defect of the symmetric part rho + rho.T."""
    s = np.asarray(rho, dtype=complex)
    return float(np.max(np.abs(_ad_act(_basis_ads(algebra), s + s.T))))


def cobracket_matrix(algebra: LieAlgebra, rho: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Coefficient matrix of delta(xi) = (ad_xi (x) 1 + 1 (x) ad_xi) r."""
    return _ad_act(ad_matrix(algebra, xi), np.asarray(rho, dtype=complex))


def dual_algebra(bialgebra: "QuasiBialgebra") -> LieAlgebra:
    """The dual m with bracket dual to the cobracket (opposite twist)."""
    g = bialgebra.g
    labels = tuple(f"{lab}*" for lab in g.labels)
    return LieAlgebra(-np.moveaxis(bialgebra.cobracket, 0, -1), labels,
                      name=f"{g.name}*" if g.name else "dual")


@dataclass
class QuasiBialgebra:
    """A Lie algebra with a classical r-matrix of invertible symmetric part."""

    g: LieAlgebra
    rho: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (self.g.dim, self.g.dim):
            raise ValueError("r-matrix has wrong shape")

    @cached_property
    def cobracket(self) -> np.ndarray:
        """delta(e_k) of every basis vector, stacked as (n, n, n) with the
        basis index first."""
        return _ad_act(_basis_ads(self.g), self.rho)

    @cached_property
    def m(self) -> LieAlgebra:
        return dual_algebra(self)

    @cached_property
    def kinv_matrix(self) -> np.ndarray:
        """Coefficient matrix of 2 r_+ (the inverse of K), as m -> g."""
        return self.rho + self.rho.T

    @cached_property
    def k_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.kinv_matrix)

    def rescaled(self, factor: complex, name: str = "") -> "QuasiBialgebra":
        """Same algebra with r multiplied by a scalar (still a CYBE solution)."""
        return QuasiBialgebra(self.g, self.rho * factor, name or self.name)


@dataclass
class DoubleAlgebra:
    """The double d = g (+) m with the matrix of its hyperbolic pairing."""

    base: QuasiBialgebra
    algebra: LieAlgebra
    pairing: np.ndarray


def hyperbolic_pairing(n: int) -> np.ndarray:
    """Matrix of <xi (+) phi, eta (+) psi> = phi(eta) + psi(xi) on g (+) m."""
    p = np.zeros((2 * n, 2 * n), dtype=complex)
    p[:n, n:] = np.eye(n)
    p[n:, :n] = np.eye(n)
    return p


def build_double(bialgebra: QuasiBialgebra) -> DoubleAlgebra:
    g, m = bialgebra.g, bialgebra.m
    n = g.dim
    c = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
    c[:n, :n, :n] = g.c
    c[n:, n:, n:] = m.c
    # [f_a, e_j] = f_a |> e_j - f_a <| e_j: delta(e_j)[a] in g and
    # -c_g[k, j, a] in m
    c[n:, :n, :n] = np.swapaxes(bialgebra.cobracket, 0, 1)
    c[n:, :n, n:] = -g.c.T
    c[:n, n:] = -np.swapaxes(c[n:, :n], 0, 1)
    labels = g.labels + m.labels
    double = LieAlgebra(c, labels, name=f"D({g.name})" if g.name else "double")
    return DoubleAlgebra(bialgebra, double, hyperbolic_pairing(n))


def pairing_ad_invariance_residual(double: DoubleAlgebra) -> float:
    """Defect of <[w, x], y> + <x, [w, y]> = 0 over basis w."""
    a, p = _basis_ads(double.algebra), double.pairing
    return float(np.max(np.abs(np.swapaxes(a, -1, -2) @ p + p @ a)))


def direct_sum_algebra(g: LieAlgebra) -> LieAlgebra:
    """g (+) g with componentwise brackets (left/right chiral copies)."""
    n = g.dim
    c = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
    c[:n, :n, :n] = g.c
    c[n:, n:, n:] = g.c
    labels = tuple(f"{lab}_L" for lab in g.labels) + tuple(
        f"{lab}_R" for lab in g.labels
    )
    return LieAlgebra(c, labels, name=f"{g.name}(+){g.name}" if g.name else "sum")


def chiral_matrix(rho: np.ndarray) -> np.ndarray:
    """Matrix of the isomorphism d -> g_L (+) g_R,
    xi (+) phi -> (xi + r2 phi, xi - r1 phi), for the r-matrix ``rho``."""
    eye = np.eye(rho.shape[0])
    return np.block([[eye, rho], [eye, -rho.T]])


def chiral_iso_defect(double: DoubleAlgebra) -> float:
    """Morphism defect of the chiral isomorphism: the map of
    :func:`chiral_matrix` must carry the bracket of the double to the
    componentwise bracket of g_L (+) g_R."""
    b = double.base
    mat = chiral_matrix(b.rho)
    # images of [e_i, e_j] against brackets of the images, over all pairs
    lhs = np.einsum("ijk,mk->ijm", double.algebra.c, mat)
    rhs = bracket_coeffs(direct_sum_algebra(b.g).c, mat.T[:, None, :], mat.T[None, :, :])
    return float(np.max(np.abs(lhs - rhs)))


def tensor_conjugate(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Apply a (x) a to a two-tensor coefficient matrix."""
    return a @ t @ a.T
