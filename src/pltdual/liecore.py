"""Finite-dimensional Lie algebras over complex structure constants.

An algebra of dimension n is stored as a dense complex array c of shape
(n, n, n) with the convention

    [e_i, e_j] = sum_k c[i, j, k] e_k.

Vectors, operators between algebras and bilinear forms are thin wrappers
around numpy arrays; all numerics stay in plain ndarray land.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LieAlgebra",
    "AlgebraVector",
    "LinearOperator",
    "BilinearForm",
    "bracket",
    "jacobi_residual",
    "antisymmetry_residual",
    "ad_operator",
    "ad_matrix",
    "pair",
    "reality_defect",
    "algebra_to_json",
    "algebra_from_json",
]


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by structure constants.

    ``c[i, j, k]`` is the coefficient of ``e_k`` in ``[e_i, e_j]``.
    ``labels`` names the basis vectors for reports and serialization.
    """

    c: np.ndarray
    labels: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        n = c.shape[0]
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants must be cubic, got {c.shape}")
        if len(self.labels) != n:
            raise ValueError("label count must match dimension")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def vector(self, coeffs) -> "AlgebraVector":
        return AlgebraVector(self, np.asarray(coeffs, dtype=complex))

    def basis_vector(self, i: int) -> "AlgebraVector":
        v = np.zeros(self.dim, dtype=complex)
        v[i] = 1.0
        return AlgebraVector(self, v)

    def zero(self) -> "AlgebraVector":
        return AlgebraVector(self, np.zeros(self.dim, dtype=complex))


@dataclass
class AlgebraVector:
    """An element of a Lie algebra, stored as basis coefficients."""

    algebra: LieAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.algebra.dim,):
            raise ValueError("coefficient vector has wrong length")

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        _same_algebra(self.algebra, other.algebra)
        return AlgebraVector(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        _same_algebra(self.algebra, other.algebra)
        return AlgebraVector(self.algebra, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "AlgebraVector":
        return AlgebraVector(self.algebra, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraVector":
        return AlgebraVector(self.algebra, -self.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass
class LinearOperator:
    """A linear map between (possibly different) Lie algebras.

    ``matrix[i, j]`` is the coefficient of the i-th target basis vector in
    the image of the j-th source basis vector, so images of coefficient
    vectors are plain matrix-vector products.
    """

    source: LieAlgebra
    target: LieAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError("operator matrix has wrong shape")

    def __call__(self, v: AlgebraVector) -> AlgebraVector:
        _same_algebra(v.algebra, self.source)
        return AlgebraVector(self.target, self.matrix @ v.coeffs)

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        _same_algebra(other.target, self.source)
        return LinearOperator(other.source, self.target, self.matrix @ other.matrix)

    def inverse(self, cond_cutoff: float = 1e8) -> "LinearOperator":
        if np.linalg.cond(self.matrix) > cond_cutoff:
            raise np.linalg.LinAlgError("operator is numerically singular")
        return LinearOperator(self.target, self.source, np.linalg.inv(self.matrix))


@dataclass
class BilinearForm:
    """A bilinear form B(x, y) = x^T M y on a pair of algebras."""

    left: LieAlgebra
    right: LieAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.left.dim, self.right.dim):
            raise ValueError("form matrix has wrong shape")

    def __call__(self, x: AlgebraVector, y: AlgebraVector) -> complex:
        _same_algebra(x.algebra, self.left)
        _same_algebra(y.algebra, self.right)
        return complex(x.coeffs @ self.matrix @ y.coeffs)


def _same_algebra(a: LieAlgebra, b: LieAlgebra) -> None:
    if a is b:
        return
    if a.dim != b.dim or not np.array_equal(a.c, b.c):
        raise ValueError("algebra mismatch")


def bracket(x: AlgebraVector, y: AlgebraVector) -> AlgebraVector:
    """[x, y] via the structure-constant contraction."""
    _same_algebra(x.algebra, y.algebra)
    c = x.algebra.c
    out = np.einsum("i,j,ijk->k", x.coeffs, y.coeffs, c)
    return AlgebraVector(x.algebra, out)


def bracket_coeffs(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficient-level bracket for hot loops (no wrapper objects); leading
    axes of ``x`` and ``y`` broadcast."""
    return np.einsum("...i,...j,ijk->...k", x, y, c)


def ad_matrix(algebra: LieAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix A of ad_x with A[m, k] = coefficient of e_m in [x, e_k]."""
    # [x, e_k] = sum_i x_i c[i, k, m] e_m
    return np.einsum("i,ikm->mk", np.asarray(x, dtype=complex), algebra.c)


def ad_operator(x: AlgebraVector) -> LinearOperator:
    return LinearOperator(x.algebra, x.algebra, ad_matrix(x.algebra, x.coeffs))


def antisymmetry_residual(algebra: LieAlgebra) -> float:
    return float(np.max(np.abs(algebra.c + np.swapaxes(algebra.c, 0, 1))))


def jacobi_residual(algebra: LieAlgebra) -> float:
    """Max-norm of the cyclic Jacobi sum over all basis triples."""
    c = algebra.c
    # [[e_i, e_j], e_k] = c[i, j, m] c[m, k, l]
    t = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.max(np.abs(cyc)))


def pair(form: BilinearForm, x: AlgebraVector, y: AlgebraVector) -> complex:
    return form(x, y)


def reality_defect(algebra: LieAlgebra) -> float:
    """Largest imaginary part of the structure constants (diagnostic)."""
    return float(np.max(np.abs(algebra.c.imag)))


def algebra_to_json(algebra: LieAlgebra) -> str:
    """Serialize as dimension, labels and sparse [i, j, k, re, im] tuples."""
    entries = []
    n = algebra.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                z = algebra.c[i, j, k]
                if z != 0:
                    entries.append([i, j, k, float(z.real), float(z.imag)])
    payload = {
        "dim": n,
        "labels": list(algebra.labels),
        "name": algebra.name,
        "structure_constants": entries,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def algebra_from_json(text: str) -> LieAlgebra:
    payload = json.loads(text)
    n = int(payload["dim"])
    c = np.zeros((n, n, n), dtype=complex)
    for i, j, k, re, im in payload["structure_constants"]:
        c[i, j, k] = complex(re, im)
    return LieAlgebra(c, tuple(payload["labels"]), payload.get("name", ""))
