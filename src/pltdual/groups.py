"""Group-level machinery for the double of a quasitriangular bialgebra.

The connected double group is realized as pairs (k_L, k_R) of 2x2
unimodular matrices through the two chiral homomorphisms of the double
algebra,

    L(xi (+) phi) = xi + r2 phi,      R(xi (+) phi) = xi - r1 phi,

which are injective jointly.  G sits diagonally (k_L = k_R = u) and the
dual group M is generated by exponentials of (r2 phi, -r1 phi).  In this
realization adjoint actions, exponentials, dressing cocycles and the
Poisson cocycles Pi / Pi-hat are all exact linear algebra; no numerical
differentiation is needed (finite differences survive only as oracles in
the test suite).

For su2 the k_L chiral factor of M is upper triangular with positive
diagonal, so the factorization D = G.M is the Iwasawa (QR) decomposition
of k_L.  For sl2r the factorization is local and LU-based; leaving the
factorisable chart raises :class:`FactorizationError`.

The 2x2 kernels, the coefficient maps, the adjoint actions and the
factorizations act on stacks: leading axes (the grid nodes of a loop)
broadcast, and a single matrix is a stack of one.  Each operation on the
double group has one method, which takes the chiral components as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bialgebra import QuasiBialgebra, chiral_matrix, tensor_conjugate

__all__ = [
    "DoubleElement",
    "GroupKit",
    "FactorizationError",
    "expm2",
    "rkmk4",
]


class FactorizationError(RuntimeError):
    """Raised when a group factorization leaves its valid chart."""


# ---- stacked 2x2 kernels (leading axes broadcast) ------------------------------


def _det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _vinv(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out / _det2(m)[..., None, None]


def _vdet_normalize(m: np.ndarray) -> np.ndarray:
    return m / np.sqrt(_det2(m))[..., None, None]


def _vcond(m: np.ndarray) -> np.ndarray:
    """2-norm condition number sigma_1 / sigma_2, in closed form from
    sigma_1^2 + sigma_2^2 = |m|_F^2 and sigma_1 sigma_2 = |det m|."""
    f = np.sum(np.abs(m) ** 2, axis=(-2, -1))
    d = np.abs(_det2(m))
    return (f + np.sqrt(np.maximum(f * f - 4.0 * d * d, 0.0))) / (2.0 * d)


def _entry_products(u: np.ndarray) -> np.ndarray:
    """The 16 products u_ab (u^-1)_cd, flattened over (a, b, c, d)."""
    pairs = u[..., :, :, None, None] * _vinv(u)[..., None, None, :, :]
    return pairs.reshape(u.shape[:-2] + (16,))


def _vcomm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _vdexpinv(sigma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dexp^-1_sigma(v) truncated after the double commutator (order-4 ok)."""
    c1 = _vcomm(sigma, v)
    return v - 0.5 * c1 + _vcomm(sigma, c1) / 12.0


def _check_chart(bad: np.ndarray, message: str) -> None:
    """Raise :class:`FactorizationError` naming the first node where ``bad`` holds."""
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise FactorizationError(f"{message} (first at node {j})")


def expm2(x: np.ndarray) -> np.ndarray:
    """Closed-form exponential of traceless 2x2 matrices, stacked over the
    leading axes: cosh(theta) 1 + sinh(theta)/theta x with theta^2 = -det x."""
    x = np.asarray(x, dtype=complex)
    theta2 = -_det2(x)
    theta = np.sqrt(theta2)
    small = np.abs(theta) < 1e-6
    if small.any():
        # series for cosh(theta) and sinh(theta)/theta, accurate to ~1e-38,
        # where theta is small; sinh(theta)/theta only where it is not
        safe = np.where(small, 1.0, theta)
        c = np.where(small, 1 + theta2 * (1 / 2 + theta2 * (1 / 24 + theta2 / 720)), np.cosh(safe))
        s = np.where(small, 1 + theta2 * (1 / 6 + theta2 * (1 / 120 + theta2 / 5040)),
                     np.sinh(safe) / safe)
    else:
        c = np.cosh(theta)
        s = np.sinh(theta) / theta
    out = s[..., None, None] * x
    out[..., 0, 0] += c
    out[..., 1, 1] += c
    return out


def rkmk4(gens, y0: np.ndarray, p0, dt: float):
    """One fourth-order Runge-Kutta-Munthe-Kaas step (Munthe-Kaas, Appl.
    Numer. Math. 29, 1999) of dy/dt y^-1 = A(y, p), dp/dt = P(y, p).

    ``y0`` is a stack of unimodular 2x2 matrices, ``p0`` an additive
    vector and ``gens(y, p)`` returns (A, P).  Each stage reaches its
    point through the exponential of the algebra increment and pulls the
    generator back by dexp^-1, so y stays on its group; returns (y1, p1).
    """
    a1, k1 = gens(y0, p0)
    # the first stage sits at sigma = 0, where exp and dexp^-1 are identities
    a2, k2 = gens(expm2(0.5 * dt * a1) @ y0, p0 + 0.5 * dt * k1)
    b2 = _vdexpinv(0.5 * dt * a1, a2)
    a3, k3 = gens(expm2(0.5 * dt * b2) @ y0, p0 + 0.5 * dt * k2)
    b3 = _vdexpinv(0.5 * dt * b2, a3)
    a4, k4 = gens(expm2(dt * b3) @ y0, p0 + dt * k3)
    b4 = _vdexpinv(dt * b3, a4)
    y1 = expm2((dt / 6.0) * (a1 + 2 * b2 + 2 * b3 + b4)) @ y0
    # renormalize the determinant only: the flow is holomorphic in
    # SL(2, C) and need not stay on a compact real form, so a polar
    # projection would alter the dynamics rather than remove roundoff
    return _vdet_normalize(y1), p0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


@dataclass
class DoubleElement:
    """An element of the double group as a chiral pair of 2x2 matrices."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        self.left = np.asarray(self.left, dtype=complex)
        self.right = np.asarray(self.right, dtype=complex)

    def __matmul__(self, other: "DoubleElement") -> "DoubleElement":
        return DoubleElement(self.left @ other.left, self.right @ other.right)

    def inverse(self) -> "DoubleElement":
        return DoubleElement(_vinv(self.left), _vinv(self.right))

    def distance(self, other: "DoubleElement") -> float:
        return float(
            np.linalg.norm(self.left - other.left)
            + np.linalg.norm(self.right - other.right)
        )

    @staticmethod
    def identity() -> "DoubleElement":
        return DoubleElement(np.eye(2, dtype=complex), np.eye(2, dtype=complex))

    @staticmethod
    def from_group(u: np.ndarray) -> "DoubleElement":
        u = np.asarray(u, dtype=complex)
        return DoubleElement(u, u.copy())


_SU2_BASIS = np.array(
    [
        [[0.0, -0.5j], [-0.5j, 0.0]],
        [[0.0, -0.5], [0.5, 0.0]],
        [[-0.5j, 0.0], [0.0, 0.5j]],
    ],
    dtype=complex,
)

_SL2R_BASIS = np.array(
    [
        [[1.0, 0.0], [0.0, -1.0]],
        [[0.0, 1.0], [0.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0]],
    ],
    dtype=complex,
)


class GroupKit:
    """Exact group operations for the double of one bialgebra model."""

    def __init__(self, bialgebra: QuasiBialgebra, cond_cutoff: float = 1e8):
        self.b = bialgebra
        self.cond_cutoff = cond_cutoff
        name = bialgebra.g.name
        if name.startswith("su2"):
            self.flavor = "su2"
            self.basis = _SU2_BASIS
        elif name.startswith("sl2r"):
            self.flavor = "sl2r"
            self.basis = _SL2R_BASIS
        else:
            raise ValueError(f"no matrix realization for algebra '{name}'")
        n = bialgebra.g.dim
        # decomposition of traceless 2x2 matrices in the g-basis
        cols = np.stack(
            [np.array([e[0, 0], e[0, 1], e[1, 0]]) for e in self.basis], axis=1
        )
        self._demat = np.linalg.inv(cols)
        # chiral projection matrices d -> g (L and R) and their joint inverse
        self.chi = chiral_matrix(bialgebra.rho)
        self.chi_inv = np.linalg.inv(self.chi)
        # Ad_u on g is bilinear in the entries of u and u^-1:
        # (Ad_u)_ij = sum u_ab (e_j)_bc (u^-1)_cd C_iad, where C maps the
        # (a, d) entry of a traceless matrix to its coefficient i
        entry_coeffs = np.zeros((n, 2, 2), dtype=complex)
        entry_coeffs[:, 0, 0], entry_coeffs[:, 0, 1], entry_coeffs[:, 1, 0] = self._demat.T
        self._ad_g_map = np.einsum("jbc,iad->abcdij", self.basis, entry_coeffs).reshape(16, 9)
        # Ad_{u^-1} reads the same 16 products with the (u, u^-1) slots swapped
        swapped = self._ad_g_map.reshape(2, 2, 2, 2, 9).transpose(2, 3, 0, 1, 4).reshape(16, 9)
        self._ad_g_pair_map = np.hstack([swapped, self._ad_g_map])
        # Ad_k on the double is chi^-1 diag(Ad_kL, Ad_kR) chi, linear in both blocks
        blocks = np.einsum("ia,bj->abij", self.chi_inv, self.chi)
        self._ad_d_maps = (blocks[:n, :n].reshape(9, 36), blocks[n:, n:].reshape(9, 36))

    # ---- algebra <-> matrix ------------------------------------------------

    def mat(self, xi: np.ndarray) -> np.ndarray:
        return np.einsum("...i,ijk->...jk", np.asarray(xi, dtype=complex), self.basis)

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        entries = np.stack([m[..., 0, 0], m[..., 0, 1], m[..., 1, 0]], axis=-1)
        return entries @ self._demat.T

    def chiral_mats(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pair of 2x2 matrices representing a double-algebra element."""
        z = np.asarray(w, dtype=complex) @ self.chi.T
        n = self.b.g.dim
        return self.mat(z[..., :n]), self.mat(z[..., n:])

    @cached_property
    def particle_stack_map(self) -> np.ndarray:
        """12 x 6 map of (xi, phi) in g (+) m to the entries of the stack
        (mat(xi)^T, L(phi), R(phi)), the generators of the particle's
        (u^T, a.left, a.right) for u^-1 du = xi and da a^-1 = phi."""
        n = self.b.g.dim
        entries = self.basis.reshape(n, 4).T
        out = np.zeros((12, 2 * n), dtype=complex)
        out[:4, :n] = self.basis.transpose(0, 2, 1).reshape(n, 4).T
        out[4:8, n:] = entries @ self.chi[:n, n:]
        out[8:, n:] = entries @ self.chi[n:, n:]
        return out

    def tangent_coeffs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`chiral_mats` (a 6-vector of d-coefficients)."""
        z = np.concatenate([self.coeffs(left), self.coeffs(right)], axis=-1)
        return z @ self.chi_inv.T

    # ---- exponentials (stacked over leading axes) ----------------------------

    def exp_g(self, xi: np.ndarray) -> np.ndarray:
        return expm2(self.mat(xi))

    def exp_m(self, phi: np.ndarray) -> DoubleElement:
        phi = np.asarray(phi, dtype=complex)
        return self.exp_d(np.concatenate([np.zeros_like(phi), phi], axis=-1))

    def exp_d(self, w: np.ndarray) -> DoubleElement:
        lm, rm = self.chiral_mats(w)
        return DoubleElement(expm2(lm), expm2(rm))

    # ---- adjoint actions ---------------------------------------------------

    def ad_g(self, u: np.ndarray) -> np.ndarray:
        """3x3 matrix of Ad_u on g (and its complexification)."""
        u = np.asarray(u, dtype=complex)
        lead = u.shape[:-2]
        return (_entry_products(u) @ self._ad_g_map).reshape(lead + (3, 3))

    def ad_g_pair(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Ad_{u^-1}, Ad_u) on g from one set of products of the entries of
        u and u^-1."""
        lead = u.shape[:-2]
        both = (_entry_products(u) @ self._ad_g_pair_map).reshape(lead + (2, 3, 3))
        return both[..., 0, :, :], both[..., 1, :, :]

    def ad_d(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """6x6 matrix of Ad_k on the double for the stacked chiral pairs
        k = (left, right), exact via the chiral pair.

        Passing the same array twice (a G-valued field) computes Ad_u on
        g once.
        """
        al = self.ad_g(left)
        ar = al if right is left else self.ad_g(right)
        lead = al.shape[:-2]
        map_l, map_r = self._ad_d_maps
        flat = al.reshape(lead + (9,)) @ map_l + ar.reshape(lead + (9,)) @ map_r
        return flat.reshape(lead + (6, 6))

    # ---- Poisson / dressing cocycles ----------------------------------------

    def pi(self, u: np.ndarray) -> np.ndarray:
        """Pi(u) = Ad_u r - r as a g(x)g coefficient matrix (m -> g map)."""
        a = self.ad_g(u)
        return tensor_conjugate(self.b.rho, a) - self.b.rho

    def b_cocycle(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The dressing derivative of M acting on u, left-translated to g.

        Equals the derivative at e of the G-factor of exp(eps phi) u times
        u^-1; the closed form -Pi(u) phi is verified against Richardson-
        extrapolated finite differences in the tests.
        """
        return -self.pi(u) @ np.asarray(phi, dtype=complex)

    def hat_pi(self, t: DoubleElement) -> np.ndarray:
        """Pi-hat(t) for t in M, as an m(x)m coefficient matrix (g -> m map).

        Built exactly from the double adjoint action: the m-component of
        Ad_{t^-1} on g measures the dressing cocycle, transported back
        with Ad_t.
        """
        n = self.b.g.dim
        adt = self.ad_d(t.left, t.right)
        adtinv = self.ad_d(_vinv(t.left), _vinv(t.right))
        return adt[n:, n:] @ adtinv[n:, :n]

    # ---- factorization -----------------------------------------------------

    def factorize_gm(
        self, left: np.ndarray, right: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split the stacked chiral pairs k = u s, u in G and s in M, as
        (u, s_left, s_right).

        Both flavors factor through the triangular decomposition of
        z = k_R^-1 k_L = s_R^-1 s_L: the M factor has an upper-triangular
        left component and a lower-triangular right component with
        reciprocal diagonals, so z is (lower unitriangular)(diag)(upper)
        with diag = (x^2, x^-2).  This construction is holomorphic in the
        chiral components; on the compact real form (k_R = (k_L^+)^-1)
        it coincides with the phase-fixed QR of k_L, but the flows treated
        here are holomorphic and need not stay on the real form, where QR
        would silently return a non-M second factor.  Every chart check
        is elementwise and names the first failing node.
        """
        z = _vinv(right) @ left
        _check_chart(np.abs(z[..., 0, 0]) < 1e-12, "factorization chart: zero pivot")
        l21 = z[..., 1, 0] / z[..., 0, 0]
        d1 = z[..., 0, 0]
        d2 = z[..., 1, 1] - l21 * z[..., 0, 1]
        if self.flavor == "sl2r":
            _check_chart(
                (d1.real <= 0) | (np.abs(d1.imag) > 1e-8 * np.abs(d1)),
                "sl2r factorization chart: diagonal left identity component",
            )
        _check_chart(np.abs(d1 * d2 - 1.0) > 1e-6, "element left the double group (det drift)")
        # principal branch: positive real on (and continuously near) the
        # locus where d1 is positive real, e.g. the compact real form
        sq1 = np.sqrt(d1.astype(complex))
        s_left = np.zeros(z.shape, dtype=complex)
        s_left[..., 0, 0] = sq1
        s_left[..., 0, 1] = z[..., 0, 1] / sq1
        s_left[..., 1, 1] = 1.0 / sq1
        u = left @ _vinv(s_left)
        # written so that a non-finite node fails too
        _check_chart(~(_vcond(s_left) <= self.cond_cutoff), "factorization is numerically singular")
        s_right = _vinv(u) @ right
        return u, s_left, s_right

    def factorize_mg(
        self, left: np.ndarray, right: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split the stacked chiral pairs k = t v, t in M and v in G, as
        (t_left, t_right, v), via k^-1 = v^-1 t^-1."""
        uprime, sl, sr = self.factorize_gm(_vinv(left), _vinv(right))
        return _vinv(sl), _vinv(sr), _vinv(uprime)

    # ---- dual group in vector coordinates (su2 only) ------------------------

    @cached_property
    def dual_scale(self) -> float:
        """The r-rescale factor, read off from the model's rho.

        Vector coordinates are provided for real positive rescalings only
        (the limiting families); other variants use the chiral pair form.
        """
        base = -1.0  # rho[0,0] of the unscaled su2 r-matrix
        c = self.b.rho[0, 0] / base
        if abs(c.imag) > 1e-12 or c.real <= 0:
            raise ValueError("vector coordinates need a real positive r-rescale")
        return float(c.real)

    def su2star_from_vector(self, s: np.ndarray) -> DoubleElement:
        """Vector coordinates (law s.t = s + (1 + c s3) t) to chiral pair."""
        if self.flavor != "su2":
            raise ValueError("vector coordinates exist for the su2 dual only")
        c = self.dual_scale
        s = np.asarray(s, dtype=float)
        x = np.sqrt(1.0 + c * s[2])
        zl = c * (s[0] - 1j * s[1]) / x
        zr = -c * (s[0] + 1j * s[1]) / x
        left = np.array([[x, zl], [0.0, 1.0 / x]], dtype=complex)
        right = np.array([[1.0 / x, 0.0], [zr, x]], dtype=complex)
        return DoubleElement(left, right)

    def su2star_to_vector(self, t: DoubleElement) -> np.ndarray:
        if self.flavor != "su2":
            raise ValueError("vector coordinates exist for the su2 dual only")
        c = self.dual_scale
        x = t.left[0, 0]
        if abs(x.imag) > 1e-9 or x.real <= 0:
            raise FactorizationError("element is not in the dual-group chart")
        z = t.left[0, 1]
        w = z * x / c
        s = np.array([w.real, -w.imag, ((x * x - 1.0) / c).real])
        return s

    def su2star_exp_vector(self, w: np.ndarray) -> np.ndarray:
        """Exponential coordinates to vector coordinates."""
        c = self.dual_scale
        w = np.asarray(w, dtype=float)
        a = c * w[2]
        if abs(a) < 1e-12:
            f = 1.0 + a / 2 + a * a / 6
        else:
            f = (np.exp(a) - 1.0) / a
        return w * f.real

    def su2star_nabla(self, s: np.ndarray, sdot: np.ndarray) -> np.ndarray:
        """Right-translated velocity t_dot t^-1 in vector coordinates."""
        c = self.dual_scale
        n3 = sdot[2] / (1.0 + c * s[2])
        return sdot - (c * n3) * s
