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

An element k of the double is one array, the chiral stack
``k[..., side, :, :]`` with the side axis at -3 (side 0 = k_L, 1 = k_R);
a double-algebra element is represented by the same stack of traceless
matrices.  Products, inverses and derivatives act on both sides at once,
and leading axes (the grid nodes of a loop) broadcast.  A G-valued u,
which sits diagonally, enters as ``u[..., None, :, :]``, a side axis of
length one that broadcasts over both sides.  Each operation on the
double group has one method, which takes and returns chiral stacks.

Every element of G, M or the double is unimodular (the steppers normalize
the determinant, the factorizations build unit determinants), and the
operations here assume it of their inputs: the one inverse is the adjugate
:func:`_vadj` and the one chart margin :func:`_unimodular_cond`.  A public
entry point that takes a caller's matrix normalizes it once.

The stacked 2x2 kernels are closed forms: a traceless x squares to
theta^2 1 with theta^2 = -det x, which gives the exponential and the
dexp^-1 of :func:`rkmk4` without series in commutators or in theta.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bialgebra import QuasiBialgebra, chiral_matrix, tensor_conjugate

__all__ = [
    "COND_CUTOFF",
    "GroupKit",
    "FactorizationError",
    "expm2",
    "rkmk4",
]


# largest condition number at which a factor or graph map still counts
# as inside its chart
COND_CUTOFF = 1e8


class FactorizationError(RuntimeError):
    """Raised when a group factorization leaves its valid chart."""


# ---- stacked 2x2 kernels (leading axes broadcast) ------------------------------


def _det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _theta2(x: np.ndarray) -> np.ndarray:
    """theta^2 of traceless x, x^2 = theta^2 1: the exact negation of det x."""
    return x[..., 0, 1] * x[..., 1, 0] - x[..., 0, 0] * x[..., 1, 1]


_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _vadj(m: np.ndarray) -> np.ndarray:
    """The adjugate, det(m) m^-1; the inverse itself on unimodular stacks."""
    return m[..., ::-1, ::-1].swapaxes(-1, -2) * _ADJ_SIGNS


# operands of at most this many entries each keep numpy's @, which beats
# the broadcast on small stacks such as the particle's (3, 2, 2)
_VMUL_AT_MOST = 64


def _vmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices, leading axes broadcasting.

    numpy's stacked 2x2 @ costs about the same per matrix at every stack
    size; the two-term broadcast over the inner index is several times
    cheaper on node-sized stacks and agrees with it at roundoff.
    """
    if a.size <= _VMUL_AT_MOST and b.size <= _VMUL_AT_MOST:
        return a @ b
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def _vdet_normalize(m: np.ndarray) -> np.ndarray:
    return m / np.sqrt(_det2(m))[..., None, None]


def _unimodular_cond(f):
    """2-norm condition number sigma_1 / sigma_2 of a unimodular 2x2 matrix
    from f = |m|_F^2, since sigma_1^2 + sigma_2^2 = f and sigma_1 sigma_2
    = 1; a NaN f gives NaN.  Takes a float or an array of them."""
    return (f + np.sqrt(np.maximum(f * f - 4.0, 0.0))) / 2.0


def _entry_products(u: np.ndarray, u_inv: np.ndarray) -> np.ndarray:
    """The 16 products u_ab (u^-1)_cd, flattened over (a, b, c, d)."""
    pairs = u[..., :, :, None, None] * u_inv[..., None, None, :, :]
    return pairs.reshape(u.shape[:-2] + (16,))


_EYE2 = np.eye(2)
_HALF_EYE2 = 0.5 * _EYE2


def _vdexpinv(sigma: np.ndarray, v: np.ndarray, theta2: np.ndarray | None = None) -> np.ndarray:
    """dexp^-1_sigma(v) = v - [sigma, v]/2 + [sigma, [sigma, v]]/12, truncated
    after the double commutator (order-4 ok), for traceless sigma and v.

    sigma^2 = theta^2 1 gives [sigma, v] = 2 sigma v - tr(sigma v) 1 and
    [sigma, [sigma, v]] = 4 theta^2 v - 2 tr(sigma v) sigma, so the sum is
    (1 + theta^2/3) v - sigma v + tr(sigma v) (1/2 - sigma/6), with one
    product of the stacks by :func:`_vmul`.  ``theta2`` is
    :func:`_theta2` of sigma when the caller holds it.
    """
    if theta2 is None:
        theta2 = _theta2(sigma)
    sv = _vmul(sigma, v)
    tr = (sv[..., 0, 0] + sv[..., 1, 1])[..., None, None]
    return (1.0 + theta2[..., None, None] / 3.0) * v - sv + tr * (_HALF_EYE2 - sigma / 6.0)


def _check_chart(bad: np.ndarray, message: str) -> None:
    """Raise :class:`FactorizationError` naming the first node where ``bad`` holds."""
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise FactorizationError(f"{message} (first at node {j})")


def expm2(x: np.ndarray, theta2: np.ndarray | None = None) -> np.ndarray:
    """Closed-form exponential of traceless 2x2 matrices, stacked over the
    leading axes: cosh(theta) 1 + sinh(theta)/theta x with theta^2 =
    -det x, or ``theta2`` when the caller holds it (see :func:`_theta2`).

    sinh(theta)/theta and cosh(theta) are accurate in floating point for
    every nonzero theta, so no series is needed near 0; theta^2 = 0 is
    read as theta = 1e-150, where both round to exactly 1, so a zero or
    nilpotent x gives exactly 1 + x.
    """
    x = np.asarray(x, dtype=complex)
    if theta2 is None:
        theta2 = _theta2(x)
    theta = np.sqrt(np.where(theta2 == 0, 1e-300, theta2))
    c = np.cosh(theta)
    s = np.sinh(theta) / theta
    return c[..., None, None] * _EYE2 + s[..., None, None] * x


def rkmk4(gens, y0: np.ndarray, p0, dt: float):
    """One fourth-order Runge-Kutta-Munthe-Kaas step (Munthe-Kaas, Appl.
    Numer. Math. 29, 1999) of dy/dt y^-1 = A(y, p), dp/dt = P(y, p).

    ``y0`` is a stack of unimodular 2x2 matrices, ``p0`` an additive
    vector and ``gens(y, p)`` returns (A, P); A must be traceless, as the
    closed-form dexp^-1 assumes (both flows meet this).  Each stage
    reaches its point through the exponential of the algebra increment
    and pulls the generator back by dexp^-1, so y stays on its group;
    the stage's exponential and dexp^-1 share one theta^2 of the
    increment.  Returns (y1, p1).
    """
    a1, k1 = gens(y0, p0)
    # the first stage sits at sigma = 0, where exp and dexp^-1 are identities
    s2 = 0.5 * dt * a1
    t2 = _theta2(s2)
    a2, k2 = gens(_vmul(expm2(s2, t2), y0), p0 + 0.5 * dt * k1)
    b2 = _vdexpinv(s2, a2, t2)
    s3 = 0.5 * dt * b2
    t3 = _theta2(s3)
    a3, k3 = gens(_vmul(expm2(s3, t3), y0), p0 + 0.5 * dt * k2)
    b3 = _vdexpinv(s3, a3, t3)
    s4 = dt * b3
    t4 = _theta2(s4)
    a4, k4 = gens(_vmul(expm2(s4, t4), y0), p0 + dt * k3)
    b4 = _vdexpinv(s4, a4, t4)
    y1 = _vmul(expm2((dt / 6.0) * (a1 + 2 * b2 + 2 * b3 + b4)), y0)
    # renormalize the determinant only: the flow is holomorphic in
    # SL(2, C) and need not stay on a compact real form, so a polar
    # projection would alter the dynamics rather than remove roundoff
    return _vdet_normalize(y1), p0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


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

    def __init__(self, bialgebra: QuasiBialgebra):
        self.b = bialgebra
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

    def chiral_mats(self, w: np.ndarray) -> np.ndarray:
        """The chiral stack (..., side, 2, 2) of a double-algebra element."""
        z = np.asarray(w, dtype=complex) @ self.chi.T
        return self.mat(z.reshape(z.shape[:-1] + (2, self.b.g.dim)))

    @cached_property
    def particle_stack_map(self) -> np.ndarray:
        """12 x 6 map of (xi, phi) in g (+) m to the entries of the stack
        (mat(xi)^T, L(phi), R(phi)), the generators of the particle's
        (u^T, a_L, a_R) for u^-1 du = xi and da a^-1 = phi."""
        n = self.b.g.dim
        entries = self.basis.reshape(n, 4).T
        out = np.zeros((12, 2 * n), dtype=complex)
        out[:4, :n] = self.basis.transpose(0, 2, 1).reshape(n, 4).T
        out[4:8, n:] = entries @ self.chi[:n, n:]
        out[8:, n:] = entries @ self.chi[n:, n:]
        return out

    def tangent_coeffs(self, m: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`chiral_mats`: the d-coefficients (..., 2n) of a
        chiral stack of traceless matrices."""
        z = self.coeffs(m)
        return z.reshape(z.shape[:-2] + (-1,)) @ self.chi_inv.T

    # ---- exponentials (stacked over leading axes) ----------------------------

    def exp_g(self, xi: np.ndarray) -> np.ndarray:
        return expm2(self.mat(xi))

    def exp_m(self, phi: np.ndarray) -> np.ndarray:
        phi = np.asarray(phi, dtype=complex)
        return self.exp_d(np.concatenate([np.zeros_like(phi), phi], axis=-1))

    def exp_d(self, w: np.ndarray) -> np.ndarray:
        return expm2(self.chiral_mats(w))

    # ---- adjoint actions ---------------------------------------------------

    def ad_g(self, u: np.ndarray) -> np.ndarray:
        """3x3 matrix of Ad_u on g (and its complexification)."""
        u = np.asarray(u, dtype=complex)
        lead = u.shape[:-2]
        return (_entry_products(u, _vadj(u)) @ self._ad_g_map).reshape(lead + (3, 3))

    def ad_g_pair(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Ad_{u^-1}, Ad_u) on g from one set of products of the entries of
        u and u^-1, stacked over the leading axes."""
        lead = u.shape[:-2]
        both = _entry_products(u, _vadj(u)).dot(self._ad_g_pair_map).reshape(lead + (2, 3, 3))
        return both[..., 0, :, :], both[..., 1, :, :]

    def ad_d(self, k: np.ndarray) -> np.ndarray:
        """6x6 matrix of Ad_k on the double for the chiral stack k, exact
        via the chiral pair.

        A G-valued u passed as ``u[..., None, :, :]`` computes Ad_u on g
        once, for both sides.
        """
        a = self.ad_g(k)
        lead = a.shape[:-3]
        map_l, map_r = self._ad_d_maps
        flat = (a[..., 0, :, :].reshape(lead + (9,)) @ map_l
                + a[..., -1, :, :].reshape(lead + (9,)) @ map_r)
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

    def hat_pi(self, t: np.ndarray) -> np.ndarray:
        """Pi-hat(t) for t in M, as an m(x)m coefficient matrix (g -> m map).

        Built exactly from the double adjoint action: the m-component of
        Ad_{t^-1} on g measures the dressing cocycle, transported back
        with Ad_t.
        """
        n = self.b.g.dim
        adt = self.ad_d(t)
        adtinv = self.ad_d(_vadj(t))
        return adt[..., n:, n:] @ adtinv[..., n:, :n]

    # ---- factorization -----------------------------------------------------

    def factorize_gm(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split the chiral stack k = u s, u in G and s in M, as (u, s).

        Both flavors factor through the triangular decomposition of
        z = k_R^-1 k_L = s_R^-1 s_L: the M factor has an upper-triangular
        left component and a lower-triangular right component with
        reciprocal diagonals, so z is (lower unitriangular)(diag)(upper)
        with diag = (x^2, x^-2).  This construction is holomorphic in the
        chiral components; on the compact real form (k_R = (k_L^+)^-1)
        it coincides with the phase-fixed QR of k_L, but the flows treated
        here are holomorphic and need not stay on the real form, where QR
        would silently return a non-M second factor.  k_R^-1 is the
        adjugate, so the det-drift check comes first: each side's det
        within 2.5e-7 of 1 keeps det z, which the split takes as 1, within
        1e-6 of 1.  Every chart check is elementwise and names the first
        failing node.
        """
        drift = (np.abs(_det2(k) - 1.0) > 2.5e-7).any(axis=-1)
        _check_chart(drift, "element left the double group (det drift)")
        left = k[..., 0, :, :]
        z = _vmul(_vadj(k[..., 1, :, :]), left)
        _check_chart(np.abs(z[..., 0, 0]) < 1e-12, "factorization chart: zero pivot")
        d1 = z[..., 0, 0]
        if self.flavor == "sl2r":
            _check_chart(
                (d1.real <= 0) | (np.abs(d1.imag) > 1e-8 * np.abs(d1)),
                "sl2r factorization chart: diagonal left identity component",
            )
        # principal branch: positive real on (and continuously near) the
        # locus where d1 is positive real, e.g. the compact real form
        sq1 = np.sqrt(d1.astype(complex))
        s_left = np.zeros(z.shape, dtype=complex)
        s_left[..., 0, 0] = sq1
        s_left[..., 0, 1] = z[..., 0, 1] / sq1
        s_left[..., 1, 1] = 1.0 / sq1
        u = _vmul(left, _vadj(s_left))
        # written so that a non-finite node fails too
        cond = _unimodular_cond(np.sum(np.abs(s_left) ** 2, axis=(-2, -1)))
        _check_chart(~(cond <= COND_CUTOFF), "factorization is numerically singular")
        return u, np.stack([s_left, _vmul(_vadj(u), k[..., 1, :, :])], axis=-3)

    def factorize_mg(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split the chiral stack k = t v, t in M and v in G, as (t, v),
        via k^-1 = v^-1 t^-1."""
        uprime, s = self.factorize_gm(_vadj(k))
        return _vadj(s), _vadj(uprime)

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

    def su2star_from_vector(self, s: np.ndarray) -> np.ndarray:
        """Vector coordinates (law s.t = s + (1 + c s3) t) to chiral stack."""
        if self.flavor != "su2":
            raise ValueError("vector coordinates exist for the su2 dual only")
        c = self.dual_scale
        s = np.asarray(s, dtype=float)
        x = np.sqrt(1.0 + c * s[2])
        zl = c * (s[0] - 1j * s[1]) / x
        zr = -c * (s[0] + 1j * s[1]) / x
        return np.array([[[x, zl], [0.0, 1.0 / x]], [[1.0 / x, 0.0], [zr, x]]], dtype=complex)

    def su2star_to_vector(self, t: np.ndarray) -> np.ndarray:
        if self.flavor != "su2":
            raise ValueError("vector coordinates exist for the su2 dual only")
        c = self.dual_scale
        x, z = t[0, 0]
        if abs(x.imag) > 1e-9 or x.real <= 0:
            raise FactorizationError("element is not in the dual-group chart")
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
