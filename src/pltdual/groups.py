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
factorisable chart raises :class:`FactorizationError`, or, given a list,
appends the failing checks to it: per-node masks with a message template
(:func:`_chart_check`), from which a caller finds each loop's first error.

An element k of the double is one array, the chiral stack
``k[..., side, :, :]`` with the side axis at -3 (side 0 = k_L, 1 = k_R);
a double-algebra element is represented by the same stack of traceless
matrices.  Products, inverses and derivatives act on both sides at once,
and leading axes (the grid nodes of a loop) broadcast.  A G-valued u,
which sits diagonally, enters as ``u[..., None, :, :]``, a side axis of
length one that broadcasts over both sides.  Each operation on the
double group has one method, which takes and returns chiral stacks.

Both adjoint actions are bilinear in the entries of an element and of its
inverse, so each is one method that returns the pair: :meth:`GroupKit.ad_g`
gives (Ad_{u^-1}, Ad_u) on g and :meth:`GroupKit.ad_d` gives (Ad_{k^-1},
Ad_k) on the double, each from one product of the entry products with a
constant map.  The loop tangent k_x k^-1 = k_x adj(k) is likewise bilinear
in k_x and k: :attr:`GroupKit.tangent_map` takes the entry products of
each side to its double-algebra coefficients.

Every element of G, M or the double is unimodular (the steppers normalize
the determinant, the factorizations build unit determinants), and the
operations here assume it of their inputs: the one inverse is the adjugate
:func:`_vadj` and the one chart margin :func:`_unimodular_cond`.  A public
entry point that takes a caller's matrix normalizes it once.

The stacked 2x2 kernels are closed forms: a traceless x squares to
theta^2 1 with theta^2 = -det x, which gives the exponential without a
series in theta.  Both flows step by :func:`cf4_step`, the fourth-order
commutator-free Lie group method CF4 of Celledoni, Marthinsen and Owren
(Future Gener. Comput. Syst. 19, 2003), which composes exponentials of
linear combinations of the stage generators and needs no dexp^-1.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bialgebra import QuasiBialgebra, chiral_matrix, tensor_conjugate
from .liecore import _stack_dot

__all__ = [
    "COND_CUTOFF",
    "GroupKit",
    "FactorizationError",
    "cf4_step",
    "expm2",
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
# the broadcast on small stacks such as the (3, 2, 2) stack of
# pltdual.particle.conjugate_description_residual
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


def _unimodular_cond(m: np.ndarray) -> np.ndarray:
    """2-norm condition number sigma_1 / sigma_2 of unimodular 2x2 matrices,
    stacked over leading axes; a NaN entry gives NaN.

    sigma_1^2 + sigma_2^2 = |m|_F^2 = f and sigma_1 sigma_2 = 1 give
    cond = (f + sqrt(f^2 - 4)) / 2.  It is read from g = f - 2 =
    |m_00 - conj(m_11)|^2 + |m_01 + conj(m_10)|^2 (as det m = 1), in which
    nothing cancels, so cond - 1 keeps its relative accuracy down to a
    well-conditioned m."""
    g = (np.abs(m[..., 0, 0] - m[..., 1, 1].conj()) ** 2
         + np.abs(m[..., 0, 1] + m[..., 1, 0].conj()) ** 2)
    return 1.0 + 0.5 * (g + np.sqrt(g * (g + 4.0)))


def _entry_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 16 products x_ab y_cd, flattened over (a, b, c, d)."""
    pairs = x[..., :, :, None, None] * y[..., None, None, :, :]
    return pairs.reshape(pairs.shape[:-4] + (16,))


def _chart_error(bad: np.ndarray, message: str, figures=(),
                 error: type = FactorizationError) -> Exception | None:
    """The error of a chart check that fails where the per-node mask ``bad``
    holds, or None, naming the first such node by its index on the last
    axis (the nodes of one loop or of each loop of a stack; none for a 0-d
    mask), with ``message`` filled with the entries of ``figures`` there."""
    if not np.any(bad):
        return None
    j = int(np.flatnonzero(bad)[0])
    node = f" (first at node {j % bad.shape[-1]})" if np.ndim(bad) else ""
    return error(message.format(*(np.ravel(f)[j] for f in figures)) + node)


def _chart_check(checks: list | None, bad: np.ndarray, message: str, *figures,
                 error: type = FactorizationError) -> None:
    """Raise the :func:`_chart_error` of a chart check that fails, or with a
    list ``checks`` append the check (bad, message, figures, error) to it."""
    if not np.any(bad):
        return
    if checks is None:
        raise _chart_error(bad, message, figures, error)
    checks.append((bad, message, figures, error))


def expm2(x: np.ndarray) -> np.ndarray:
    """Closed-form exponential of traceless 2x2 matrices, stacked over the
    leading axes: cosh(theta) 1 + sinh(theta)/theta x with theta^2 =
    -det x (see :func:`_theta2`), built as the product s x with c added to
    its diagonal in place.

    sinh(theta)/theta and cosh(theta) are accurate in floating point for
    every nonzero theta, so no series is needed near 0; theta^2 = 0 is
    read as theta = 1e-150, where both round to exactly 1, so a zero or
    nilpotent x gives exactly 1 + x.  That substitution runs only when
    some theta^2 is zero: the test costs less than the substitution,
    which would copy theta^2 on every call.
    """
    x = np.asarray(x, dtype=complex)
    theta2 = _theta2(x)
    if np.count_nonzero(theta2) < theta2.size:
        theta2 = np.where(theta2 == 0, 1e-300, theta2)
    theta = np.sqrt(theta2)
    out = (np.sinh(theta) / theta)[..., None, None] * x
    c = np.cosh(theta)
    out[..., 0, 0] += c
    out[..., 1, 1] += c
    return out


def cf4_step(gens, y0: np.ndarray, p0, dt: float):
    """One step of the fourth-order commutator-free Lie group method CF4
    (Celledoni, Marthinsen and Owren, Future Gener. Comput. Syst. 19, 2003)
    of dy/dt y^-1 = A(y, p), dp/dt = P(y, p) for a stack y0 of unimodular
    2x2 matrices and an additive p0; ``gens(y, p)`` returns (A, P), with A
    traceless as :func:`expm2` assumes (both flows meet this).  With F_i
    the generator at stage i,

        Y2 = exp(h F1 / 2) y0,   Y3 = exp(h F2 / 2) y0,   Y4 = exp(h F3 - h F1 / 2) Y2,
        y1 = exp(h (-F1 + 2 F2 + 2 F3 + 3 F4) / 12) exp(h (3 F1 + 2 F2 + 2 F3 - F4) / 12) y0:

    five exponentials and no dexp^-1, while p takes the classical RK4
    weights, the abelian part of the same method.  The final pair is one
    :func:`expm2` call on the stacked generators, which gives each the
    bits of its own call.  Returns (y1, p1).
    """
    h2 = 0.5 * dt
    a1, k1 = gens(y0, p0)
    half1 = h2 * a1
    y2 = _vmul(expm2(half1), y0)
    a2, k2 = gens(y2, p0 + h2 * k1)
    a3, k3 = gens(_vmul(expm2(h2 * a2), y0), p0 + h2 * k2)
    a4, k4 = gens(_vmul(expm2(dt * a3 - half1), y2), p0 + dt * k3)
    ends = np.array([a4, a1])
    last, first = expm2((dt / 12.0) * (3.0 * ends + 2.0 * (a2 + a3) - ends[::-1]))
    y1 = _vmul(last, _vmul(first, y0))
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


def _realize(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``basis``, the decomposition of traceless 2x2 matrices in it and the
    16 x 18 map of the products u_ab (u^-1)_cd to (Ad_{u^-1}, Ad_u).

    Ad_u on g is bilinear in the entries of u and u^-1:
    (Ad_u)_ij = sum u_ab (e_j)_bc (u^-1)_cd C_iad, where C maps the (a, d)
    entry of a traceless matrix to its coefficient i; Ad_{u^-1} reads the
    same 16 products with the (u, u^-1) slots swapped.
    """
    cols = np.stack([np.array([e[0, 0], e[0, 1], e[1, 0]]) for e in basis], axis=1)
    demat = np.linalg.inv(cols)
    entry_coeffs = np.zeros((len(basis), 2, 2), dtype=complex)
    entry_coeffs[:, 0, 0], entry_coeffs[:, 0, 1], entry_coeffs[:, 1, 0] = demat.T
    ad_u = np.einsum("jbc,iad->abcdij", basis, entry_coeffs)
    return basis, demat, np.stack([ad_u.transpose(2, 3, 0, 1, 4, 5), ad_u], axis=4).reshape(16, 18)


_REALIZATIONS = {"su2": _realize(_SU2_BASIS), "sl2r": _realize(_SL2R_BASIS)}


def _realization(name: str) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """The flavor of the algebra ``name``, the name itself ("su2" or "sl2r"),
    with its basis, decomposition and adjoint-pair product map, built once
    per flavor."""
    if name not in _REALIZATIONS:
        raise ValueError(f"no matrix realization for algebra '{name}'")
    return (name, *_REALIZATIONS[name])


class GroupKit:
    """Exact group operations for the double of one bialgebra model."""

    def __init__(self, bialgebra: QuasiBialgebra):
        self.b = bialgebra
        # decomposition of traceless 2x2 matrices in the g-basis, and the
        # products of the entries of u and u^-1 to (Ad_{u^-1}, Ad_u)
        self.flavor, self.basis, self._demat, self._ad_g_map = _realization(bialgebra.g.name)
        # chiral projection matrices d -> g (L and R) and their joint inverse
        self.chi = chiral_matrix(bialgebra.rho)
        self.chi_inv = np.linalg.inv(self.chi)

    @cached_property
    def _ad_d_map(self) -> np.ndarray:
        """Ad_k on the double is chi^-1 diag(Ad_kL, Ad_kR) chi, linear in both
        blocks: this 32 x 72 map takes the products of both sides to
        (Ad_{k^-1}, Ad_k)."""
        n = self.b.g.dim
        blocks = np.einsum("ia,bj->abij", self.chi_inv, self.chi)
        sides = np.stack([blocks[:n, :n].reshape(9, 36), blocks[n:, n:].reshape(9, 36)])
        return (self._ad_g_map.reshape(16, 2, 9) @ sides[:, None]).reshape(32, 72)

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
        """4 x n map of xi in g to the entries of mat(xi)^T, the generator of
        the particle's u^T for u^-1 du = xi."""
        return np.ascontiguousarray(self.basis.transpose(0, 2, 1).reshape(self.b.g.dim, 4).T)

    def tangent_coeffs(self, m: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`chiral_mats`: the d-coefficients (..., 2n) of a
        chiral stack of traceless matrices."""
        z = self.coeffs(m)
        return z.reshape(z.shape[:-2] + (-1,)) @ self.chi_inv.T

    @cached_property
    def tangent_map(self) -> np.ndarray:
        """32 x 2n map of the products (k_x)_ab k_cd of each side, flattened
        over (side, a, b, c, d) as :func:`_entry_products` gives them per
        side, to the d-coefficients of k_x adj(k), which is k_x k^-1 for a
        unimodular k: per side the products onto the entries of k_x adj(k),
        then :meth:`tangent_coeffs` on the unit chiral entries."""
        units = np.eye(4).reshape(4, 2, 2)
        adj_map = (units[:, None] @ _vadj(units)[None]).reshape(16, 4)
        coeffs = self.tangent_coeffs(np.eye(8).reshape(8, 2, 2, 2))
        return (adj_map @ coeffs.reshape(2, 4, -1)).reshape(32, -1)

    # ---- exponentials (stacked over leading axes) ----------------------------

    def exp_g(self, xi: np.ndarray) -> np.ndarray:
        return expm2(self.mat(xi))

    def exp_m(self, phi: np.ndarray) -> np.ndarray:
        phi = np.asarray(phi, dtype=complex)
        return self.exp_d(np.concatenate([np.zeros_like(phi), phi], axis=-1))

    def exp_d(self, w: np.ndarray) -> np.ndarray:
        return expm2(self.chiral_mats(w))

    # ---- adjoint actions ---------------------------------------------------

    def ad_g(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Ad_{u^-1}, Ad_u) on g (and its complexification), stacked over
        the leading axes, from one set of products of the entries of u and
        u^-1."""
        lead = u.shape[:-2]
        both = _stack_dot(_entry_products(u, _vadj(u)), self._ad_g_map).reshape(lead + (2, 3, 3))
        return both[..., 0, :, :], both[..., 1, :, :]

    def ad_d(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Ad_{k^-1}, Ad_k) on the double for the chiral stack k, exact via
        the chiral pair, from one product of the entry products of both
        sides; a G-valued u passed as ``u[..., None, :, :]`` forms its
        products once and broadcasts them over the side axis."""
        products = _entry_products(k, _vadj(k))
        lead = products.shape[:-2]
        products = np.broadcast_to(products, lead + (2, 16)).reshape(lead + (32,))
        both = _stack_dot(products, self._ad_d_map).reshape(lead + (2, 6, 6))
        return both[..., 0, :, :], both[..., 1, :, :]

    # ---- Poisson / dressing cocycles ----------------------------------------

    def pi(self, u: np.ndarray) -> np.ndarray:
        """Pi(u) = Ad_u r - r as a g(x)g coefficient matrix (m -> g map)."""
        a = self.ad_g(u)[1]
        return tensor_conjugate(self.b.rho, a) - self.b.rho

    def hat_pi(self, t: np.ndarray) -> np.ndarray:
        """Pi-hat(t) for t in M, as an m(x)m coefficient matrix (g -> m map).

        Built exactly from the double adjoint action: the m-component of
        Ad_{t^-1} on g measures the dressing cocycle, transported back
        with Ad_t.
        """
        n = self.b.g.dim
        ad_tinv, ad_t = self.ad_d(t)
        return ad_t[..., n:, n:] @ ad_tinv[..., n:, :n]

    # ---- factorization -----------------------------------------------------

    def factorize_gm(self, k: np.ndarray, checks: list | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
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
        1e-6 of 1.

        Every chart check is elementwise and names the first failing node
        (a single element as node 0).  With a list ``checks`` the checks
        that fail are appended to it in this order (see :func:`_chart_check`)
        instead of raised, and the factors of a failing node are not meaningful.
        """
        def check(bad, message):
            _chart_check(checks, np.atleast_1d(bad), message)

        drift = (np.abs(_det2(k) - 1.0) > 2.5e-7).any(axis=-1)
        check(drift, "element left the double group (det drift)")
        left = k[..., 0, :, :]
        z = _vmul(_vadj(k[..., 1, :, :]), left)
        check(np.abs(z[..., 0, 0]) < 1e-12, "factorization chart: zero pivot")
        d1 = z[..., 0, 0]
        if self.flavor == "sl2r":
            check((d1.real <= 0) | (np.abs(d1.imag) > 1e-8 * np.abs(d1)),
                  "sl2r factorization chart: diagonal left identity component")
        # principal branch: positive real on (and continuously near) the
        # locus where d1 is positive real, e.g. the compact real form
        sq1 = np.sqrt(d1.astype(complex))
        s_left = np.zeros(z.shape, dtype=complex)
        s_left[..., 0, 0] = sq1
        s_left[..., 0, 1] = z[..., 0, 1] / sq1
        s_left[..., 1, 1] = 1.0 / sq1
        u = _vmul(left, _vadj(s_left))
        # written so that a non-finite node fails too
        cond = _unimodular_cond(s_left)
        check(~(cond <= COND_CUTOFF), "factorization is numerically singular")
        return u, np.stack([s_left, _vmul(_vadj(u), k[..., 1, :, :])], axis=-3)

    def factorize_mg(self, k: np.ndarray, checks: list | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Split the chiral stack k = t v, t in M and v in G, as (t, v),
        via k^-1 = v^-1 t^-1; ``checks`` as in :meth:`factorize_gm`."""
        uprime, s = self.factorize_gm(_vadj(k), checks)
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

    def su2star_nabla(self, s: np.ndarray, sdot: np.ndarray) -> np.ndarray:
        """Right-translated velocity t_dot t^-1 in vector coordinates."""
        c = self.dual_scale
        n3 = sdot[2] / (1.0 + c * s[2])
        return sdot - (c * n3) * s
