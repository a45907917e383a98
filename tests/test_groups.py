"""Group-level machinery: exponentials, factorizations, adjoint transport,
dressing cocycles and the dual-group vector coordinates."""

import warnings

import numpy as np
import pytest

from pltdual.groups import (
    COND_CUTOFF,
    FactorizationError,
    GroupKit,
    _det2,
    _theta2,
    _unimodular_cond,
    _vdet_normalize,
    _vdexpinv,
    expm2,
)
from pltdual.models import make_preset


def kit_for(algebra: str, preset: str = "modified-principal", **kw) -> GroupKit:
    return GroupKit(make_preset(preset, algebra=algebra, **kw).bialgebra)


@pytest.fixture(params=["sl2r", "su2"])
def kit(request):
    return kit_for(request.param)


IDENTITY = np.stack([np.eye(2), np.eye(2)]).astype(complex)


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sum over both sides of the Frobenius distance of two chiral stacks."""
    return float(np.linalg.norm(a - b, axis=(-2, -1)).sum())


def random_double(kit: GroupKit, rng, scale: float = 0.4) -> np.ndarray:
    """A double-group element near the identity, as a chiral stack.

    The non-compact flavor keeps real coefficients so the element stays in
    the factorizable chart (real positive pivot); the compact flavor also
    exercises complex directions."""
    if kit.flavor == "sl2r":
        w = rng.normal(size=6).astype(complex) * scale
    else:
        w = (rng.normal(size=6) + 1j * rng.normal(size=6)) * scale
    return kit.exp_d(w)


# ---- exponentials ---------------------------------------------------------------


def logm2(m: np.ndarray) -> np.ndarray:
    """Principal logarithm of a unimodular 2x2 matrix (traceless result),
    the round-trip oracle of expm2."""
    c = np.trace(m) / 2.0
    theta = np.arccosh(complex(c))
    s = 1.0 + theta**2 / 6 if abs(theta) < 1e-8 else np.sinh(theta) / theta
    return (m - c * np.eye(2)) / s


def test_expm2_logm2_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x -= np.trace(x) / 2 * np.eye(2)  # traceless -> det exp = 1
        m = expm2(0.4 * x)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
        back = expm2(logm2(m))
        assert np.max(np.abs(back - m)) < 1e-12


def _expm_series(x: np.ndarray, terms: int = 40) -> np.ndarray:
    out = term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    return out


def test_expm2_stacked_matches_series():
    """One call exponentiates a stack, including nodes at small theta and
    at theta = 0 (zero and nilpotent), without a warning."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    x[:, 1, 1] = -x[:, 0, 0]
    x[1] *= 1e-9
    x[2] = 0.0
    x[3] = [[0.0, 1.5], [0.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = expm2(x)
        singles = np.stack([expm2(m) for m in x])
        nested = expm2(x.reshape(2, 3, 2, 2)).reshape(6, 2, 2)
    assert np.array_equal(stacked, singles)
    assert np.array_equal(stacked, nested)
    for m, e in zip(x, stacked):
        assert np.max(np.abs(e - _expm_series(m))) < 1e-13 * max(1.0, np.max(np.abs(e)))


def _theta2_ladder() -> np.ndarray:
    """Traceless stacks whose theta^2 spans 0 to 25 on the real and the
    complex axes: off-diagonal [[0, b], [c, 0]] with theta^2 = b c exactly,
    a real and a complex nilpotent, and random directions scaled to the
    same sizes (up to theta^2 = 1, inside the series oracle's range)."""
    rng = np.random.default_rng(11)
    sizes = [5e-324, 1e-40, 1e-20, 1e-12, 1e-6, 1e-2, 1.0]
    xs = [np.zeros((2, 2)), [[0.0, 1.5], [0.0, 0.0]], [[1j, 1.0], [1.0, -1j]]]
    for phase in (1.0, np.exp(0.7j)):
        xs += [[[0.0, 1.0], [size * phase, 0.0]] for size in sizes]
        xs.append([[0.0, 5.0], [5.0 * phase, 0.0]])
        for size in sizes:
            x = rng.normal(size=(2, 2)) + (phase != 1.0) * 1j * rng.normal(size=(2, 2))
            x[1, 1] = -x[0, 0]
            xs.append(x * np.sqrt(size / abs(-np.linalg.det(x))))
    return np.array(xs, dtype=complex)


def test_expm2_matches_series_across_theta_without_branch():
    """Without a small-theta series, sinh(theta)/theta and cosh(theta) stay
    accurate from theta^2 = 5e-324 to 25, theta^2 = 0 gives exactly 1 + x,
    and passing the shared theta^2 changes no bit."""
    x = _theta2_ladder()
    assert np.array_equal(_theta2(x), -_det2(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = expm2(x)
        shared = expm2(x, _theta2(x))
    assert np.array_equal(e, shared)
    for m, em in zip(x, e):
        assert np.max(np.abs(em - _expm_series(m))) < 1e-13 * max(1.0, np.max(np.abs(em)))
    zero = _theta2(x) == 0
    assert zero.sum() == 3
    assert np.array_equal(e[zero], np.eye(2) + x[zero])


def test_vdexpinv_shared_theta2_is_bit_identical():
    rng = np.random.default_rng(12)
    sigma = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
    sigma[..., 1, 1] = -sigma[..., 0, 0]
    v = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
    v[..., 1, 1] = -v[..., 0, 0]
    assert np.array_equal(_vdexpinv(sigma, v, _theta2(sigma)), _vdexpinv(sigma, v))


def test_exp_g_lands_in_group(kit):
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = kit.exp_g(rng.normal(size=3) * 0.5)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
        if kit.flavor == "su2":
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        else:
            assert np.max(np.abs(u.imag)) < 1e-12


def test_exp_m_is_chiral_pair(kit):
    rng = np.random.default_rng(2)
    phi = (rng.normal(size=3) + 1j * rng.normal(size=3)) * 0.3
    s = kit.exp_m(phi)
    assert s.shape == (2, 2, 2)
    assert np.abs(np.linalg.det(s) - 1.0).max() < 1e-12
    # the left chiral factor is upper triangular (Borel), the dual group chart
    assert abs(s[0, 1, 0]) < 1e-12


def test_double_element_group_ops(kit):
    """The group law of the chiral stack is sidewise: a product is ``@``,
    an inverse ``np.linalg.inv``, and a G-valued u enters as ``u[None]``."""
    rng = np.random.default_rng(3)
    a = random_double(kit, rng)
    b = random_double(kit, rng)
    assert distance(a @ np.linalg.inv(a), IDENTITY) < 1e-12
    assert distance((a @ b) @ np.linalg.inv(b), a) < 1e-12
    u = kit.exp_g(rng.normal(size=3) * 0.4)
    ku = u[None] @ IDENTITY
    assert np.max(np.abs(ku[0] - ku[1])) < 1e-15


def test_tangent_coeffs_inverts_mat(kit):
    rng = np.random.default_rng(4)
    w = rng.normal(size=6) + 1j * rng.normal(size=6)
    back = kit.tangent_coeffs(kit.chiral_mats(w))
    assert np.max(np.abs(back - w)) < 1e-12


# ---- adjoint transport -----------------------------------------------------------


def test_ad_d_matches_finite_conjugation(kit):
    """Ad_k from the 6x6 matrix equals the conjugation derivative
    d/de [k exp(e w) k^-1] at e = 0 in coefficients."""
    rng = np.random.default_rng(5)
    k = random_double(kit, rng)
    kinv = np.linalg.inv(k)
    for _ in range(5):
        w = rng.normal(size=6) + 1j * rng.normal(size=6)
        eps = 1e-6
        plus = k @ kit.exp_d(eps * w) @ kinv
        minus = k @ kit.exp_d(-eps * w) @ kinv
        fd = kit.tangent_coeffs((plus - minus) @ np.linalg.inv(k @ kinv) / (2 * eps))
        assert np.max(np.abs(kit.ad_d(k) @ w - fd)) < 1e-7


def test_ad_d_is_homomorphism(kit):
    rng = np.random.default_rng(6)
    a = random_double(kit, rng)
    b = random_double(kit, rng)
    assert np.max(np.abs(kit.ad_d(a @ b) - kit.ad_d(a) @ kit.ad_d(b))) < 1e-11


def test_ad_d_group_consistent(kit):
    """A G-valued u on a broadcast side axis (Ad_u on g computed once)
    gives the Ad_u of two separately stored chiral components."""
    rng = np.random.default_rng(7)
    u = kit.exp_g(rng.normal(size=3) * 0.5)
    assert np.max(np.abs(kit.ad_d(u[None]) - kit.ad_d(np.stack([u, u])))) < 1e-12


def test_ad_d_preserves_pairing(kit):
    rng = np.random.default_rng(8)
    p = np.zeros((6, 6))
    p[:3, 3:] = np.eye(3)
    p[3:, :3] = np.eye(3)
    k = random_double(kit, rng)
    ad = kit.ad_d(k)
    assert np.max(np.abs(ad.T @ p @ ad - p)) < 1e-11


# ---- factorization ---------------------------------------------------------------


def test_factorize_gm_reconstructs(kit):
    rng = np.random.default_rng(9)
    for _ in range(20):
        k = random_double(kit, rng)
        u, s = kit.factorize_gm(k)
        assert distance(u[None] @ s, k) < 1e-11
        assert abs(s[0, 1, 0]) < 1e-12  # dual factor stays in its chart


def test_factorize_mg_reconstructs(kit):
    rng = np.random.default_rng(10)
    for _ in range(20):
        k = random_double(kit, rng)
        t, v = kit.factorize_mg(k)
        assert distance(t @ v[None], k) < 1e-11


def test_factorize_identity(kit):
    u, s = kit.factorize_gm(IDENTITY)
    assert np.max(np.abs(u - np.eye(2))) < 1e-14
    assert distance(s, IDENTITY) < 1e-14


@pytest.mark.parametrize("scales", [(1.05, 1.0), (1.05, 1 / 1.05), (1.05, 1.05)],
                         ids=["one-side", "opposite", "same"])
def test_factorize_rejects_det_drift(kit, scales):
    """A drift of either side's determinant is rejected, also when the two
    drifts cancel in det k_L det k_R or in det k_L / det k_R."""
    rng = np.random.default_rng(11)
    k = random_double(kit, rng)
    with pytest.raises(FactorizationError, match="det drift"):
        kit.factorize_gm(np.stack([k[0] * scales[0], k[1] * scales[1]]))


def test_unimodular_cond_matches_svd(kit):
    """The closed-form cond of a unimodular stack from |m|_F^2 alone equals
    numpy's SVD-based cond from 1 to about 1e8, and a NaN entry fails the
    chart verdict ``cond <= COND_CUTOFF``."""
    rng = np.random.default_rng(21)
    xi = rng.normal(size=(200, 3))
    if kit.flavor == "su2":
        xi = xi + 1j * rng.normal(size=(200, 3))
    xi *= (np.geomspace(1e-3, 13.5, 200) / np.linalg.norm(kit.mat(xi), axis=(-2, -1)))[:, None]
    m = _vdet_normalize(kit.exp_g(xi))
    want = np.linalg.cond(m)
    assert 1e7 < want.max() < 2e8
    got = _unimodular_cond(np.sum(np.abs(m) ** 2, axis=(-2, -1)))
    assert np.max(np.abs(got / want - 1.0)) < 1e-7
    m[7, 0, 1] = np.nan
    verdict = _unimodular_cond(np.sum(np.abs(m) ** 2, axis=(-2, -1))) <= COND_CUTOFF
    assert verdict[:7].all() and not verdict[7]


def test_factorizations_agree_on_group_points(kit):
    rng = np.random.default_rng(12)
    u0 = kit.exp_g(rng.normal(size=3) * 0.5)
    u, s = kit.factorize_gm(np.stack([u0, u0]))
    assert np.max(np.abs(u - u0)) < 1e-11
    assert distance(s, IDENTITY) < 1e-11


# ---- dressing cocycles -----------------------------------------------------------


def test_pi_cocycle_property(kit):
    """Pi(uv) = Pi(u) + Ad_u Pi(v) Ad_u^T (dressing cocycle identity)."""
    rng = np.random.default_rng(13)
    u = kit.exp_g(rng.normal(size=3) * 0.4)
    v = kit.exp_g(rng.normal(size=3) * 0.4)
    au = kit.ad_g(u)
    lhs = kit.pi(u @ v)
    rhs = kit.pi(u) + au @ kit.pi(v) @ au.T
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_pi_vanishes_at_identity(kit):
    assert np.max(np.abs(kit.pi(np.eye(2)))) < 1e-14
    assert np.max(np.abs(kit.hat_pi(IDENTITY))) < 1e-14


def test_b_cocycle_matches_pi(kit):
    rng = np.random.default_rng(14)
    u = kit.exp_g(rng.normal(size=3) * 0.5)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.max(np.abs(kit.b_cocycle(u, phi) + kit.pi(u) @ phi)) < 1e-12


def test_b_cocycle_matches_dressing_derivative(kit):
    """b(u, phi) equals the derivative at 0 of the G-factor of
    exp(eps phi) u, right-translated back by u^-1 (finite differences,
    Richardson-extrapolated)."""
    rng = np.random.default_rng(20)
    u = kit.exp_g(rng.normal(size=3) * 0.4)
    phi = rng.normal(size=3).astype(complex)
    if kit.flavor == "su2":
        phi = -1j * phi  # dual real form

    def g_factor(eps):
        return kit.factorize_gm(kit.exp_m(eps * phi) @ u)[0]

    def fd(h):
        return (g_factor(h) - g_factor(-h)) @ np.linalg.inv(u) / (2 * h)

    d = (4.0 * fd(5e-4) - fd(1e-3)) / 3.0
    expected = kit.mat(kit.b_cocycle(u, phi))
    assert np.max(np.abs(d - expected)) < 1e-8


def test_hat_pi_su2_closed_form():
    """hat-Pi at vector coordinate s: -i (eps_{ij.} . s + c/2 |s|^2 eps_{ij3})."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    for mu in (None, 20.0):
        if mu is None:
            kit = kit_for("su2")
        else:
            kit = kit_for("su2", preset="principal-limit", mu=mu)
        c = kit.dual_scale
        s = np.array([0.2, -0.3, 0.4])
        t = kit.su2star_from_vector(s)
        closed = -1j * (np.einsum("ija,a->ij", eps, s) + 0.5 * c * (s @ s) * eps[:, :, 2])
        assert np.max(np.abs(kit.hat_pi(t) - closed)) < 1e-13


# ---- dual-group vector coordinates ------------------------------------------------


def test_su2star_group_law():
    """Matrix product realizes s o t = s + (1 + c s_3) t in vector coordinates."""
    for mu in (None, 50.0):
        kit = kit_for("su2") if mu is None else kit_for(
            "su2", preset="principal-limit", mu=mu
        )
        c = kit.dual_scale
        rng = np.random.default_rng(15)
        for _ in range(10):
            s = rng.normal(size=3) * 0.4
            t = rng.normal(size=3) * 0.4
            prod = kit.su2star_from_vector(s) @ kit.su2star_from_vector(t)
            law = kit.su2star_from_vector(s + (1.0 + c * s[2]) * t)
            assert distance(prod, law) < 1e-12


def test_su2star_vector_round_trip():
    kit = kit_for("su2")
    rng = np.random.default_rng(16)
    s = rng.normal(size=3) * 0.5
    back = kit.su2star_to_vector(kit.su2star_from_vector(s))
    assert np.max(np.abs(back - s)) < 1e-12


def test_su2star_exp_vector_matches_exp_m():
    kit = kit_for("su2")
    rng = np.random.default_rng(17)
    w = rng.normal(size=3) * 0.4
    s = kit.su2star_exp_vector(w)
    direct = kit.exp_m(-1j * w)
    assert distance(kit.su2star_from_vector(s), direct) < 1e-12


def test_su2star_nabla_matches_derivative():
    """nabla(s, sdot) gives the right-translated tangent: the matrix
    derivative equals sum_a nabla_a d/ds_a M(s)|_0."""
    kit = kit_for("su2")
    rng = np.random.default_rng(18)
    s = rng.normal(size=3) * 0.4
    sdot = rng.normal(size=3)
    eps = 1e-7
    gen = []
    for a in range(3):
        e = np.zeros(3)
        e[a] = eps
        gen.append((kit.su2star_from_vector(e)[0] - np.eye(2)) / eps)
    m = kit.su2star_from_vector(s)[0]
    mp = kit.su2star_from_vector(s + eps * sdot)[0]
    deriv = (mp - m) @ np.linalg.inv(m) / eps
    nab = kit.su2star_nabla(s, sdot)
    recon = sum(nab[a] * gen[a] for a in range(3))
    assert np.max(np.abs(deriv - recon)) < 1e-5


def test_dual_scale_values():
    assert kit_for("su2").dual_scale == pytest.approx(1.0)
    assert kit_for("su2", preset="principal-limit", mu=50.0).dual_scale == pytest.approx(
        1.0 / 50.0
    )

