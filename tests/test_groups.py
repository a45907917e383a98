"""Group-level machinery: exponentials, factorizations, adjoint transport,
dressing cocycles and the dual-group vector coordinates."""

import warnings

import numpy as np
import pytest

from pltdual.groups import (
    DoubleElement,
    FactorizationError,
    GroupKit,
    expm2,
)
from pltdual.models import make_preset


def kit_for(algebra: str, preset: str = "modified-principal", **kw) -> GroupKit:
    return GroupKit(make_preset(preset, algebra=algebra, **kw).bialgebra)


@pytest.fixture(params=["sl2r", "su2"])
def kit(request):
    return kit_for(request.param)


def random_double(kit: GroupKit, rng, scale: float = 0.4) -> DoubleElement:
    """A double-group element near the identity.

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
    """One call exponentiates a stack, including nodes on the small-theta
    series and at theta = 0 (zero and nilpotent), without a warning."""
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
    assert abs(np.linalg.det(s.left) - 1.0) < 1e-12
    assert abs(np.linalg.det(s.right) - 1.0) < 1e-12
    # the left chiral factor is upper triangular (Borel), the dual group chart
    assert abs(s.left[1, 0]) < 1e-12


def test_double_element_group_ops(kit):
    rng = np.random.default_rng(3)
    a = random_double(kit, rng)
    b = random_double(kit, rng)
    e = DoubleElement.identity()
    assert (a @ a.inverse()).distance(e) < 1e-12
    assert ((a @ b) @ b.inverse()).distance(a) < 1e-12
    u = kit.exp_g(rng.normal(size=3) * 0.4)
    ku = DoubleElement.from_group(u)
    assert np.max(np.abs(ku.left - ku.right)) < 1e-15


def test_tangent_coeffs_inverts_mat(kit):
    rng = np.random.default_rng(4)
    w = rng.normal(size=6) + 1j * rng.normal(size=6)
    left, right = kit.chiral_mats(w)
    back = kit.tangent_coeffs(left, right)
    assert np.max(np.abs(back - w)) < 1e-12


# ---- adjoint transport -----------------------------------------------------------


def test_ad_d_matches_finite_conjugation(kit):
    """Ad_k from the 6x6 matrix equals the conjugation derivative
    d/de [k exp(e w) k^-1] at e = 0 in coefficients."""
    rng = np.random.default_rng(5)
    k = random_double(kit, rng)
    kinv = k.inverse()
    for _ in range(5):
        w = rng.normal(size=6) + 1j * rng.normal(size=6)
        eps = 1e-6
        plus = k @ kit.exp_d(eps * w) @ kinv
        minus = k @ kit.exp_d(-eps * w) @ kinv
        dl = (plus.left - minus.left) @ np.linalg.inv(k.left @ kinv.left) / (2 * eps)
        dr = (plus.right - minus.right) @ np.linalg.inv(k.right @ kinv.right) / (2 * eps)
        fd = kit.tangent_coeffs(dl, dr)
        assert np.max(np.abs(kit.ad_d(k.left, k.right) @ w - fd)) < 1e-7


def test_ad_d_is_homomorphism(kit):
    rng = np.random.default_rng(6)
    a = random_double(kit, rng)
    b = random_double(kit, rng)
    ab = a @ b
    ad_ab = kit.ad_d(ab.left, ab.right)
    assert np.max(np.abs(ad_ab - kit.ad_d(a.left, a.right) @ kit.ad_d(b.left, b.right))) < 1e-11


def test_ad_d_group_consistent(kit):
    """The same array twice (Ad_u on g computed once) gives the Ad_u of two
    separately stored chiral components."""
    rng = np.random.default_rng(7)
    u = kit.exp_g(rng.normal(size=3) * 0.5)
    assert np.max(np.abs(kit.ad_d(u, u) - kit.ad_d(u, u.copy()))) < 1e-12


def test_ad_d_preserves_pairing(kit):
    rng = np.random.default_rng(8)
    p = np.zeros((6, 6))
    p[:3, 3:] = np.eye(3)
    p[3:, :3] = np.eye(3)
    k = random_double(kit, rng)
    ad = kit.ad_d(k.left, k.right)
    assert np.max(np.abs(ad.T @ p @ ad - p)) < 1e-11


# ---- factorization ---------------------------------------------------------------


def test_factorize_gm_reconstructs(kit):
    rng = np.random.default_rng(9)
    for _ in range(20):
        k = random_double(kit, rng)
        u, sl, sr = kit.factorize_gm(k.left, k.right)
        assert (DoubleElement.from_group(u) @ DoubleElement(sl, sr)).distance(k) < 1e-11
        assert abs(sl[1, 0]) < 1e-12  # dual factor stays in its chart


def test_factorize_mg_reconstructs(kit):
    rng = np.random.default_rng(10)
    for _ in range(20):
        k = random_double(kit, rng)
        tl, tr, v = kit.factorize_mg(k.left, k.right)
        assert (DoubleElement(tl, tr) @ DoubleElement.from_group(v)).distance(k) < 1e-11


def test_factorize_identity(kit):
    e = DoubleElement.identity()
    u, sl, sr = kit.factorize_gm(e.left, e.right)
    assert np.max(np.abs(u - np.eye(2))) < 1e-14
    assert DoubleElement(sl, sr).distance(e) < 1e-14


def test_factorize_rejects_det_drift(kit):
    rng = np.random.default_rng(11)
    k = random_double(kit, rng)
    with pytest.raises(FactorizationError):
        kit.factorize_gm(k.left * 1.05, k.right)


def test_factorizations_agree_on_group_points(kit):
    rng = np.random.default_rng(12)
    u0 = kit.exp_g(rng.normal(size=3) * 0.5)
    u, sl, sr = kit.factorize_gm(u0, u0)
    assert np.max(np.abs(u - u0)) < 1e-11
    assert DoubleElement(sl, sr).distance(DoubleElement.identity()) < 1e-11


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
    assert np.max(np.abs(kit.hat_pi(DoubleElement.identity()))) < 1e-14


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
        k = kit.exp_m(eps * phi) @ DoubleElement.from_group(u)
        return kit.factorize_gm(k.left, k.right)[0]

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
            assert prod.distance(law) < 1e-12


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
    assert kit.su2star_from_vector(s).distance(direct) < 1e-12


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
        gen.append((kit.su2star_from_vector(e).left - np.eye(2)) / eps)
    m = kit.su2star_from_vector(s)
    mp = kit.su2star_from_vector(s + eps * sdot)
    deriv = (mp.left - m.left) @ np.linalg.inv(m.left) / eps
    nab = kit.su2star_nabla(s, sdot)
    recon = sum(nab[a] * gen[a] for a in range(3))
    assert np.max(np.abs(deriv - recon)) < 1e-5


def test_dual_scale_values():
    assert kit_for("su2").dual_scale == pytest.approx(1.0)
    assert kit_for("su2", preset="principal-limit", mu=50.0).dual_scale == pytest.approx(
        1.0 / 50.0
    )

