"""Model presets: frozen structure constants, r-matrices, parameter families."""

import numpy as np
import pytest

from pltdual.models import (
    ALGEBRA_NAMES,
    PRESET_NAMES,
    make_algebra,
    make_preset,
    make_sl2r,
    make_su2,
)


def test_sl2r_structure_constants_frozen():
    g = make_sl2r().g
    c = np.zeros((3, 3, 3), dtype=complex)
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    c[0, 2, 2] = -2.0
    c[2, 0, 2] = 2.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    assert np.array_equal(g.c, c)


def test_sl2r_r_matrix_frozen():
    b = make_sl2r()
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 2] = 1.0
    rho[0, 0] = 0.25
    assert np.array_equal(b.rho, rho)


def test_su2_r_matrix_frozen():
    b = make_su2()
    rho = -np.eye(3, dtype=complex)
    rho[0, 1] = 1j
    rho[1, 0] = -1j
    assert np.array_equal(b.rho, rho)


def test_make_algebra_names():
    for name in ALGEBRA_NAMES:
        b = make_algebra(name)
        assert b.g.dim == 3
    with pytest.raises(ValueError):
        make_algebra("so4")


@pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
def test_named_presets(algebra):
    mp = make_preset("modified-principal", algebra=algebra)
    assert mp.lam == -1.0 and mp.mu == 1.0
    assert mp.split_denominator == pytest.approx(2.0)

    pq = make_preset("pure-qt", algebra=algebra)
    assert pq.lam == 0.0 and pq.mu == 0.0
    assert pq.split_denominator == pytest.approx(1.0)

    gi = make_preset("g-invariant", algebra=algebra)
    assert gi.lam == 0.0

    pl = make_preset("principal-limit", algebra=algebra, mu=100.0)
    assert pl.mu == 100.0
    # the r-matrix is rescaled by 1/mu so the metric stays finite
    base = make_algebra(algebra)
    assert np.allclose(pl.bialgebra.rho, base.rho / 100.0)


def test_custom_preset_requires_parameters():
    with pytest.raises(ValueError):
        make_preset("custom")
    p = make_preset("custom", lam=0.3, mu=0.7)
    assert p.lam == 0.3 and p.mu == 0.7


def test_principal_limit_rejects_zero_mu():
    """The principal limit rescales r by 1/mu, so mu = 0 is a ValueError."""
    with pytest.raises(ValueError, match="nonzero mu"):
        make_preset("principal-limit", mu=0.0)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        make_preset("no-such-preset")


def test_degenerate_family_detected():
    p = make_preset("custom", lam=1.0, mu=-1.0)  # lam + 1 + 2 mu = 0
    assert not p.is_factorisable()
    ok = make_preset("custom", lam=0.0, mu=1.0)
    assert ok.is_factorisable()


def test_completely_real_variant():
    from pltdual.bialgebra import cybe_residual

    p = make_preset("g-invariant", algebra="su2", completely_real=True)
    assert p.mu == 1j
    base = make_su2()
    assert np.allclose(p.bialgebra.rho, -1j * base.rho)
    assert cybe_residual(p.bialgebra.g, p.bialgebra.rho) < 1e-13
    with pytest.raises(ValueError):
        make_preset("g-invariant", algebra="sl2r", completely_real=True)
    # the variant's mu = i used to replace an explicit mu silently
    for name in ("modified-principal", "pure-qt", "principal-limit", "g-invariant"):
        with pytest.raises(ValueError, match="completely-real variant fixes mu"):
            make_preset(name, algebra="su2", mu=0.3, completely_real=True)


def test_preset_names_complete():
    assert set(PRESET_NAMES) == {
        "modified-principal",
        "pure-qt",
        "principal-limit",
        "g-invariant",
        "custom",
    }
