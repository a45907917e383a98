"""Model presets: frozen structure constants, r-matrices, parameter families."""

import numpy as np
import pytest

from pltdual.bialgebra import QuasiBialgebra
from pltdual.duality import graph_at, splitting
from pltdual.fieldsim import LoopState
from pltdual.groups import GroupKit
from pltdual.liecore import LieAlgebra
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


_TAKES_NO_LAM = "the {} preset fixes lam; only pure-qt and custom take one"
_CUSTOM_NEEDS = "custom preset needs explicit lam and mu"
_PRESET_TABLE = [
    # (name, keyword arguments, (lam, mu, rescale) or the exact error text)
    ("modified-principal", {}, (-1.0, 1.0, 1.0)),
    ("modified-principal", {"lam": 0.5}, _TAKES_NO_LAM.format("modified-principal")),
    ("modified-principal", {"mu": 0.25}, (-1.0, 0.25, 1.0)),
    ("modified-principal", {"mu": 0.0}, (-1.0, 0.0, 1.0)),
    ("pure-qt", {}, (0.0, 0.0, 1.0)),
    ("pure-qt", {"lam": 0.5}, (0.5, 0.0, 1.0)),
    ("pure-qt", {"mu": 0.25}, (0.0, 0.25, 1.0)),
    ("pure-qt", {"mu": 0.0}, (0.0, 0.0, 1.0)),
    ("principal-limit", {}, (0.0, 1e3, 1.0 / (1e3 + 0j))),
    ("principal-limit", {"lam": 0.5}, _TAKES_NO_LAM.format("principal-limit")),
    ("principal-limit", {"mu": 0.25}, (0.0, 0.25, 4.0)),
    ("principal-limit", {"mu": 0.0}, "principal-limit preset needs a nonzero mu"),
    ("g-invariant", {}, (0.0, 1.0, 1.0)),
    ("g-invariant", {"lam": 0.5}, _TAKES_NO_LAM.format("g-invariant")),
    ("g-invariant", {"mu": 0.25}, (0.0, 0.25, 1.0)),
    ("g-invariant", {"mu": 0.0}, (0.0, 0.0, 1.0)),
    ("custom", {}, _CUSTOM_NEEDS),
    ("custom", {"lam": 0.5}, _CUSTOM_NEEDS),
    ("custom", {"mu": 0.25}, _CUSTOM_NEEDS),
    ("custom", {"mu": 0.0}, _CUSTOM_NEEDS),
    ("custom", {"lam": 0.5, "mu": 0.25}, (0.5, 0.25, 1.0)),
    # the order of the checks: mu before lam, the algebra before mu
    ("principal-limit", {"lam": 0.5, "mu": 0.0}, "principal-limit preset needs a nonzero mu"),
    ("no-such-preset", {"lam": 0.5}, "unknown preset 'no-such-preset' (choose from "
     "('modified-principal', 'pure-qt', 'principal-limit', 'g-invariant', 'custom'))"),
    # the su2 completely-real variant: mu = i and rescale = -i
    ("modified-principal", {"completely_real": True}, (-1.0, 1j, -1j)),
    ("pure-qt", {"completely_real": True}, (0.0, 1j, -1j)),
    ("pure-qt", {"lam": 0.5, "completely_real": True}, (0.5, 1j, -1j)),
    ("principal-limit", {"completely_real": True}, (0.0, 1j, -1j)),
    ("g-invariant", {"completely_real": True}, (0.0, 1j, -1j)),
    ("custom", {"lam": 0.5, "completely_real": True}, _CUSTOM_NEEDS),
    ("g-invariant", {"lam": 0.5, "completely_real": True}, _TAKES_NO_LAM.format("g-invariant")),
    ("principal-limit", {"mu": 0.0, "completely_real": True},
     "principal-limit preset needs a nonzero mu"),
    ("custom", {"lam": 0.5, "mu": 0.25, "completely_real": True},
     "the completely-real variant fixes mu = i; the custom preset takes no mu with it"),
    ("g-invariant", {"mu": 0.25, "algebra": "sl2r", "completely_real": True},
     "the completely-real variant is su2-only"),
]


@pytest.mark.parametrize("name, kwargs, expected", _PRESET_TABLE)
def test_preset_parameter_table(name, kwargs, expected):
    """Every preset with nothing, lam, mu or mu = 0 given, and the completely-real
    variant: its (lam, mu, rescale), or the exact error text in the order of the checks."""
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            make_preset(name, **kwargs)
        assert str(err.value) == expected
        return
    p = make_preset(name, **kwargs)
    assert isinstance(p.lam, complex) and isinstance(p.mu, complex)
    assert (p.lam, p.mu, p.rescale) == expected


def _kit_and_split(algebra="su2", **kw):
    preset = make_preset("modified-principal", algebra=algebra, **kw)
    return GroupKit(preset.bialgebra), splitting(preset)


# a library call with invalid input and the start of its error text
_REJECTED = {
    "r-matrix-shape": (lambda: QuasiBialgebra(make_su2().g, np.eye(2)),
                       "r-matrix has wrong shape"),
    "unknown-boundary": (lambda: LoopState(*_kit_and_split(), np.eye(2)[None, None], "dirichlet"),
                         "unknown boundary condition 'dirichlet'"),
    "unknown-graph-route": (lambda: graph_at(*_kit_and_split(), np.eye(2), route="direct"),
                            "unknown graph route 'direct'"),
    # the realization is looked up by the exact algebra name
    "no-realization": (lambda: GroupKit(QuasiBialgebra(LieAlgebra(make_su2().g.c, name="su2x"),
                                                       make_su2().rho)),
                       "no matrix realization for algebra 'su2x'"),
    "dual-scale-completely-real": (lambda: _kit_and_split(completely_real=True)[0].dual_scale,
                                   "vector coordinates need a real positive r-rescale"),
    "vector-coordinates-on-sl2r": (
        lambda: _kit_and_split("sl2r")[0].su2star_from_vector(np.zeros(3)),
        "vector coordinates exist for the su2 dual only"),
}


@pytest.mark.parametrize("case", _REJECTED)
def test_library_rejects_invalid_input(case):
    call, message = _REJECTED[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value).startswith(message)
