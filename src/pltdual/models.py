"""Catalogue of concrete bialgebras and splitting presets.

Two quasitriangular models are built in:

* ``sl2r``: basis (H, X+, X-) with [H, X+-] = +-2 X+-, [X+, X-] = H and
  r = X+ (x) X- + (1/4) H (x) H.
* ``su2``: basis (e1, e2, e3) with [e_i, e_j] = eps_ijk e_k and
  r = -sum_i e_i (x) e_i + i (e1 (x) e2 - e2 (x) e1).

A preset fixes the splitting parameters (lam, mu) of the generalized
metric E_e^-1 = (lam + 1) r2 + mu K^-1 together with an optional scalar
rescaling of r used by the large- and small-mu limiting families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bialgebra import QuasiBialgebra
from .liecore import LieAlgebra

__all__ = [
    "make_sl2r",
    "make_su2",
    "ModelPreset",
    "make_preset",
    "PRESET_NAMES",
    "ALGEBRA_NAMES",
]

ALGEBRA_NAMES = ("sl2r", "su2")

# the Levi-Civita symbol eps_ijk
_EPS = np.fromfunction(lambda i, j, k: (i - j) * (j - k) * (k - i) / 2.0, (3, 3, 3))

# each preset's lam default, mu default and whether it takes a lam; a
# None default must be given
_PRESETS = {
    "modified-principal": (-1.0, 1.0, False),
    "pure-qt": (0.0, 0.0, True),
    "principal-limit": (0.0, 1e3, False),
    "g-invariant": (0.0, 1.0, False),
    "custom": (None, None, True),
}
PRESET_NAMES = tuple(_PRESETS)


def make_sl2r() -> QuasiBialgebra:
    c = np.zeros((3, 3, 3), dtype=complex)
    # basis order: H, X+, X-
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    c[0, 2, 2] = -2.0
    c[2, 0, 2] = 2.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    g = LieAlgebra(c, ("H", "X+", "X-"), name="sl2r")
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 2] = 1.0
    rho[0, 0] = 0.25
    return QuasiBialgebra(g, rho, name="sl2r")


def make_su2() -> QuasiBialgebra:
    g = LieAlgebra(_EPS.astype(complex), ("e1", "e2", "e3"), name="su2")
    rho = -np.eye(3, dtype=complex)
    rho[0, 1] += 1j
    rho[1, 0] -= 1j
    return QuasiBialgebra(g, rho, name="su2")


def make_algebra(name: str) -> QuasiBialgebra:
    if name == "sl2r":
        return make_sl2r()
    if name == "su2":
        return make_su2()
    raise ValueError(f"unknown algebra '{name}' (choose from {ALGEBRA_NAMES})")


@dataclass
class ModelPreset:
    """A bialgebra together with splitting parameters (lam, mu).

    ``rescale`` multiplies r before anything else is built; the limiting
    families use rescale = 1/mu so that the generalized metric stays
    finite as mu grows.  ``completely_real`` (su2 only) takes mu = i and
    rescales r by -i, which makes every splitting matrix real.
    """

    name: str
    bialgebra: QuasiBialgebra
    lam: complex
    mu: complex
    rescale: complex = 1.0

    def __post_init__(self):
        if abs(self.rescale) < 1e-300:
            raise ValueError("rescale factor must be nonzero")
        if self.rescale != 1.0:
            self.bialgebra = self.bialgebra.rescaled(self.rescale)

    @property
    def split_denominator(self) -> complex:
        return self.lam + 1.0 + 2.0 * self.mu

    def is_factorisable(self) -> bool:
        return abs(self.split_denominator) > 1e-8


def make_preset(
    name: str,
    algebra: str = "su2",
    lam: complex | None = None,
    mu: complex | None = None,
    completely_real: bool = False,
) -> ModelPreset:
    """Build a named preset from its row of ``_PRESETS``: a given lam or mu
    replaces the default, a preset that does not take lam rejects one, and
    the completely-real variant takes no mu."""
    b = make_algebra(algebra)
    if name not in _PRESETS:
        raise ValueError(f"unknown preset '{name}' (choose from {PRESET_NAMES})")
    lam_default, mu_default, takes_lam = _PRESETS[name]
    if (lam_default is None and lam is None) or (mu_default is None and mu is None):
        raise ValueError(f"{name} preset needs explicit lam and mu")
    lam_ = complex(lam_default if lam is None else lam)
    mu_ = complex(mu_default if mu is None else mu)
    rescale: complex = 1.0
    if name == "principal-limit":
        if abs(mu_) < 1e-300:
            raise ValueError("principal-limit preset needs a nonzero mu")
        rescale = 1.0 / mu_
    if lam is not None and not takes_lam:
        takers = " and ".join(n for n, row in _PRESETS.items() if row[2])
        raise ValueError(f"the {name} preset fixes lam; only {takers} take one")
    if completely_real:
        if algebra != "su2":
            raise ValueError("the completely-real variant is su2-only")
        if mu is not None:
            raise ValueError(f"the completely-real variant fixes mu = i; the {name} preset "
                             "takes no mu with it")
        mu_, rescale = 1j, -1j
    return ModelPreset(name, b, lam_, mu_, rescale)
