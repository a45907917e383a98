"""Poisson-Lie T-dual sigma models on quasitriangular Lie bialgebras.

The package builds finite-dimensional Lie bialgebras from structure
constants, assembles the double Lie algebra with its invariant pairing,
constructs the two-parameter family of orthogonal splittings, and
integrates both the loop-field flow on the double and its point-particle
reduction, verifying duality and conservation laws numerically.
"""

__version__ = "0.1.0"

from .liecore import (
    LieAlgebra,
    bracket_coeffs,
    jacobi_residual,
    ad_matrix,
)
from .bialgebra import (
    QuasiBialgebra,
    DoubleAlgebra,
    cybe_residual,
    cobracket_matrix,
    dual_algebra,
    hyperbolic_pairing,
    build_double,
    chiral_matrix,
    chiral_iso_defect,
)
from .models import ModelPreset, make_sl2r, make_su2, make_preset, PRESET_NAMES
from .duality import SplittingData, splitting, graph_at

__all__ = [
    "LieAlgebra",
    "bracket_coeffs",
    "jacobi_residual",
    "ad_matrix",
    "QuasiBialgebra",
    "DoubleAlgebra",
    "cybe_residual",
    "cobracket_matrix",
    "dual_algebra",
    "hyperbolic_pairing",
    "build_double",
    "chiral_matrix",
    "chiral_iso_defect",
    "ModelPreset",
    "make_sl2r",
    "make_su2",
    "make_preset",
    "PRESET_NAMES",
    "SplittingData",
    "splitting",
    "graph_at",
]
