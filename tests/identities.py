"""Identities of the chiral isomorphism and of the splitting.

They hold for every r-matrix (with invertible symmetric part), lam and mu,
so no model can move them and ``validation_report`` does not print them.
Only a defect in :func:`~pltdual.bialgebra.chiral_matrix` or
:func:`~pltdual.duality.splitting` can, and
``test_duality.py::test_identity_checks_flag_code_defects`` seeds one for
each check.
"""

import numpy as np

from pltdual.bialgebra import hyperbolic_pairing


def chiral_pairing_defect(bialgebra, mat) -> float:
    """Deviation of the pairing carried by the chiral matrix ``mat`` from
    K (-) K, the difference of the K-forms on g_L and g_R."""
    form = np.kron(np.diag([1.0, -1.0]), bialgebra.k_matrix)
    return float(np.max(np.abs(mat.T @ form @ mat - hyperbolic_pairing(bialgebra.g.dim))))


def splitting_defects(split) -> dict:
    """Orthogonality of E_+ and E_-, their diagonal pairings against
    +-(lam+1+2mu) K^-1, and the projector identities of D = pi_+ - pi_-:
    max(|D^2 - 1|, |D B_+ - B_+|, |D B_- + B_-|) on the bases B_+-."""
    plus, minus = split.basis_pair
    pair = split.pairing
    expected = split.preset.split_denominator * split.preset.bialgebra.kinv_matrix
    d = split.pi_diff

    def worst(*arrays):
        return max(float(np.max(np.abs(a))) for a in arrays)

    return {
        "orthogonality": worst(plus.T @ pair @ minus),
        "diagonal_plus": worst(plus.T @ pair @ plus - expected),
        "diagonal_minus": worst(minus.T @ pair @ minus + expected),
        "projectors": worst(d @ d - np.eye(len(d)), d @ plus - plus, d @ minus + minus),
    }
