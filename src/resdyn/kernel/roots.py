"""Roots of a real polynomial from the eigenvalues of its companion matrix.

numpy's ``polyroots`` is backward stable in the coefficients (Edelman &
Murakami, Math. Comp. 64, 763 (1995)); two Newton steps on the original
coefficients then win back the digit the eigenvalue solve loses.  The
result is accepted on its pointwise relative backward error, which stays
meaningful for the huge anti-bound root next to the quartic-to-cubic
degeneracy, where a residual scaled by the coefficients would not.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyder, polyroots, polyval

from ..errors import NonConvergence

BACKWARD_TOL = 1e-10


def backward_errors(coefficients, z):
    """|p(z)| / sum_k |c_k| |z|^k at each z: the relative coefficient
    perturbation for which z is an exact root."""
    c = np.asarray(coefficients, dtype=float)
    scale = polyval(np.abs(z), np.abs(c))
    return np.abs(polyval(z, c)) / np.where(scale > 0, scale, 1.0)


def poly_roots(coefficients):
    """All roots of the real polynomial sum_k c_k z^k, sorted by (Re, Im).

    Real roots have an imaginary part of exactly 0 and complex roots come
    in exact conjugate pairs.  Raises NonConvergence, carrying the roots
    and the worst backward error, when that error exceeds BACKWARD_TOL.
    """
    c = np.asarray(coefficients, dtype=float)
    dc = polyder(c)
    z = polyroots(c).astype(complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            trial = z - polyval(z, c) / polyval(z, dc)
            better = np.abs(polyval(trial, c)) < np.abs(polyval(z, c))
            z = np.where(better, trial, z)
    worst = float(np.max(backward_errors(c, z), initial=0.0))
    if not worst <= BACKWARD_TOL:
        raise NonConvergence(
            f"root backward error {worst:.3e} exceeds {BACKWARD_TOL:.0e}",
            best=list(z), residual=worst)
    return [complex(z[i]) for i in np.lexsort((z.imag, z.real))]
