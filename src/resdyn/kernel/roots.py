"""Roots of real polynomials from the eigenvalues of their companion matrices.

The eigenvalues are backward stable in the coefficients (Edelman &
Murakami, Math. Comp. 64, 763 (1995)); two Newton steps on the original
coefficients then win back the digit the eigenvalue solve loses.  The
result is accepted on its pointwise relative backward error, which stays
meaningful for the huge anti-bound root next to the quartic-to-cubic
degeneracy, where a residual scaled by the coefficients would not.  A
batch shares one stacked eigenvalue solve per degree; the companion matrix
and Horner's rule follow numpy.polynomial's polycompanion and polyval step
for step, so every root has the bits of polyroots on its polynomial alone.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonConvergence

BACKWARD_TOL = 1e-10


def _horner(c, z):
    """sum_k c[..., k] z^k, each row of c at its row of z."""
    value = c[..., -1:] + z * 0
    for i in range(2, c.shape[-1] + 1):
        value = c[..., -i, None] + value * z
    return value


def backward_errors(coefficients, z):
    """|p(z)| / sum_k |c_k| |z|^k at each z: the relative coefficient
    perturbation for which z is an exact root."""
    c = np.asarray(coefficients, dtype=float)
    scale = _horner(np.abs(c), np.abs(z))
    return np.abs(_horner(c, z)) / np.where(scale > 0, scale, 1.0)


def companion_eigvals(c):
    """The companion-matrix eigenvalues of each row of c, sorted by (Re, Im)."""
    m, n = c.shape[0], c.shape[1] - 1
    mat = np.zeros((m, n, n))
    mat[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    mat[:, :, -1] -= c[:, :-1] / c[:, -1:]
    z = np.linalg.eigvals(mat).astype(complex)
    # alone, a matrix with only real eigenvalues gives them an imaginary +0
    z = np.where(np.all(z.imag == 0, axis=1, keepdims=True), z.real, z)
    z.sort(axis=1)
    return z


def batch_roots(coefficients):
    """The roots of each row of an (m, n + 1) array of real ascending
    coefficients (n >= 1, c_n != 0), sorted by (Re, Im), real ones with an
    imaginary part of exactly 0 and complex ones in exact conjugate pairs,
    and each row's worst backward error, for ``accept_roots``."""
    c = np.asarray(coefficients, dtype=float)
    dc = c[:, 1:] * np.arange(1, c.shape[1])
    z = companion_eigvals(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            value = _horner(c, z)
            trial = z - value / _horner(dc, z)
            z = np.where(np.abs(_horner(c, trial)) < np.abs(value), trial, z)
    worst = np.max(backward_errors(c, z), axis=1, initial=0.0)
    order = np.lexsort((z.imag, z.real), axis=1)
    return np.take_along_axis(z, order, axis=1), worst


def accept_roots(roots, worst):
    """One row of ``batch_roots`` as a list, or NonConvergence, carrying
    the roots and the worst backward error, when it exceeds BACKWARD_TOL."""
    if not worst <= BACKWARD_TOL:
        raise NonConvergence(
            f"root backward error {worst:.3e} exceeds {BACKWARD_TOL:.0e}",
            best=list(roots), residual=float(worst))
    return [complex(r) for r in roots]


def poly_roots(coefficients):
    """All roots of the real polynomial sum_k c_k z^k (degree >= 1 with
    c_n != 0), sorted by (Re, Im): a batch of one."""
    roots, worst = batch_roots([coefficients])
    return accept_roots(roots[0], worst[0])
