"""Brute-force verification: Chebyshev time propagation on a truncated lattice.

The dot plus 2N lead sites form a real symmetric matrix whose exact dynamics
(up to the reflection horizon N/(2b)) ground-truths every contour-based
amplitude.  The propagation starts from |d1> and runs in real arithmetic:
a three-term Chebyshev recurrence keeps two vectors and records only their
d1 and d2 entries, from which the amplitudes at every grid time follow.
The expansion coefficients (-i)^k J_k(alpha) are the Fourier coefficients
of e^{-i alpha cos theta} (Jacobi-Anger), taken from one FFT per distinct
|alpha|, so this module shares no Bessel evaluation with the analytic side.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import jv

from .errors import DomainError, ReflectionContamination
from .lattice import TDotParams


@dataclass(frozen=True)
class TruncatedLattice:
    """Finite Hamiltonian: [d1, d2, L_1..L_N, R_1..R_N] site ordering."""

    params: TDotParams
    n_sites_per_lead: int
    matrix: sparse.csr_matrix

    @property
    def dimension(self):
        return 2 + 2 * self.n_sites_per_lead

    @property
    def safe_horizon(self):
        """Largest |t| free of boundary reflections: N/(2b) with group
        velocity at most 2b."""
        return self.n_sites_per_lead / (2.0 * self.params.b)


def build_hamiltonian(params, n_sites_per_lead):
    """Assemble the truncated tight-binding matrix (real symmetric)."""
    n = int(n_sites_per_lead)
    if n < 50:
        raise DomainError("need at least 50 sites per lead")
    dim = 2 + 2 * n
    rows, cols, vals = [], [], []

    def add(i, j, v):
        if v != 0.0:
            rows.append(i)
            cols.append(j)
            vals.append(v)
            if i != j:
                rows.append(j)
                cols.append(i)
                vals.append(v)

    add(0, 0, params.eps1)
    add(1, 1, params.eps2)
    add(0, 1, -params.g)
    left0, right0 = 2, 2 + n
    add(1, left0, -params.t2l)
    add(1, right0, -params.t2r)
    for x in range(n - 1):
        add(left0 + x, left0 + x + 1, -params.b)
        add(right0 + x, right0 + x + 1, -params.b)
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return TruncatedLattice(params, n, mat)


@dataclass(frozen=True)
class PropagationResult:
    """<d1|e^{-iHt}|d1> and <d2|e^{-iHt}|d1> on a time grid (arrays in grid
    order)."""

    times: np.ndarray
    amplitudes: dict  # "d1", "d2" -> complex array over the grid
    flags: tuple = ()


def _chebyshev_order(alpha):
    k = int(abs(alpha)) + 20
    while abs(jv(k, alpha)) > 1e-17:
        k += 10
    return k + 10


def _coefficients(alphas, order):
    """Real c with c_k = (2 - delta_k0) (-i)^k J_k(alpha) equal to c[:, k]
    for even k and to i c[:, k] for odd k, one row per alpha >= 0.

    By Jacobi-Anger, cos(alpha cos x) - sin(alpha cos x) is the cosine
    series sum_k c[:, k] cos(k x), so one real FFT per alpha on
    2^m >= 2(order + 1) points gives every coefficient; the aliases it folds
    in are J_k beyond the order, which _chebyshev_order keeps below 1e-17.
    """
    m = 1 << (2 * order + 1).bit_length()
    grid = np.cos(2.0 * np.pi * np.arange(m) / m)
    series = np.empty((len(alphas), order + 1))
    for row, alpha in zip(series, alphas):  # one row at a time keeps the peak
        arg = alpha * grid                  # at a few arrays of length m
        row[:] = np.fft.rfft(np.cos(arg) - np.sin(arg)).real[:order + 1]
    series *= np.where(np.arange(order + 1) == 0, 1.0, 2.0) / m
    return series


def propagate(lattice, times):
    """<d1|e^{-iHt}|d1> and <d2|e^{-iHt}|d1> on a time grid.

    Chebyshev expansion of the propagator with the spectrum rescaled by the
    exact Gershgorin row bound.  H is real symmetric and the initial state
    |d1> is real, so every T_k(H~)|d1> is real.  The three-term recurrence
    keeps two of them at a time and records only their d1 and d2 entries.
    The amplitudes at every distinct |t| are small sums over those rows
    (even k carry real coefficients, odd k imaginary ones).  Since
    J_k(-x) = (-1)^k J_k(x), the amplitude at -t is the conjugate of the
    one at t.
    """
    times = np.array(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise DomainError("times must be a non-empty 1-d grid")
    flags = []
    mags, inverse = np.unique(np.abs(times), return_inverse=True)
    t_max = float(mags[-1])
    if t_max > lattice.safe_horizon:
        flags.append("reflection-contamination")
        warnings.warn(
            f"max |t| = {t_max:g} exceeds the reflection-free horizon "
            f"{lattice.safe_horizon:g}", ReflectionContamination)

    h = lattice.matrix
    scale = float(np.max(np.abs(h).sum(axis=1)))
    h_tilde = h / scale
    alpha_max = scale * t_max
    order = _chebyshev_order(alpha_max) if alpha_max > 0 else 1
    coeff = _coefficients(scale * mags, order)

    rows = np.empty((order + 1, 2))  # d1 and d2 entries of T_k(H~)|d1>
    prev = np.zeros(lattice.dimension)
    prev[0] = 1.0
    cur = h_tilde @ prev
    rows[0], rows[1] = prev[:2], cur[:2]
    for k in range(2, order + 1):
        cur, prev = 2.0 * (h_tilde @ cur) - prev, cur
        rows[k] = cur[:2]

    real = np.einsum("tk,ks->ts", coeff[:, 0::2], rows[0::2])
    imag = np.einsum("tk,ks->ts", coeff[:, 1::2], rows[1::2])
    sign = np.where(times < 0, -1.0, 1.0)
    amplitudes = {site: real[inverse, i] + 1j * sign * imag[inverse, i]
                  for i, site in enumerate(("d1", "d2"))}
    return PropagationResult(times, amplitudes, tuple(flags))
