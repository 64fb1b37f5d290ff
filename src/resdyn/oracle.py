"""Brute-force verification: Chebyshev time propagation on a truncated lattice.

The dot plus 2N lead sites form a real symmetric matrix whose exact dynamics
(up to the reflection horizon N/(2b)) ground-truths every contour-based
amplitude.  The propagation starts from |d1> and runs in real arithmetic:
the Chebyshev vectors are streamed in fixed-size blocks and never stored
whole, so memory stays at a few vectors per grid time.  The expansion
coefficients (-i)^k J_k(alpha) are the Fourier coefficients of
e^{-i alpha cos theta} (Jacobi-Anger), taken from one FFT per distinct
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
    """<d1|e^{-iHt}|d1> and <d2|e^{-iHt}|d1> on a time grid, with the norm
    of the propagated state at each time (arrays in grid order)."""

    times: np.ndarray
    amplitudes: dict  # "d1", "d2" -> complex array over the grid
    norms: np.ndarray
    safe_horizon: float
    flags: tuple = ()


# Chebyshev vectors generated and consumed per block: working memory is
# (n_times + _BLOCK) * dim reals instead of (order + 1) * dim complexes
_BLOCK = 128


def _gershgorin_bound(mat):
    return float(np.max(np.abs(mat).sum(axis=1)))


def _chebyshev_order(alpha):
    k = int(abs(alpha)) + 20
    while abs(jv(k, alpha)) > 1e-17:
        k += 10
    return k + 10


def _coefficients(alphas, order):
    """Real c with c_k = (2 - delta_k0) (-i)^k J_k(alpha) equal to c[:, k]
    for even k and to i c[:, k] for odd k, one row per alpha >= 0.

    By Jacobi-Anger, cos(alpha cos x) - sin(alpha cos x) is the cosine
    series sum_k c[:, k] cos(k x), so one real FFT on 2^m >= 2(order + 1)
    points gives every coefficient; the aliases it folds in are J_k beyond
    the order, which _chebyshev_order keeps below 1e-17.
    """
    m = 1 << (2 * order + 1).bit_length()
    arg = np.outer(alphas, np.cos(2.0 * np.pi * np.arange(m) / m))
    series = np.fft.rfft(np.cos(arg) - np.sin(arg), axis=1).real[:, :order + 1]
    return np.where(np.arange(order + 1) == 0, 1.0, 2.0) / m * series


def propagate(lattice, times):
    """<d1|e^{-iHt}|d1> and <d2|e^{-iHt}|d1> on a time grid.

    Chebyshev expansion of the propagator with the spectrum rescaled by the
    exact Gershgorin row bound.  H is real symmetric and the initial state
    |d1> is real, so every T_k(H~)|d1> is real; they are generated in blocks
    of _BLOCK and each block is added into Re and Im of the state at every
    distinct |t| with two real matrix products (even k carry real
    coefficients, odd k imaginary ones).  Since J_k(-x) = (-1)^k J_k(x),
    the state at -t is the conjugate of the state at t.  Working memory is
    (n_times + _BLOCK) * dim reals, whatever the expansion order.  Norm
    conservation is reported per time.
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
    scale = _gershgorin_bound(h)
    h_tilde = h / scale
    alpha_max = scale * t_max
    order = _chebyshev_order(alpha_max) if alpha_max > 0 else 1
    coeff = _coefficients(scale * mags, order)
    c_even, c_odd = coeff[:, 0::2].copy(), coeff[:, 1::2].copy()

    dim = lattice.dimension
    real = np.zeros((len(mags), dim))
    imag = np.zeros((len(mags), dim))
    vecs = np.empty((_BLOCK + 2, dim))  # rows 0, 1 carry T_{k0-2}, T_{k0-1}
    for k0 in range(0, order + 1, _BLOCK):
        n = min(_BLOCK, order + 1 - k0)
        for j in range(2, n + 2):
            k = k0 + j - 2
            if k >= 2:
                vecs[j] = 2.0 * (h_tilde @ vecs[j - 1]) - vecs[j - 2]
            elif k == 1:
                vecs[j] = h_tilde @ vecs[j - 1]
            else:
                vecs[j] = 0.0
                vecs[j, 0] = 1.0
        block = vecs[2:n + 2]
        even, odd = block[0::2], block[1::2]  # k0 is even
        real += c_even[:, k0 // 2:k0 // 2 + len(even)] @ even
        imag += c_odd[:, k0 // 2:k0 // 2 + len(odd)] @ odd
        vecs[:2] = vecs[n:n + 2]

    sign = np.where(times < 0, -1.0, 1.0)
    amplitudes = {site: real[inverse, i] + 1j * sign * imag[inverse, i]
                  for i, site in enumerate(("d1", "d2"))}
    norms = np.sqrt(np.einsum("ij,ij->i", real, real)
                    + np.einsum("ij,ij->i", imag, imag))[inverse]
    return PropagationResult(times, amplitudes, norms, lattice.safe_horizon,
                             tuple(flags))
