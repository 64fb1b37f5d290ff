"""Brute-force verification: Chebyshev time propagation on a truncated lattice.

The dot plus 2N lead sites form a real symmetric matrix whose exact dynamics
(up to the reflection horizon N/(2b)) ground-truths every contour-based
amplitude.  The propagation starts from |d1> and runs in real arithmetic:
the Chebyshev vectors are streamed in fixed-size blocks, and each block is
reduced to its d1 and d2 entries and its squared norms, from which the
amplitudes and the norm at every grid time follow.  The expansion
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


# Chebyshev vectors generated per block; each block is reduced to its d1 and
# d2 rows and its squared norms before the next one overwrites it
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


def _norms(coeff, squares):
    """||psi|| for psi = sum_k c_k T_k|d1> at each row of ``coeff`` (see
    _coefficients), from squares[j] = <d1|T_j^2|d1>, j = 0..order.

    T_k T_l = (T_{k+l} + T_{|k-l|})/2, so <T_k d1, T_l d1> is
    (mu_{k+l} + mu_{|k-l|})/2 with moments mu_n = <d1|T_n|d1>.  Re psi
    holds the even k and Im psi the odd k; within one parity k + l and
    k - l are even, and mu_{2j} = 2 squares[j] - 1 since T_{2j} = 2 T_j^2
    - 1.  So ||psi||^2 is half the sum of the even-index moments against
    the even entries of the row's self-convolution and, lags up to the
    order only, of its autocorrelation: one real FFT of 2^m >= 2 order + 1
    points per row, so neither wraps.
    """
    order = coeff.shape[1] - 1
    n = 1 << (2 * order).bit_length()
    mu = 2.0 * squares - 1.0  # mu_{2j}
    # lag 0 once, lags +-d twice
    lag_mu = np.where(np.arange(0, order + 1, 2) == 0, 1.0, 2.0) \
        * mu[:order // 2 + 1]
    out = np.empty(len(coeff))
    for i, row in enumerate(coeff):
        spec = np.fft.rfft(row, n)
        conv = np.fft.irfft(spec * spec, n)[0:2 * order + 1:2]
        corr = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, n)[0:order + 1:2]
        out[i] = 0.5 * (np.einsum("j,j", mu, conv)
                        + np.einsum("j,j", lag_mu, corr))
    return np.sqrt(out)


def propagate(lattice, times):
    """<d1|e^{-iHt}|d1> and <d2|e^{-iHt}|d1> on a time grid.

    Chebyshev expansion of the propagator with the spectrum rescaled by the
    exact Gershgorin row bound.  H is real symmetric and the initial state
    |d1> is real, so every T_k(H~)|d1> is real.  They are generated in
    blocks of _BLOCK, and each block is reduced to its d1 and d2 rows and
    its squared norms; no state vector is ever formed.  The amplitudes at
    every distinct |t| are small sums over those rows (even k carry real
    coefficients, odd k imaginary ones), and the norms follow from the
    squared norms through the moments <d1|T_n|d1> (see _norms).  Since
    J_k(-x) = (-1)^k J_k(x), the amplitude at -t is the conjugate of the
    one at t.  Working memory is _BLOCK + 2 vectors plus a few reals per
    order, and no step calls BLAS.  Norm conservation is reported per time.
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

    dim = lattice.dimension
    rows = np.empty((order + 1, 2))  # d1 and d2 entries of T_k(H~)|d1>
    squares = np.empty(order + 1)  # <d1|T_k(H~)^2|d1>
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
        rows[k0:k0 + n] = block[:, :2]
        squares[k0:k0 + n] = np.einsum("ij,ij->i", block, block)
        vecs[:2] = vecs[n:n + 2]

    real = np.einsum("tk,ks->ts", coeff[:, 0::2], rows[0::2])
    imag = np.einsum("tk,ks->ts", coeff[:, 1::2], rows[1::2])
    sign = np.where(times < 0, -1.0, 1.0)
    amplitudes = {site: real[inverse, i] + 1j * sign * imag[inverse, i]
                  for i, site in enumerate(("d1", "d2"))}
    norms = _norms(coeff, squares)[inverse]
    return PropagationResult(times, amplitudes, norms, lattice.safe_horizon,
                             tuple(flags))
