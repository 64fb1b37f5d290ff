"""Brute-force verification: Chebyshev time propagation on a truncated lattice.

The dot plus 2N lead sites form a real symmetric Hamiltonian whose exact
dynamics (up to the reflection horizon N/(2b)) ground-truths every
contour-based amplitude; it is propagated from |d1> on a numpy stencil over
the one lead chain that couples to d2, each step only over its light cone.
The coefficients (-i)^k J_k(alpha) come from one real FFT of
e^{-i alpha cos theta} per distinct |alpha| (Jacobi-Anger), sampled from a
quarter period, so this module shares no Bessel evaluation with the
analytic side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReflectionContamination
from .lattice import TDotParams

MIN_SITES_PER_LEAD = 50


@dataclass(frozen=True)
class TruncatedLattice:
    """The dot d1-d2 with N sites per lead; d2 couples to L_1 and R_1."""

    params: TDotParams
    n_sites_per_lead: int

    @property
    def safe_horizon(self):
        """Largest |t| free of boundary reflections: N/(2b) with group
        velocity at most 2b."""
        return self.n_sites_per_lead / (2.0 * self.params.b)

    @property
    def scale(self):
        """Gershgorin bound: the largest absolute row sum of H."""
        p = self.params
        return max(abs(p.eps1) + abs(p.g),
                   abs(p.g) + abs(p.eps2) + abs(p.t2l) + abs(p.t2r),
                   abs(p.b) + max(abs(p.t2l), abs(p.t2r), abs(p.b)))


def build_hamiltonian(params, n_sites_per_lead):
    """The truncated tight-binding lattice with N sites per lead."""
    n = int(n_sites_per_lead)
    if n < MIN_SITES_PER_LEAD:
        raise DomainError(f"need at least {MIN_SITES_PER_LEAD} sites per lead")
    return TruncatedLattice(params, n)


@dataclass(frozen=True)
class PropagationResult:
    """<d1|e^{-iHt}|d1> and <d2|e^{-iHt}|d1> on a time grid (arrays in grid
    order)."""

    times: np.ndarray
    amplitudes: dict  # "d1", "d2" -> complex array over the grid
    flags: tuple = ()


def _chebyshev_order(alpha):
    """Smallest k > alpha with |J_k(alpha)| <= (z e^s/(1 + s))^k < 1e-17,
    z = alpha/k, s = sqrt(1 - z^2) (Kapteyn, DLMF 10.14.5), by bisection: the
    bound falls with k and needs about 12 alpha^(1/3) orders past alpha."""
    if alpha == 0:
        return 1
    lo, hi = math.floor(alpha), math.ceil(alpha + 15.0 * alpha ** (1 / 3)) + 60
    while hi - lo > 1:
        mid = (lo + hi) // 2
        z = alpha / mid
        s = math.sqrt((1.0 - z) * (1.0 + z))
        below = mid * (math.log(z) + s - math.log1p(s)) <= math.log(1e-17)
        lo, hi = (lo, mid) if below else (mid, hi)
    return hi


def _coefficients(alphas, order):
    """Real c with c_k = (2 - delta_k0) (-i)^k J_k(alpha) equal to c[:, k]
    for even k and to i c[:, k] for odd k, one row per alpha >= 0.

    By Jacobi-Anger, f(x) = cos(alpha cos x) - sin(alpha cos x) is the cosine
    series sum_k c[:, k] cos(k x), so one real FFT per alpha of f on
    m = 2^j >= 2(order + 1) points gives every coefficient; the aliases it
    folds in are J_k beyond the order, which _chebyshev_order keeps below
    1e-17.  cos and sin are taken on the first quarter period alone, where
    cos x falls from 1 to exactly 0: cos(pi - x) = -cos x gives
    f_{m/2-j} = C_j + S_j from f_j = C_j - S_j, and f_{m-j} = f_j.
    """
    m = 1 << (2 * order + 1).bit_length()
    quarter, half = m // 4, m // 2
    grid = np.cos(2.0 * np.pi * np.arange(quarter + 1) / m)
    grid[-1] = 0.0  # not cos(pi/2), which rounds to 6e-17
    samples = np.empty(m)
    series = np.empty((len(alphas), order + 1))
    for row, alpha in zip(series, alphas):  # one row at a time keeps the peak
        arg = alpha * grid                  # at a few arrays of length m
        cos, sin = np.cos(arg), np.sin(arg)
        np.subtract(cos, sin, out=samples[:quarter + 1])
        np.add(cos, sin, out=samples[half:quarter - 1:-1])
        samples[half + 1:] = samples[half - 1:0:-1]
        row[:] = np.fft.rfft(samples).real[:order + 1]
    series *= np.where(np.arange(order + 1) == 0, 1.0, 2.0) / m
    return series


def propagate(lattice, times):
    """<d1|e^{-iHt}|d1> and <d2|e^{-iHt}|d1> on a time grid.

    Chebyshev expansion with H~ = H / (Gershgorin bound); H and |d1> are real,
    so the recurrence runs on two real vectors T_k(H~)|d1>.  The leads reach
    d2 only through c_j = (t2l L_j + t2r R_j)/tau, tau = hypot(t2l, t2r), and
    H maps the chain [d1, d2, c_1 .. c_N] (hops g, tau, b, b, ..) into
    itself, so the vectors hold that chain and the two-lead bound still
    covers its spectrum.  T_k|d1> vanishes beyond site k, so min(N, order) + 3
    entries suffice, and a step need not touch those past its light cone:
    the bulk hop (three slice operations) runs on views re-made every 64
    steps, which reach 2 entries past the block's last step, and the
    entries beyond them stay exactly zero.  Then d1, d2 and c_1 take their
    own rows.  The amplitudes sum the d1 and d2 entries at each distinct
    |t|, and J_k(-x) = (-1)^k J_k(x) makes the one at -t the conjugate of
    that at t.
    """
    times = np.array(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or not np.isfinite(times).all():
        raise DomainError("times must be a finite, non-empty 1-d grid")
    flags = []
    mags, inverse = np.unique(np.abs(times), return_inverse=True)
    t_max = float(mags[-1])
    if t_max > lattice.safe_horizon:
        flags.append("reflection-contamination")
        warnings.warn(
            f"max |t| = {t_max:g} exceeds the reflection-free horizon "
            f"{lattice.safe_horizon:g}", ReflectionContamination)

    p, n, scale = lattice.params, lattice.n_sites_per_lead, lattice.scale
    order = _chebyshev_order(scale * t_max)
    coeff = _coefficients(scale * mags, order)

    e1, e2, g = p.eps1 / scale, p.eps2 / scale, -p.g / scale
    tau, hop = -math.hypot(p.t2l, p.t2r) / scale, -p.b / scale
    size = min(n, order) + 3
    vecs = np.zeros((2, size))  # T_k|d1> lives in vecs[k % 2]
    vecs[0, 0], vecs[1, 0], vecs[1, 1] = 1.0, e1, g
    buffer = np.empty(size - 4)
    rows = np.empty((2, order + 1))  # d1 and d2 entries of T_k(H~)|d1>
    rows[:, 0], rows[:, 1] = (1.0, 0.0), (e1, g)
    for k in range(2, order + 1):
        if k % 64 == 2:  # the bulk grows by 64 sites every 64 steps
            hi = min(size - 1, k + 66)
            new = buffer[:hi - 3]
            views = [(v[2:hi - 1], v[4:hi + 1], u[3:hi], v[:4], u[:3])
                     for v, u in zip(vecs[::-1], vecs)]  # by parity of k
        left, right, back, near, edge = views[k % 2]
        (x0, x1, x2, x3), (p0, p1, p2) = near.tolist(), edge.tolist()
        d1 = 2.0 * (e1 * x0 + g * x1) - p0
        d2 = 2.0 * (g * x0 + e2 * x1 + tau * x2) - p1
        np.add(left, right, out=new)
        new *= 2.0 * hop
        np.subtract(new, back, out=back)
        edge[0], edge[1], edge[2] = d1, d2, 2.0 * (tau * x1 + hop * x3) - p2
        rows[0, k], rows[1, k] = d1, d2

    real = np.einsum("tk,sk->ts", coeff[:, 0::2], rows[:, 0::2])
    imag = np.einsum("tk,sk->ts", coeff[:, 1::2], rows[:, 1::2])
    sign = np.where(times < 0, -1.0, 1.0)
    amplitudes = {site: real[inverse, i] + 1j * sign * imag[inverse, i]
                  for i, site in enumerate(("d1", "d2"))}
    return PropagationResult(times, amplitudes, tuple(flags))
