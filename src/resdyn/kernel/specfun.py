"""Special functions required by the amplitude formulas.

bessel_j1 uses scipy's j1 up to |x| = 50 and a Hankel expansion beyond,
where scipy's relative error grows with x (1e-13 on [50, 200], 2e-10 on
[1e4, 1e5]) while the expansion's stays below 4e-15.  The complex
complementary error function is delegated to scipy's Faddeeva
implementation behind a reflection wrapper; the order -1/2 upper incomplete
gamma builds on it for moderate |z| and switches to its own asymptotic
series when the erfc route would lose digits to cancellation.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from ..errors import DomainError

_HANKEL_CUT = 50.0


def _j1_hankel(x):
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, 13):
        term = term * (4.0 - (2 * k - 1) ** 2) / (8.0 * k * x)
        sign = -1.0 if (k // 2) % 2 else 1.0
        if k % 2 == 1:
            q += sign * term
        else:
            p += sign * term
    # cos(x - 3pi/4) P - sin(x - 3pi/4) Q, with the phase shift expanded
    # exactly so no precision is lost subtracting 3pi/4 from a large x
    sx, cx = np.sin(x), np.cos(x)
    return np.sqrt(1.0 / (np.pi * x)) * ((sx - cx) * p + (sx + cx) * q)


def bessel_j1(x):
    """Bessel function J1 for real argument (scalar or ndarray)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if not np.all(np.isfinite(flat)):
        raise DomainError("bessel_j1 requires finite argument")
    ax = np.abs(flat)
    out = np.empty_like(ax)
    big = ax > _HANKEL_CUT
    out[~big] = _sp.j1(ax[~big])
    if big.any():
        out[big] = _j1_hankel(ax[big])
    out = np.where(flat < 0, -out, out)
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def erfc_complex(z):
    """Complementary error function for complex argument.

    The left half plane is folded through erfc(-z) = 2 - erfc(z) so the
    underlying Faddeeva evaluation always runs at Re z >= 0.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    zz = np.atleast_1d(arr)
    left = zz.real < 0
    folded = np.where(left, -zz, zz)
    w = _sp.erfc(folded)
    out = np.where(left, 2.0 - w, w)
    if scalar:
        return complex(out[0])
    return out.reshape(arr.shape)


_GAMMA_ASYMPTOTIC_CUT = 40.0


def upper_gamma_mhalf(z):
    """Upper incomplete gamma of order -1/2 at complex z (principal branch).

    Moderate |z| uses Gamma(-1/2, z) = 2 exp(-z)/sqrt(z) - 2 sqrt(pi) erfc(sqrt(z));
    for |z| > 40 that difference cancels, so the divergent asymptotic series
    z^(-3/2) exp(-z) [1 + (a-1)/z + ...] truncated at its smallest term is
    used instead.  The negative real axis is rejected (branch ambiguity).
    """
    z = complex(z)
    if z == 0:
        raise DomainError("z = 0 is outside the domain")
    if z.imag == 0 and z.real < 0:
        raise DomainError("negative real axis is a branch cut")
    if abs(z) <= _GAMMA_ASYMPTOTIC_CUT:
        sz = np.sqrt(z)
        return complex(2.0 * np.exp(-z) / sz - 2.0 * np.sqrt(np.pi) * erfc_complex(sz))
    a = -0.5
    term = 1.0 + 0.0j
    acc = 1.0 + 0.0j
    prev = abs(term)
    for k in range(1, 64):
        term = term * (a - k) / z
        if abs(term) >= prev:
            break
        acc += term
        prev = abs(term)
        if prev < 1e-17 * abs(acc):
            break
    return complex(z ** (a - 1.0) * np.exp(-z) * acc)
