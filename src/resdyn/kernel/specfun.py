"""Special functions required by the amplitude formulas, on numpy alone.

``faddeeva`` is w(z) = e^{-z^2} erfc(-iz) (DLMF 7.2.3) by Weideman's
rational series (J. A. C. Weideman, Computation of the complex error
function, SIAM J. Numer. Anal. 31, 1497 (1994)) with N = 40 terms.  For
Im z >= 0, with L = sqrt(N/sqrt 2) and Z = (L + iz)/(L - iz),

  w(z) = 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi) (L - iz)),  p(Z) = sum_n a_n Z^{n-1},

where a_1 ... a_N are Fourier coefficients of e^{-t^2}(L^2 + t^2) at
t = L tan(theta/2), taken once from one 4N-point FFT.  Im z < 0 uses
w(z) = 2 e^{-z^2} - w(-z).  Against 40-digit mpmath its relative error is
about 1e-15 (scipy's ``wofz``: 7e-15 on the same points).  The complex
complementary error function is erfc(z) = e^{-z^2} w(iz) after a fold to
Re z >= 0; the order -1/2 upper incomplete gamma builds on it for moderate
|z| and switches to its own asymptotic series when the erfc route would lose
digits to cancellation.

bessel_j1 uses scipy's j1 up to |x| = 50 and a Hankel expansion beyond,
where scipy's relative error grows with x (1e-13 on [50, 200], 2e-10 on
[1e4, 1e5]) while the expansion's stays below 4e-15.  It imports scipy on
its first call, so importing the package needs numpy only.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError

_HANKEL_CUT = 50.0

_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _weideman_coefficients():
    """2 a_1 ... 2 a_N, read-only (the factor 2 of the series folded in)."""
    m = 2 * _WEIDEMAN_N
    t = _WEIDEMAN_L * np.tan(np.arange(-m + 1, m) * (0.5 * math.pi / m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (_WEIDEMAN_L ** 2 + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real[1:_WEIDEMAN_N + 1] / m
    a.flags.writeable = False
    return a


_WEIDEMAN_2A = _weideman_coefficients()


def faddeeva(z):
    """Faddeeva function w(z) = e^{-z^2} erfc(-iz) for complex z (scalar or
    ndarray); w(0) = 1 exactly.

    The polynomial is a sum over a table of the powers of Z (no BLAS).  The
    reflection runs only on the Im z < 0 entries, with -z^2 formed as
    (y - x)(x + y) - 2ixy; where e^{-z^2} overflows the value is infinite,
    without a warning.
    """
    arr = np.asarray(z, dtype=complex)
    zz = np.atleast_1d(arr)
    lower = zz.imag < 0
    iz = 1j * zz
    np.negative(iz, out=iz, where=lower)  # i z with Im z >= 0
    d = _WEIDEMAN_L - iz
    powers = np.empty(zz.shape + (_WEIDEMAN_N,), dtype=complex)
    powers[..., 0] = 1.0
    powers[..., 1:] = ((_WEIDEMAN_L + iz) / d)[..., None]
    np.multiply.accumulate(powers[..., 1:], axis=-1, out=powers[..., 1:])
    w = (np.einsum("...j,j->...", powers, _WEIDEMAN_2A) / d + _INV_SQRT_PI) / d
    w[zz == 0] = 1.0
    if lower.any():
        x, y = zz.real[lower], zz.imag[lower]
        with np.errstate(over="ignore", invalid="ignore"):
            w[lower] = 2.0 * np.exp((y - x) * (x + y) - 2j * x * y) - w[lower]
    if arr.ndim == 0:
        return complex(w[0])
    return w


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
    """Bessel function J1 for real argument (scalar or ndarray).

    Needs scipy, which the package does not require: it imports scipy's
    ``j1`` on its first call.
    """
    from scipy.special import j1

    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if not np.all(np.isfinite(flat)):
        raise DomainError("bessel_j1 requires finite argument")
    ax = np.abs(flat)
    out = np.empty_like(ax)
    big = ax > _HANKEL_CUT
    out[~big] = j1(ax[~big])
    if big.any():
        out[big] = _j1_hankel(ax[big])
    out = np.where(flat < 0, -out, out)
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def erfc_complex(z):
    """Complementary error function for complex argument.

    The left half plane is folded through erfc(-z) = 2 - erfc(z), and at
    Re z >= 0, erfc(z) = e^{-z^2} w(iz) evaluates w in the upper half plane.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    zz = np.atleast_1d(arr)
    left = zz.real < 0
    folded = np.where(left, -zz, zz)
    x, y = folded.real, folded.imag
    w = np.exp((y - x) * (x + y) - 2j * x * y) * faddeeva(1j * folded)
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
