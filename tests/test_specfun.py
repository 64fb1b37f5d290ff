import warnings

import mpmath
import numpy as np
import pytest

from resdyn.errors import DomainError
from resdyn.kernel import (
    adaptive_quad,
    bessel_j1,
    erfc_complex,
    faddeeva,
    piecewise_quad,
    upper_gamma_mhalf,
)

from _oracles import j1_power_series


# ---------------------------------------------------------------------------
# bessel_j1


def test_j1_at_zero_and_oddness():
    assert bessel_j1(0.0) == 0.0
    for x in (0.3, 2.0, 11.0, 77.0):
        assert bessel_j1(-x) == -bessel_j1(x)


def test_j1_series_oracle_at_two():
    assert abs(bessel_j1(2.0) - j1_power_series(2.0)) < 1e-12


def test_j1_matches_sine_asymptote_at_fifty():
    approx = np.sqrt(1.0 / (np.pi * 25.0)) * np.sin(50.0 - np.pi / 4.0)
    assert abs(bessel_j1(50.0) - approx) / abs(approx) < 1e-2


def test_j1_accuracy_against_mpmath():
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(1e-3, 9, 60), rng.uniform(9, 50, 60),
                         rng.uniform(50, 1e4, 80)])
    for x in xs:
        ref = float(mpmath.besselj(1, mpmath.mpf(float(x))))
        env = min(0.6, np.sqrt(2.0 / (np.pi * x)))
        err = abs(bessel_j1(float(x)) - ref)
        if abs(ref) > 0.05 * env:
            # relative accuracy away from the zeros of J1
            assert err / abs(ref) < 1e-12, f"x={x}"
        else:
            # at the zeros double precision is cancellation-limited;
            # envelope-relative accuracy is the meaningful statement there
            assert err / env < 5e-13, f"x={x}"


def test_j1_satisfies_bessel_ode():
    # five-point central differences; h balances truncation against the
    # amplification of per-value rounding by 1/h^2
    xs = np.linspace(0.5, 30.0, 200)
    h = 0.02
    d2 = (-bessel_j1(xs + 2 * h) + 16 * bessel_j1(xs + h) - 30 * bessel_j1(xs)
          + 16 * bessel_j1(xs - h) - bessel_j1(xs - 2 * h)) / (12 * h * h)
    d1 = (bessel_j1(xs - 2 * h) - 8 * bessel_j1(xs - h)
          + 8 * bessel_j1(xs + h) - bessel_j1(xs + 2 * h)) / (12 * h)
    residual = xs ** 2 * d2 + xs * d1 + (xs ** 2 - 1.0) * bessel_j1(xs)
    assert np.abs(residual).max() < 1e-6


def test_j1_vectorized_matches_scalar():
    xs = np.array([0.1, 5.0, 20.0, 200.0])
    vec = bessel_j1(xs)
    for x, v in zip(xs, vec):
        assert v == bessel_j1(float(x))


def test_j1_rejects_nonfinite():
    with pytest.raises(DomainError):
        bessel_j1(np.inf)


# ---------------------------------------------------------------------------
# faddeeva


def _faddeeva_mp(z):
    with mpmath.workdps(40):
        zz = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-zz * zz) * mpmath.erfc(-1j * zz))


# log-polar points, |z| from 1e-6 to 1e3 at every angle, and the real axis
FADDEEVA_POINTS = np.concatenate([
    10.0 ** np.random.default_rng(12).uniform(-6, 3, 200)
    * np.exp(1j * np.random.default_rng(13).uniform(-np.pi, np.pi, 200)),
    [1e-6, 1.0, 5.0, 1e3, -1e3, 1e3j]])


def test_faddeeva_accuracy_against_mpmath():
    z = FADDEEVA_POINTS
    ref = np.array([_faddeeva_mp(v) for v in z])
    with np.errstate(over="ignore"):
        rel = np.abs(faddeeva(z) - ref) / np.abs(ref)
    assert rel[z.imag >= 0].max() <= 5e-15
    near_lower = (z.imag < 0) & (np.abs(z) <= 10.0)
    assert near_lower.sum() > 50
    assert rel[near_lower].max() <= 1e-14


def test_faddeeva_at_zero_and_warning_free_in_upper_half_plane():
    assert faddeeva(0.0) == 1.0
    upper = FADDEEVA_POINTS[FADDEEVA_POINTS.imag >= 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = faddeeva(upper)
    assert np.all(np.isfinite(values))
    # scalars give complex, arrays keep their shape
    assert faddeeva(upper[0]) == values[0]
    assert faddeeva(upper[:6].reshape(2, 3)).shape == (2, 3)


# ---------------------------------------------------------------------------
# erfc_complex


def test_erfc_basics():
    assert erfc_complex(0.0) == 1.0
    assert abs(erfc_complex(-2.0) - (2.0 - erfc_complex(2.0))) < 1e-12


def test_erfc_quadrature_oracle_at_one():
    res = adaptive_quad(lambda t: np.exp(-t * t).astype(complex), 1.0, 30.0,
                        abs_tol=1e-14, rel_tol=1e-13)
    ref = 2.0 / np.sqrt(np.pi) * res.value
    assert abs(erfc_complex(1.0) - ref) < 1e-10


def test_erfc_reflection_and_conjugation():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-4, 4, 50) + 1j * rng.uniform(-4, 4, 50)
    for z in zs:
        assert abs(erfc_complex(-z) - (2.0 - erfc_complex(z))) < 1e-12 * max(
            1.0, abs(erfc_complex(z)))
        assert abs(erfc_complex(np.conj(z)) - np.conj(erfc_complex(z))) < 1e-12 * max(
            1.0, abs(erfc_complex(z)))


def test_erfc_accuracy_against_mpmath():
    rng = np.random.default_rng(8)
    zs = rng.uniform(-14, 14, 80) + 1j * rng.uniform(-14, 14, 80)
    for z in zs:
        ref = complex(mpmath.erfc(mpmath.mpc(z)))
        got = erfc_complex(complex(z))
        assert abs(got - ref) / abs(ref) < 1e-10, f"z={z}"


# ---------------------------------------------------------------------------
# upper incomplete gamma of order -1/2


def test_gamma_large_real_matches_leading_asymptote():
    z = 100.0
    lead = z ** -1.5 * np.exp(-z)
    assert abs(upper_gamma_mhalf(z) - lead) / lead < 0.02


def test_gamma_quadrature_oracle_at_one():
    res = adaptive_quad(lambda t: (t ** -1.5 * np.exp(-t)).astype(complex),
                        1.0, 60.0, abs_tol=1e-14, rel_tol=1e-13)
    assert abs(upper_gamma_mhalf(1.0) - res.value) < 1e-10


def test_gamma_schwarz_reflection():
    rng = np.random.default_rng(9)
    zs = rng.uniform(0.2, 30, 40) + 1j * rng.uniform(-20, 20, 40)
    for z in zs:
        a = upper_gamma_mhalf(np.conj(z))
        b = np.conj(upper_gamma_mhalf(z))
        assert abs(a - b) <= 1e-12 * abs(b)


def test_gamma_recurrence_against_erfc():
    # Gamma(1/2, z) = sqrt(pi) erfc(sqrt(z)) = z^{-1/2} e^{-z} - Gamma(-1/2, z)/2
    for z in (0.5, 3.0 + 2.0j, 60.0 - 5.0j, 45.0 + 45.0j):
        z = complex(z)
        sz = np.sqrt(z)
        lhs = np.sqrt(np.pi) * erfc_complex(sz)
        rhs = np.exp(-z) / sz - 0.5 * upper_gamma_mhalf(z)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_gamma_large_z_matches_mpmath():
    import mpmath as mp
    with mp.workdps(40):
        for z in (55.0 + 3.0j, 80.0 - 40.0j, 300.0 + 1.0j, 41.0, 500.0 - 80.0j):
            ref = complex(mp.gammainc(mp.mpc(-0.5), mp.mpc(z), mp.inf))
            got = upper_gamma_mhalf(z)
            assert abs(got - ref) / abs(ref) < 1.0 / abs(z)


def test_gamma_domain_errors():
    with pytest.raises(DomainError):
        upper_gamma_mhalf(0.0)
    with pytest.raises(DomainError):
        upper_gamma_mhalf(-3.0)


def test_j1_defining_integral_oracle_25_points():
    # J1(x) = (1/pi) integral_0^pi cos(theta - x sin theta) dtheta
    xs = np.linspace(0.2, 40.0, 25)
    for x in xs:
        def integrand(th, x=x):
            return (np.cos(th - x * np.sin(th)) / np.pi).astype(complex)

        ref = piecewise_quad(integrand, np.linspace(0, np.pi, 33),
                             abs_tol=1e-13, rel_tol=1e-12).value
        assert abs(bessel_j1(float(x)) - ref.real) < 1e-11, f"x={x}"


def test_erfc_defining_integral_oracle_25_points():
    rng = np.random.default_rng(31)
    zs = rng.uniform(0.1, 2.5, 25) + 1j * rng.uniform(-2.0, 2.0, 25)
    for z in zs:
        # straight-line path from z staying parallel to the real axis
        def integrand(s, z=z):
            w = z + s
            return np.exp(-w * w)

        res = adaptive_quad(integrand, 0.0, 40.0, abs_tol=1e-14, rel_tol=1e-13)
        ref = 2.0 / np.sqrt(np.pi) * res.value
        assert abs(erfc_complex(complex(z)) - ref) < 1e-10, f"z={z}"


def test_gamma_defining_integral_oracle_25_points():
    rng = np.random.default_rng(32)
    zs = rng.uniform(0.3, 4.0, 25) + 1j * rng.uniform(-3.0, 3.0, 25)
    for z in zs:
        # integrate tau^{-3/2} e^{-tau} from z along a ray parallel to the
        # real axis (contour choice is free within the right half plane)
        def integrand(s, z=z):
            tau = z + s
            return tau ** -1.5 * np.exp(-tau)

        res = adaptive_quad(integrand, 0.0, 60.0, abs_tol=1e-14, rel_tol=1e-13)
        assert abs(upper_gamma_mhalf(complex(z)) - res.value) < 1e-10, f"z={z}"
