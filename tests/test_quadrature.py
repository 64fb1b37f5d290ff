import numpy as np
import pytest

from resdyn.errors import DomainError, ToleranceNotMet
from resdyn.kernel import adaptive_quad, piecewise_quad
from resdyn.lattice import Tolerances

# (integrand, a, b, exact value) -- the conservative-error battery
CLOSED_FORMS = [
    (lambda x: np.sin(x).astype(complex), 0.0, np.pi, 2.0),
    (lambda x: (x ** 3).astype(complex), 0.0, 1.0, 0.25),
    (lambda x: np.exp(-x).astype(complex), 0.0, 10.0, 1.0 - np.exp(-10.0)),
    (lambda x: (1.0 / (1.0 + x * x)).astype(complex), -1.0, 1.0, np.pi / 2),
    (lambda x: np.cos(20.0 * x).astype(complex), 0.0, 1.0, np.sin(20.0) / 20.0),
    (lambda x: np.exp(1j * 15.0 * x), 0.0, 2.0, (np.exp(30j) - 1.0) / 15j),
    (lambda x: np.sqrt(np.abs(x)).astype(complex), 0.0, 4.0, 16.0 / 3.0),
    (lambda x: (x * np.exp(-x * x)).astype(complex), 0.0, 3.0,
     0.5 * (1.0 - np.exp(-9.0))),
    (lambda x: np.log(x).astype(complex), 1.0, np.e, 1.0),
    (lambda x: (1.0 / np.sqrt(x)).astype(complex), 1e-12, 1.0,
     2.0 - 2e-6),
    (lambda x: (x ** 7 - 3 * x ** 2).astype(complex), -1.0, 2.0,
     (2.0 ** 8 - 1.0) / 8.0 - (2.0 ** 3 + 1.0)),
    (lambda x: np.sin(x) ** 2 / np.pi, -np.pi, np.pi, 1.0),
    (lambda x: np.exp(2j * x) * np.sin(x), 0.0, np.pi,
     -(1 + np.exp(2j * np.pi)) / (2 * (4 - 1)) * 2),
    (lambda x: np.cosh(x).astype(complex), -1.0, 1.0, 2.0 * np.sinh(1.0)),
    (lambda x: (x / (x * x + 4.0)).astype(complex), 0.0, 2.0,
     0.5 * np.log(2.0)),
    (lambda x: np.sin(50 * x) * np.exp(-x), 0.0, 5.0,
     (50 - np.exp(-5.0) * (np.sin(250.0) + 50 * np.cos(250.0))) / 2501.0),
    (lambda x: (3.0 * np.ones_like(x)).astype(complex), 2.0, 5.0, 9.0),
    (lambda x: (x ** 2 * np.cos(x)).astype(complex), 0.0, np.pi,
     np.pi ** 2 * np.sin(np.pi) + 2 * np.pi * np.cos(np.pi) - 2 * np.sin(np.pi)),
    (lambda x: 1.0 / (1.0 + 1j * x), 0.0, 1.0,
     np.log(np.sqrt(2.0)) / 1j + np.arctan(1.0)),
    (lambda x: np.abs(x - 0.3).astype(complex), 0.0, 1.0,
     0.5 * (0.3 ** 2 + 0.7 ** 2)),
]


def test_battery_values_and_conservative_estimates():
    for i, (f, a, b, exact) in enumerate(CLOSED_FORMS):
        res = adaptive_quad(f, a, b, abs_tol=1e-10, rel_tol=1e-9)
        true_err = abs(res.value - exact)
        tol = max(1e-10, 1e-9 * abs(exact))
        assert true_err <= tol, f"case {i}: error {true_err:.2e}"
        assert true_err <= max(3.0 * res.abs_error_estimate, 1e-14), \
            f"case {i}: estimate {res.abs_error_estimate:.2e} not conservative"
        assert res.evaluations >= 15


def test_simple_values():
    assert abs(adaptive_quad(lambda x: np.sin(x).astype(complex),
                             0, np.pi).value - 2.0) < 1e-12
    assert abs(adaptive_quad(lambda x: (x ** 3).astype(complex),
                             0, 1).value - 0.25) < 1e-12


def test_error_estimate_respects_tolerance_contract():
    res = adaptive_quad(lambda x: np.exp(1j * 40 * x), 0.0, 3.0,
                        abs_tol=1e-12, rel_tol=1e-10)
    assert res.abs_error_estimate <= max(1e-12, 1e-10 * abs(res.value))


def test_deterministic_repeatability():
    f = lambda x: np.sin(17 * x) / (1.0 + x * x)
    r1 = adaptive_quad(f, 0.0, 6.0)
    r2 = adaptive_quad(f, 0.0, 6.0)
    assert r1.value == r2.value
    assert r1.abs_error_estimate == r2.abs_error_estimate
    assert r1.evaluations == r2.evaluations


def test_tolerance_not_met_carries_best_result():
    # needle far too sharp for the subdivision budget
    f = lambda x: 1.0 / (1e-14 + (x - 0.5) ** 2)
    with pytest.raises(ToleranceNotMet) as err:
        adaptive_quad(f, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13,
                      max_subdivisions=3)
    assert err.value.result is not None
    assert err.value.result.abs_error_estimate > 0


def test_open_interval_endpoint_singularity():
    # integrable 1/sqrt singularity at the left endpoint
    res = adaptive_quad(lambda x: (1.0 / np.sqrt(x)).astype(complex),
                        0.0, 1.0, abs_tol=1e-7, rel_tol=1e-7,
                        max_subdivisions=10000)
    assert abs(res.value - 2.0) < 1e-6


def test_domain_validation():
    f = lambda x: x.astype(complex)
    with pytest.raises(DomainError):
        adaptive_quad(f, 1.0, 0.0)
    with pytest.raises(DomainError):
        adaptive_quad(f, 0.0, np.inf)
    with pytest.raises(DomainError):
        adaptive_quad(f, 0.0, 1.0, abs_tol=0.0)
    with pytest.raises(DomainError):
        piecewise_quad(f, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("abs_tol, rel_tol", [
    (np.nan, np.nan), (np.inf, np.inf), (1e-10, np.nan), (np.inf, 1e-8),
])
def test_tolerances_must_be_positive_and_finite(abs_tol, rel_tol):
    # a NaN or infinite tolerance would switch refinement off: at
    # abs_tol = rel_tol = NaN this integral came out -1.306 - 0.418i, not
    # 0.0145 + 0.0046i, after one pass and without an error
    f = lambda x: np.exp(40j * x)
    with pytest.raises(DomainError):
        piecewise_quad(f, [0.0, 3.0], abs_tol=abs_tol, rel_tol=rel_tol)
    with pytest.raises(DomainError):
        adaptive_quad(f, 0.0, 3.0, abs_tol=abs_tol, rel_tol=rel_tol)
    with pytest.raises(DomainError):
        Tolerances(abs_tol, rel_tol)


def test_piecewise_matches_single_interval():
    f = lambda x: np.exp(1j * 9 * x) / (1 + x)
    whole = adaptive_quad(f, 0.0, 4.0, abs_tol=1e-12, rel_tol=1e-11)
    split = piecewise_quad(f, np.linspace(0, 4, 9), abs_tol=1e-12, rel_tol=1e-11)
    assert abs(whole.value - split.value) < 1e-11


def test_oscillatory_semi_infinite_bessel_transform():
    # integral_0^inf e^{-i E_R t'} J1(2bt')/t' dt' = i / lambda_R: the
    # decaying-envelope transform evaluated by half-period panels plus an
    # exponential-tail cutoff, checked against the closed form
    from resdyn.kernel import bessel_j1
    from resdyn.lattice import discrete_spectrum
    from conftest import FIG9_PARAMS

    res = discrete_spectrum(FIG9_PARAMS).resonant()
    e_r, lam_r = res.energy, res.lam
    gamma = -e_r.imag
    t_cut = (np.log(1e13) + 8.0) / gamma

    def integrand(tp):
        out = np.empty_like(tp, dtype=complex)
        nz = tp != 0
        out[nz] = np.exp(-1j * e_r * tp[nz]) * bessel_j1(2.0 * tp[nz]) / tp[nz]
        out[~nz] = 1.0
        return out

    pts = np.arange(0.0, t_cut + 1.4, 1.4)
    value = piecewise_quad(integrand, pts, abs_tol=1e-12, rel_tol=1e-11).value
    assert abs(value - 1j / lam_r) < 1e-6
