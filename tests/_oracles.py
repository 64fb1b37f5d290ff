"""Independent reference computations the tests check production code against.

Everything here deliberately avoids the code paths it verifies: the series
oracle sums the defining power series term by term, the contour oracles
quadrature the defining integrals directly, the root tracker continues
an eigenvalue branch step by step instead of using the closed forms, and
the Friedrichs branch search picks the erfc square-root branches by
comparison with the defining integral instead of the derived rule.
"""

import numpy as np

from resdyn.friedrichs import _cut_main_breakpoints, _fm7_value, _tail_rotated
from resdyn.kernel import piecewise_quad
from resdyn.lattice import f_lambda, h_lambda


def j1_power_series(x, terms=80):
    """Sum_m (-1)^m (x/2)^{2m+1} / (m! (m+1)!), summed directly."""
    half = 0.5 * x
    total = 0.0
    term = half
    for m in range(terms):
        total += term
        term = -term * half * half / ((m + 1) * (m + 2))
    return total


def xin_circle_component(b, weight, lam_n, t, abs_tol=1e-12):
    """Clockwise unit-circle part of the defining component integral.

    For poles outside the unit circle (resonant/anti-resonant states) this
    is the whole component; bound states would add their pole residue.
    """
    def integrand(k):
        lam = np.exp(1j * k)
        return (-(1.0 - lam ** 2) * np.exp(2j * b * t * np.cos(k))
                * weight / (lam - lam_n)) / (2.0 * np.pi)

    n_panels = max(16, int(4 * b * abs(t)) + 1)
    pts = np.linspace(-np.pi, np.pi, n_panels + 1)
    return piecewise_quad(integrand, pts, abs_tol=abs_tol, rel_tol=1e-11).value


def residue_by_small_circle(params, lam_n, radius=1e-3, n_panels=8):
    """(1/2pi i) contour integral of the survival-amplitude integrand at
    t = 0 around one pole; equals the eigenstate dyad <d1|phi_n><phi_n~|d1>.
    """
    b, g = params.b, params.g

    def integrand(phi):
        lam = lam_n + radius * np.exp(1j * phi)
        vals = np.empty_like(lam)
        for i, l in enumerate(lam):
            vals[i] = (1.0 / l) * (-l + 1.0 / l) * b * g * g \
                / (h_lambda(params, l) * f_lambda(params, l))
        return radius * np.exp(1j * phi) * vals / (2.0 * np.pi)

    pts = np.linspace(0.0, 2.0 * np.pi, n_panels + 1)
    return piecewise_quad(integrand, pts, abs_tol=1e-13, rel_tol=1e-12).value


def inside_lambda_root(b, energy):
    """The root of b lam^2 + E lam + b = 0 with |lam| < 1."""
    disc = np.sqrt(energy * energy - 4.0 * b * b + 0j)
    r1 = (-energy + disc) / (2.0 * b)
    r2 = (-energy - disc) / (2.0 * b)
    return r1 if abs(r1) < abs(r2) else r2


def track_lambda_root(b, e_start, e_end, lam_start, n_steps=4000):
    """Continue a root of b lam^2 + E lam + b = 0 along a straight E path,
    picking the nearer branch at every step (crosses the band cut smoothly
    onto the second sheet)."""
    lam = lam_start
    for s in np.linspace(0.0, 1.0, n_steps + 1)[1:]:
        e = e_start + (e_end - e_start) * s
        disc = np.sqrt(e * e - 4.0 * b * b + 0j)
        cands = ((-e + disc) / (2.0 * b), (-e - disc) / (2.0 * b))
        lam = min(cands, key=lambda c: abs(c - lam))
    return lam


def band_integral_of_pole_kernel(b, energy, abs_tol=1e-12):
    """(b/pi) integral over the band of sin^2 k * i/(E - 2b cos k) dk;
    equals the convergent Bessel-integral transform for Im E > 0."""
    def integrand(k):
        return (b / np.pi) * np.sin(k) ** 2 * 1j / (energy - 2.0 * b * np.cos(k))

    pts = np.linspace(-np.pi, np.pi, 33)
    return piecewise_quad(integrand, pts, abs_tol=abs_tol, rel_tol=1e-11).value


def friedrichs_component_quad(params, energy, weight, t, tol):
    """weight * integral_0^inf sqrt(beta E) e^{-iEt} / (E - energy) dE, the
    defining single-pole cut integral, by quadrature (t != 0): u = sqrt(E)
    up to e0, then the ray from e0 rotated into the decaying half-plane."""
    beta = params.beta
    e0 = max(50.0 * beta, 50.0 * abs(energy), 10.0 * abs(params.omega1), 10.0)
    u0 = np.sqrt(e0)
    t = float(t)

    def integrand_u(u):
        e = u * u
        return 2.0 * np.sqrt(beta) * u * u * np.exp(-1j * e * t) / (e - energy)

    u_res = float(np.sqrt(energy).real) if energy.real > 0 else -1.0
    pts = _cut_main_breakpoints(u0, t, (u_res - 0.2, u_res, u_res + 0.2))
    main = piecewise_quad(integrand_u, pts, abs_tol=tol.abs_tol,
                          rel_tol=tol.rel_tol)

    def f_tail(e):
        return np.sqrt(beta * e) / (e - energy)

    tail = _tail_rotated(f_tail, e0, np.array([t]), tol,
                         "single-pole cut component tail")[0]
    return weight * (main.value + tail)


def friedrichs_branch_search(params, energy, weight, t_sign, tol):
    """(sa, sb, mismatch): of the four erfc sign pairs of the closed form,
    the one closest to the defining integral at two small times of sign
    t_sign, with its worst relative mismatch there."""
    scale = max(abs(energy), params.beta)
    refs = {}
    best = None
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            worst = 0.0
            for tau in (0.31, 0.79):
                t = t_sign * tau / scale
                if t not in refs:
                    refs[t] = friedrichs_component_quad(params, energy, weight,
                                                        t, tol)
                ref = refs[t]
                val = _fm7_value(params.beta, weight, energy, np.array([t]),
                                 sa, sb)[0]
                worst = max(worst, abs(val - ref) / max(abs(ref), 1e-300))
            if best is None or worst < best[2]:
                best = (sa, sb, worst)
    return best
