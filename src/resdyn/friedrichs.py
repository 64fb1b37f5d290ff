"""Friedrichs model: a discrete level coupled to a half-line continuum.

The level-shift function has one bound pole on the negative axis and a
resonance/anti-resonance pair on the second sheet; the branch-cut integral
of the survival amplitude splits into three pole components whose closed
forms involve the complementary error function.

The square-root branches of those closed forms are derived, not searched.
With a = sqrt(E) (principal root) for a pole at E,

  A_n(t) = w sqrt(beta) [sqrt(pi/(it)) + a integral_R e^{-iu^2 t}/(u - a) du].

Rotating u onto the steepest-descent line s = sqrt(it) u (u on e^{-i pi/4} R
for t > 0, e^{+i pi/4} R for t < 0) turns the integral into
i pi sigma w(sigma zeta) with zeta = sqrt(it) a, sigma = sign Im zeta and the
Faddeeva function w(z) = e^{-z^2} erfc(-iz) (DLMF 7.2.3, 7.7.2), plus the
residue at a when the rotation sweeps over it (c = -1: arg a in (-pi/4, 0)
for t > 0, (0, pi/4) for t < 0; else c = +1).  With erfc(-x) = 2 - erfc(x)
both cases read i pi c sigma e^{-iEt} erfc(-i c sigma zeta), so ``_fm7_value``
takes sa = -c sigma and sb = -c sigma kappa, where kappa = zeta/sqrt(iEt) =
+-1 relates zeta to the principal root it evaluates.  Across arg a = -+pi/4
sigma and c flip together, and c sigma = sign Im a on every ray, so the
rule is computed as sa = -sign Im sqrt(E), sb = sa kappa: one pair per pole
and sign of t, with no quadrature and no state kept between calls.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    PoleProximity,
    UnexpectedRootPattern,
    ValidityWarning,
)
from .kernel import (
    adaptive_quad,
    erfc_complex,
    piecewise_quad,  # noqa: F401  (bench/spans.py traces the kernel here)
    poly_roots,
    sqrt_poscut,
)
from .lattice import (
    DEFAULT_TOLERANCES,
    _grid_quad,
    _octave_groups,
    _quadrature_context,
    _time_grid,
)


@dataclass(frozen=True)
class FriedrichsParams:
    """Level energy omega1, form-factor scale beta (> 0), coupling g."""

    omega1: float
    beta: float
    g: float

    def __post_init__(self):
        vals = (self.omega1, self.beta, self.g)
        if not all(np.isfinite(v) for v in vals):
            raise DomainError("parameters must be finite")
        if self.beta <= 0:
            raise DomainError("beta must be positive")


@dataclass(frozen=True)
class FriedrichsPoles:
    """The three poles of the cut integrand and their weights.

    w_* are the partial-fraction weights of the cut integral; bound_residue
    is the residue of the Green's function at the bound pole, i.e. the
    weight of the bound term of the survival amplitude.
    """

    e_bound: float
    e_res: complex
    e_ares: complex
    w_bound: complex
    w_res: complex
    w_ares: complex
    bound_residue: float
    params: FriedrichsParams


def _two_pi_g2(params):
    return 2.0 * np.pi * params.g ** 2


def green_function(params, e, side="above"):
    """<1|(E - H +/- i0)^{-1}|1> for real E; single-valued for E < 0."""
    if side not in ("above", "below"):
        raise DomainError("side must be 'above' or 'below'")
    e = float(e)
    beta, omega1 = params.beta, params.omega1
    tpg = _two_pi_g2(params)
    if e >= 0:
        sgn = 1.0 if side == "above" else -1.0
        denom = e - omega1 + tpg * (beta + sgn * 1j * np.sqrt(beta * e)) / (beta + e)
    else:
        root = sqrt_poscut(beta * e)  # = i sqrt(beta |e|)
        # i * root is exactly real; keep the value real so both sides agree
        denom = e - omega1 + tpg * (beta - root.imag) / (beta + e)
    if abs(denom) < 1e-12:
        raise PoleProximity(f"Green's function pole within 1e-12 at E = {e}")
    return 1.0 / denom


def _eta_negative_axis(params, e):
    """Level-shift denominator on E < 0 (real there)."""
    beta, omega1 = params.beta, params.omega1
    u = np.sqrt(-beta * e)
    return e - omega1 + _two_pi_g2(params) * (beta - u) / (beta + e)


def _eta_prime_negative_axis(params, e):
    beta = params.beta
    u = np.sqrt(-beta * e)
    up = -beta / (2.0 * u)
    return 1.0 + _two_pi_g2(params) * (-up * (beta + e) - (beta - u)) / (beta + e) ** 2


def _quartic_coefficients(params):
    """Q(E) = [(E+beta)(E-omega1) + 2 pi g^2 beta]^2 + (2 pi g^2)^2 beta E."""
    beta, omega1 = params.beta, params.omega1
    tpg = _two_pi_g2(params)
    n = np.array([beta * (tpg - omega1), beta - omega1, 1.0])
    q = np.convolve(n, n)
    q[1] += tpg ** 2 * beta
    return q


def cut_integrand_rational(params, e):
    """2 g^2 (E + beta) / Q(E): the rational part of the cut integrand."""
    q = _quartic_coefficients(params)
    e = np.asarray(e, dtype=complex)
    qe = np.zeros_like(e)
    for c in q[::-1]:
        qe = qe * e + c
    return 2.0 * params.g ** 2 * (e + params.beta) / qe


def friedrichs_poles(params):
    """Deflate E = -beta from the quartic, solve the cubic, attach weights.

    Raises UnexpectedRootPattern unless the cubic has exactly one real
    negative root (on the physical sheet of the level-shift function) plus
    a complex-conjugate pair.
    """
    q = _quartic_coefficients(params)
    beta = params.beta
    # synthetic division of Q by (E + beta); E = -beta is an exact root
    cubic = np.zeros(4)
    carry = 0.0
    for k in range(4, 0, -1):
        cubic[k - 1] = q[k] + carry
        carry = -beta * cubic[k - 1]
    remainder = q[0] + carry
    scale = float(np.max(np.abs(q)))
    if abs(remainder) > 1e-10 * scale:
        raise UnexpectedRootPattern(
            f"E = -beta fails to deflate (remainder {remainder:.3e})")

    roots = poly_roots(cubic)
    reals = [r for r in roots if r.imag == 0]
    pairs = [r for r in roots if r.imag != 0]
    if len(reals) != 1 or len(pairs) != 2 or reals[0].real >= 0:
        raise UnexpectedRootPattern(
            "expected one real negative root and a conjugate pair",
            roots=roots)
    e_bound = float(reals[0].real)
    eta_first = _eta_negative_axis(params, e_bound)
    eta_second = (e_bound - params.omega1
                  + _two_pi_g2(params) * (params.beta + np.sqrt(-params.beta * e_bound))
                  / (params.beta + e_bound))
    tol_eta = 1e-8 * max(1.0, abs(e_bound), abs(params.omega1))
    if abs(eta_first) > tol_eta and abs(eta_second) > tol_eta:
        raise UnexpectedRootPattern(
            "real root solves the level-shift equation on neither sheet",
            roots=roots)
    first_sheet = abs(eta_first) <= abs(eta_second)
    e_res = min(pairs, key=lambda r: r.imag)
    if e_res.imag >= 0:
        raise UnexpectedRootPattern("no pole with negative imaginary part",
                                    roots=roots)
    e_ares = np.conj(e_res)

    dcubic = np.array([cubic[1], 2 * cubic[2], 3 * cubic[3]])

    def cprime(e):
        return dcubic[0] + dcubic[1] * e + dcubic[2] * e * e

    g2 = params.g ** 2
    w_bound = complex(2.0 * g2 / cprime(e_bound))
    w_res = complex(2.0 * g2 / cprime(e_res))
    w_ares = np.conj(w_res)
    # a true bound state exists only when the negative real root zeroes the
    # first-sheet level-shift function; otherwise it is a virtual state and
    # the survival amplitude is carried by the cut alone (A_cut(0) = 1)
    if first_sheet:
        bound_residue = float(1.0 / _eta_prime_negative_axis(params, e_bound))
    else:
        bound_residue = 0.0
    return FriedrichsPoles(e_bound, complex(e_res), complex(e_ares),
                           w_bound, w_res, complex(w_ares), bound_residue,
                           params)


# ---------------------------------------------------------------------------
# quadrature of the cut integral and of single-pole components


def _tail_rotated(f_of_e, e0, times, tol, what):
    """integral_{e0}^inf f(E) e^{-iEt} dE for a group of times of one sign,
    by rotating the ray into the decaying half-plane (downward for t > 0,
    upward for t < 0); t = 0 comes as a group of its own.

    f_of_e must be analytic and power-decaying in the swept quadrant; the
    rotation point e0 must exceed the real parts of all its poles.  The
    group shares the panel edges of its largest |t|, continued out to the
    cutoff of its smallest.
    """
    if times[0] == 0.0:
        # no oscillation: map E = e0/s onto s in (0, 1]
        def mapped(s):
            e = e0 / s
            return f_of_e(e.astype(complex)) * e0 / s ** 2

        with _quadrature_context(what, 0.0, 0.0, tol):
            res = adaptive_quad(mapped, 0.0, 1.0, abs_tol=tol.abs_tol,
                                rel_tol=tol.rel_tol, open_interval=True)
        return np.full(len(times), res.value)
    direction = -1j if times[0] > 0 else 1j
    t_lo, t_hi = np.abs(times).min(), np.abs(times).max()
    reach = np.log(1.0 / tol.abs_tol) + 8.0  # e^{-reach} below abs_tol
    x_cut = reach / t_lo
    pts = [0.0]
    # the first panel must also resolve f's own decay on the scale of e0
    step = min(1.0 / t_hi, reach / t_hi / 4.0, e0)
    x = step
    while x < x_cut:
        pts.append(x)
        x *= 4.0
    pts.append(x_cut)

    def integrand(tc):
        def f(x):
            e = e0 + direction * x
            return (f_of_e(e)[:, None] * np.exp((-1j * e)[:, None] * tc[None, :])
                    * direction)

        return f

    return _grid_quad(integrand, np.array(pts), times, tol, what)


def _cut_main_breakpoints(u0, t, special_u):
    pts = {0.0, u0}
    pts.update(u for u in special_u if 0.0 < u < u0)
    if t != 0.0:
        k = 1
        while True:
            u = np.sqrt(k * np.pi / abs(t))
            if u >= u0:
                break
            pts.add(u)
            k += 1
    out = np.array(sorted(pts))
    return out[np.concatenate(([True], np.diff(out) > 1e-13 * u0))]


def a_cut_direct(params, t, tol=DEFAULT_TOLERANCES, poles=None):
    """Branch-cut part of the survival amplitude by direct quadrature.

    The E integral is split at e0 = max(50 beta, 50 |E_R|); below that the
    substitution u = sqrt(E) removes the endpoint singularity and the chirp
    e^{-i u^2 t} is split at half-period points, beyond it the contour is
    rotated into the decaying half-plane.

    ``t`` is a time or a 1-d grid (a grid gives an array).  Only the phases
    e^{-iu^2 t} and e^{-iEt} depend on t, so the times are grouped by sign
    and octave of |t|, t = 0 alone, and each group is one vector-valued
    quadrature on the panel edges its largest |t| needs.
    """
    times, scalar = _time_grid(t)
    p = poles if poles is not None else friedrichs_poles(params)
    beta = params.beta
    e0 = max(50.0 * beta, 50.0 * abs(p.e_res), 10.0 * abs(params.omega1), 10.0)
    u0 = np.sqrt(e0)
    u_res = float(np.sqrt(p.e_res).real)
    special_u = (u_res - 0.2, u_res, u_res + 0.2, np.sqrt(beta))

    def main_integrand(tc):
        def f(u):
            e = (u * u).astype(complex)
            rat = cut_integrand_rational(params, e)
            weight = 2.0 * np.sqrt(beta) * u * u * rat
            return weight[:, None] * np.exp((-1j * e.real)[:, None] * tc[None, :])

        return f

    def f_tail(e):
        return np.sqrt(beta * e) * cut_integrand_rational(params, e)

    groups = [np.flatnonzero(times == 0.0)]
    for side in (np.flatnonzero(times > 0.0), np.flatnonzero(times < 0.0)):
        groups += [side[g] for g in _octave_groups(np.abs(times[side]))]
    out = np.empty(len(times), dtype=complex)
    for idx in filter(len, groups):
        tg = times[idx]
        pts = _cut_main_breakpoints(u0, np.abs(tg).max(), special_u)
        out[idx] = (_grid_quad(main_integrand, pts, tg, tol, "Friedrichs cut main")
                    + _tail_rotated(f_tail, e0, tg, tol, "Friedrichs cut tail"))
    return complex(out[0]) if scalar else out


def _fm7_value(beta, weight, energy, t, sign_root_e, sign_erfc):
    term1 = np.sqrt(-1j * (np.pi / t))  # sqrt(pi/(it)), rounded once
    zeta = 1j * np.sqrt(1j * energy * t)
    term2 = (np.pi * 1j * sign_root_e * np.sqrt(energy)
             * np.exp(-1j * t * energy)
             * erfc_complex(sign_erfc * zeta))
    return weight * np.sqrt(beta) * (term1 - term2)


def _erfc_branches(energy, t_sign):
    """(sa, sb) of ``_fm7_value`` for a pole at ``energy`` and times of sign
    t_sign: sa = -sign Im sqrt(E) and sb = sa kappa (module docstring)."""
    ts = np.array([float(t_sign)])  # the array arithmetic of _fm7_value
    root_e = np.sqrt(energy)
    sa = -1.0 if root_e.imag > 0 else 1.0
    kappa = (np.sqrt(1j * ts) * root_e / np.sqrt(1j * energy * ts))[0].real
    return sa, (sa if kappa > 0 else -sa)


def _pole_by_label(poles, n):
    table = {
        "B": (poles.e_bound + 0.0j, poles.w_bound),
        "R": (poles.e_res, poles.w_res),
        "AR": (poles.e_ares, poles.w_ares),
    }
    if n not in table:
        raise DomainError("component label must be one of 'B', 'R', 'AR'")
    return table[n]


def a_component(params, n, t, poles=None):
    """Closed-form single-pole cut component A_n(t) via erfc.

    ``t`` is a time or a 1-d grid (a grid gives an array).  The square-root
    branches follow from the pole and the sign of t alone (module
    docstring), so no quadrature is made; t = 0 is rejected because
    individual components diverge there.
    """
    times, scalar = _time_grid(t)
    if np.any(times == 0.0):
        raise DomainError("single cut components diverge at t = 0")
    p = poles if poles is not None else friedrichs_poles(params)
    energy, weight = _pole_by_label(p, n)
    out = np.empty(len(times), dtype=complex)
    for t_sign, side in ((1, times > 0.0), (-1, times < 0.0)):
        if side.any():
            sa, sb = _erfc_branches(energy, t_sign)
            out[side] = _fm7_value(params.beta, weight, energy, times[side],
                                   sa, sb)
    return complex(out[0]) if scalar else out


def a_component_asymptotic(params, t, poles=None):
    """Resonant component for large negative time: power-law (E_R t)^{-3/2}.

    ``t`` is a time or a 1-d grid of negative times (a grid gives an array).
    This is the leading term of the erfc expansion of the closed form in the
    large-negative-time regime, where the resonant component is suppressed;
    for t > 0 the component also carries the pole term e^{-iE_R t}, which
    this form omits, so t >= 0 raises DomainError.  The sign, -sa sb, comes
    from the resonant pole's t < 0 branches.  Warns when -t |E_R| is not
    large.
    """
    times, scalar = _time_grid(t)
    if np.any(times >= 0.0):
        raise DomainError(
            "the power-law form holds only in the large-negative-time regime "
            "(-t |E_R| >> 1); t >= 0 requested")
    p = poles if poles is not None else friedrichs_poles(params)
    if -times.max() * abs(p.e_res) < 10.0:
        warnings.warn("asymptotic resonant form used at -t |E_R| < 10",
                      ValidityWarning)
    sa, sb = _erfc_branches(p.e_res, -1)
    zeta = 1j * np.sqrt(1j * p.e_res * times)
    out = (-sa * sb * p.w_res * np.sqrt(np.pi * params.beta * p.e_res)
           * (-1j) / (2.0 * zeta ** 3))
    return complex(out[0]) if scalar else out


def survival_total(params, t, tol=DEFAULT_TOLERANCES, poles=None):
    """A(t): bound-state term plus the branch-cut integral; ``t`` is a time
    or a 1-d grid (a grid gives an array)."""
    times, scalar = _time_grid(t)
    p = poles if poles is not None else friedrichs_poles(params)
    bound = p.bound_residue * np.exp(-1j * p.e_bound * times)
    total = bound + a_cut_direct(params, times, tol=tol, poles=p)
    return complex(total[0]) if scalar else total
