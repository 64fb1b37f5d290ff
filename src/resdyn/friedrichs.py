"""Friedrichs model: a discrete level coupled to a half-line continuum.

The cut integrand of the survival amplitude is sqrt(beta E) 2 g^2 / C(E)
with C = Q/(E + beta) a monic cubic, so it splits into one closed-form
component per root E_n of C, with weight w_n = 2 g^2 / C'(E_n): a real root
B (bound or virtual) and a resonance pair R, AR, or, for a deep level with
weak coupling, B on the first sheet and two virtual states V1, V2.

Each component has one closed form, with no branch to choose:

  A_n(t) = w_n sqrt(beta) [sqrt(pi/(it)) + i pi rho_n w(sqrt(it) rho_n)],

where rho_n is the square root of E_n in the upper half-plane and
w(z) = e^{-z^2} erfc(-iz) is the Faddeeva function (DLMF 7.2.3,
``kernel.faddeeva``), which neither overflows nor underflows at large
|t Im E_n|.  The weights of a monic cubic sum to zero, so the
sqrt(pi/(it)) terms cancel exactly from the survival amplitude

  A(t) = r_B e^{-i E_B t} + i pi sqrt(beta) sum_n w_n rho_n w(sqrt(it) rho_n),

r_B being the residue of the Green's function at B (0 for a virtual
state); at t = 0, w(0) = 1.  ``a_cut_direct`` integrates the cut instead,
turned onto one ray from E = 0 with the residues of the poles it passes
written out from the energies, sharing none of this, as the reference of
``oracle-check``.  The functions that take ``poles=`` reject poles solved
for other parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    PoleProximity,
    QuadratureError,
    ValidityWarning,
)
from .kernel import (
    adaptive_quad,  # noqa: F401  (bench/spans.py traces the kernel here)
    erfc_complex,  # noqa: F401  (likewise)
    faddeeva,
    piecewise_quad,
    poly_roots,
)
from .lattice import (
    DEFAULT_TOLERANCES,
    _failure_message,
    _time_grid,
)

# |g| for which (2 pi g^2)^2, in the quartic Q, is a normal float
_G_RANGE = (1e-77, 1e76)


@dataclass(frozen=True)
class FriedrichsParams:
    """Level energy omega1, form-factor scale beta (> 0), coupling g."""

    omega1: float
    beta: float
    g: float

    def __post_init__(self):
        vals = (self.omega1, self.beta, self.g)
        if not all(map(math.isfinite, vals)):
            raise DomainError("parameters must be finite")
        if self.beta <= 0:
            raise DomainError("beta must be positive")


@dataclass(frozen=True)
class Pole:
    """A root E_n of the cubic, its label and its partial-fraction weight."""

    label: str
    energy: complex
    weight: complex


@dataclass(frozen=True)
class FriedrichsPoles:
    """The roots of the cubic in component order, B first.

    bound_residue is the residue of the Green's function at B, i.e. the
    weight of the bound term of the survival amplitude (0 when B is a
    virtual state).  ``poles[label]`` looks a root up by its label.
    """

    roots: tuple
    bound_residue: float
    params: FriedrichsParams

    def __getitem__(self, label):
        for pole in self.roots:
            if pole.label == label:
                return pole
        raise DomainError(f"no pole {label!r}; the poles are "
                          + ", ".join(p.label for p in self.roots))


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
        denom = _eta_negative_axis(params, e)  # real, so both sides agree
    if abs(denom) < 1e-12:
        raise PoleProximity(f"Green's function pole within 1e-12 at E = {e}")
    return 1.0 / denom


def _eta_negative_axis(params, e):
    """Level-shift denominator on E < 0 (real there).  With u = sqrt(-beta E),
    (beta - u)/(beta + E) = beta/(beta + u), which does not cancel near
    E = -beta."""
    u = np.sqrt(-params.beta * e)
    return e - params.omega1 + _two_pi_g2(params) * params.beta / (params.beta + u)


def _eta_prime_negative_axis(params, e):
    u = np.sqrt(-params.beta * e)
    return 1.0 + _two_pi_g2(params) / (2.0 * u * (1.0 + u / params.beta) ** 2)


def _scaled_cubic(params):
    """C = Q/(E + beta) in y = (E - omega1)/(2 pi g^2), divided by
    (2 pi g^2)^2: 2 pi g^2 y^3 + (omega1 + beta) y^2 + 2 beta y + beta,
    ascending.  However weak the coupling, the resonance pair stays at
    y = O(1), where its imaginary part keeps its relative precision."""
    beta = params.beta
    return np.array([beta, 2.0 * beta, params.omega1 + beta, _two_pi_g2(params)])


def _quartic(params, e):
    """Q(E) and Q'(E) in the factored form Q = N^2 + (2 pi g^2)^2 beta E,
    N = (E + beta)(E - omega1) + 2 pi g^2 beta, which keeps the digits that
    the expanded coefficients lose."""
    beta, omega1 = params.beta, params.omega1
    tpg = _two_pi_g2(params)
    n = (e + beta) * (e - omega1) + tpg * beta
    return (n * n + tpg ** 2 * beta * e,
            2.0 * n * (2.0 * e + beta - omega1) + tpg ** 2 * beta)


def cut_integrand_rational(params, e):
    """2 g^2 (E + beta) / Q(E): the rational part of the cut integrand."""
    e = np.asarray(e, dtype=complex)
    return 2.0 * params.g ** 2 * (e + params.beta) / _quartic(params, e)[0]


def _newton_on_quartic(params, e):
    """Two Newton steps on Q at the real roots e, each kept only where it
    lowers |Q|."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            q, dq = _quartic(params, e)
            trial = e - q / dq
            e = np.where(np.abs(_quartic(params, trial)[0]) < np.abs(q),
                         trial, e)
    return e


def friedrichs_poles(params):
    """The roots of the cubic with their labels and weights.

    One real root and a conjugate pair are labelled B, R, AR; three real
    roots B, V1, V2, where B is the one with the smallest first-sheet
    level-shift function eta_1.  As eta_1 rises from -inf to
    2 pi g^2 - omega1 on E < 0, B is a true bound state exactly when
    omega1 < 2 pi g^2, and otherwise a virtual state.  g = 0 raises
    DomainError, as does a g outside [1e-77, 1e76], where (2 pi g^2)^2
    leaves the normal float range, or a cubic whose companion matrix would
    overflow.
    """
    if params.g == 0.0:
        raise DomainError("g = 0 decouples the level: there is no cut")
    if not _G_RANGE[0] <= abs(params.g) <= _G_RANGE[1]:
        raise DomainError(f"g = {params.g:g} leaves the float range: "
                          f"(2 pi g^2)^2 needs {_G_RANGE[0]:g} <= |g| <= "
                          f"{_G_RANGE[1]:g}")
    tpg = _two_pi_g2(params)
    cubic = _scaled_cubic(params)
    with np.errstate(over="ignore"):
        companion = cubic[:-1] / tpg
    if not np.isfinite(companion).all():
        raise DomainError("the cubic leaves the float range: beta or "
                          "omega1 + beta over 2 pi g^2 overflows")
    roots = [params.omega1 + tpg * y for y in poly_roots(cubic)]
    # a real root far from omega1 loses digits to the cancellation in
    # omega1 + 2 pi g^2 y; Newton on Q wins them back
    reals = np.sort(_newton_on_quartic(
        params, np.array([r.real for r in roots if r.imag == 0])))
    lower = [r for r in roots if r.imag < 0]
    b = int(np.argmin(np.abs(_eta_negative_axis(params, reals))))
    e_bound = float(reals[b])
    if len(lower):
        e_res = complex(lower[0])
        energies = {"B": complex(e_bound), "R": e_res, "AR": e_res.conjugate()}
    else:
        v1, v2 = np.delete(reals, b)
        energies = {"B": complex(e_bound), "V1": complex(v1), "V2": complex(v2)}

    # C'(E_n) = prod_{m != n} (E_n - E_m) for the monic cubic: the product
    # of root differences keeps the digits that evaluating C' from its
    # coefficients loses next to a narrow resonance
    weights = {n: complex(2.0 * params.g ** 2 / np.prod(
        [energies[n] - energies[m] for m in energies if m != n]))
        for n in energies}
    if "AR" in weights:
        weights["AR"] = weights["R"].conjugate()
    # a virtual state leaves the survival amplitude to the cut alone
    # (A_cut(0) = 1)
    bound_residue = (float(1.0 / _eta_prime_negative_axis(params, e_bound))
                     if params.omega1 < tpg else 0.0)
    return FriedrichsPoles(
        tuple(Pole(n, e, weights[n]) for n, e in energies.items()),
        bound_residue, params)


def _poles_of(params, poles):
    """``poles``, solved for ``params``, or the poles of ``params`` when
    None; poles solved for other parameters raise DomainError."""
    if poles is None:
        return friedrichs_poles(params)
    if poles.params != params:
        raise DomainError("the poles were solved for other parameters")
    return poles


# ---------------------------------------------------------------------------
# the reference: quadrature of the cut integral


def a_cut_direct(params, t, tol=DEFAULT_TOLERANCES, poles=None):
    """Branch-cut part of the survival amplitude by direct quadrature.

    A_cut(t) is the integral over E in [0, inf) of f(E) e^{-iEt}, with
    f = sqrt(beta E) ``cut_integrand_rational``.  For t >= 0 the cut is
    turned clockwise about E = 0 onto the ray E = s e^{-i phi}, on which
    e^{-iEt} decays; phi is pi/2 or pi/4, whichever lies farther in angle
    from every pole, so a narrow resonance leaves the ray smooth.  Each pole
    E_n that the turn passes (in practice R) adds -2 pi i times the residue
    of f e^{-iEt} there, sqrt(beta E_n) 2 g^2 / prod_{m != n} (E_n - E_m)
    e^{-iE_n t}, written out from the energies and not read from the
    weights.  f is real on E > 0, so A_cut(-t) = conj A_cut(t).

    ``t`` is a time or a 1-d grid (a grid gives an array).  The distinct
    |t| are one vector-valued quadrature on x in (0, 1), in blocks of
    1,024 columns, with E = (sigma x/(1 - x))^2 e^{-i phi} and
    sigma = (|t| + 1/scale)^{-1/2}, scale the largest |E_n|: each column
    sees the decay of its phase and of f on the same x.
    """
    times, scalar = _time_grid(t)
    p = _poles_of(params, poles)
    energies = np.array([pole.energy for pole in p.roots])
    phi = max((np.pi / 2, np.pi / 4),
              key=lambda a: np.abs(np.angle(energies * np.exp(1j * a))).min())
    turn = np.exp(-1j * phi)
    scale = np.abs(energies).max()
    mags, inverse = np.unique(np.abs(times), return_inverse=True)
    # pole n sits near x = sqrt(|E_n| (|t| + 1/scale)), far inside the first
    # panel when |E_n| << scale: edges at x = 4^-k, k = 0 ... depth, give
    # every factor 16 in |E| down to the smallest pole a panel of its own (a
    # root at E = 0 is the endpoint, which the map already resolves)
    log_moduli = np.log2(np.abs(energies[energies != 0.0]))
    depth = np.floor((log_moduli.max() - log_moduli.min()) / 4.0)
    edges = np.concatenate(([0.0], 4.0 ** np.arange(-depth, 1)))

    def ray_integral(cols):
        sigma2 = 1.0 / (cols + 1.0 / scale)

        def integrand(x):
            r = (x / (1.0 - x))[:, None]
            e = sigma2 * r * r * turn
            de = 2.0 * sigma2 * r / (1.0 - x[:, None]) ** 2 * turn
            return (np.sqrt(params.beta * e) * cut_integrand_rational(params, e)
                    * np.exp(-1j * e * cols) * de)

        return piecewise_quad(integrand, edges, abs_tol=tol.abs_tol,
                              rel_tol=tol.rel_tol).value

    try:
        # 1,024 columns at a time hold the refinement near 10 MB
        value = np.concatenate([ray_integral(mags[i:i + 1024])
                                for i in range(0, len(mags), 1024)])
    except QuadratureError as exc:
        raise type(exc)(_failure_message("Friedrichs cut", times, tol, exc),
                        result=exc.result) from exc
    for n, energy in enumerate(energies):
        if -phi < np.angle(energy) < 0.0:
            residue = (np.sqrt(params.beta * energy) * 2.0 * params.g ** 2
                       / np.prod(energy - np.delete(energies, n)))
            value = value - 2j * np.pi * residue * np.exp(-1j * energy * mags)
    out = value[inverse]
    out = np.where(times < 0.0, out.conj(), out)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# closed forms


def _faddeeva_term(beta, weight, energy, t):
    """i pi sqrt(beta) w rho w(sqrt(it) rho), rho the root of E in the upper
    half-plane: the part of a pole's cut component that survives in the sum
    over the poles (module docstring).  The arguments broadcast against each
    other, so one Faddeeva call serves any number of poles and times."""
    root = np.sqrt(energy)
    rho = np.where(root.imag > 0, root, -root)
    # sqrt(it) rho is taken as the principal sqrt(iEt), negated onto its
    # side, not as the product: that keeps every printed digit of the
    # bundled outputs, which the product moves by up to 1.1e-13 relative
    # without being more accurate (both are within 4e-15 of 40 digits on
    # fig11's grid)
    z = np.sqrt(1j * energy * t)
    z = np.where((z * np.conj(np.sqrt(1j * t) * rho)).real < 0, -z, z)
    return 1j * np.pi * np.sqrt(beta) * weight * rho * faddeeva(z)


def _fm7_value(beta, weight, energy, t):
    term1 = np.sqrt(-1j * (np.pi / t))  # sqrt(pi/(it)), rounded once
    return (weight * np.sqrt(beta) * term1
            + _faddeeva_term(beta, weight, energy, t))


def _pole_columns(poles):
    """The weights and energies of ``poles.roots`` as columns."""
    return (np.array([[pole.weight] for pole in poles.roots]),
            np.array([[pole.energy] for pole in poles.roots]))


def a_components(params, t, poles=None):
    """Closed-form cut components A_n(t) of every pole, one row per pole in
    ``poles.roots`` order, from one Faddeeva call.

    ``t`` is a time (a row is then one value) or a 1-d grid.  The closed
    form has no branch to choose (module docstring), so no quadrature is
    made; t = 0 is rejected because individual components diverge there.
    """
    times, scalar = _time_grid(t)
    if np.any(times == 0.0):
        raise DomainError("single cut components diverge at t = 0")
    p = _poles_of(params, poles)
    weight, energy = _pole_columns(p)
    out = _fm7_value(params.beta, weight, energy, times)
    return out[:, 0] if scalar else out


def a_component(params, n, t, poles=None):
    """The cut component A_n(t) of the pole labelled n: its row of
    ``a_components``."""
    p = _poles_of(params, poles)
    row = p.roots.index(p[n])
    out = a_components(params, t, p)[row]
    return complex(out) if np.ndim(out) == 0 else out


def a_component_asymptotic(params, t, poles=None):
    """Resonant component for large negative time: power-law (E_R t)^{-3/2}.

    ``t`` is a time or a 1-d grid of negative times (a grid gives an array).
    This is the leading term of the erfc expansion of the closed form in the
    large-negative-time regime, where the resonant component is suppressed;
    for t > 0 the component also carries the pole term e^{-iE_R t}, which
    this form omits, so t >= 0 raises DomainError.  Warns when -t |E_R| is
    not large.
    """
    times, scalar = _time_grid(t)
    if np.any(times >= 0.0):
        raise DomainError(
            "the power-law form holds only in the large-negative-time regime "
            "(-t |E_R| >> 1); t >= 0 requested")
    p = _poles_of(params, poles)
    res = p["R"]
    if -times.max() * abs(res.energy) < 10.0:
        warnings.warn("asymptotic resonant form used at -t |E_R| < 10",
                      ValidityWarning)
    out = (-res.weight * np.sqrt(np.pi * params.beta)
           / (2.0 * np.sqrt(1j * times) ** 3 * res.energy))
    return complex(out[0]) if scalar else out


def survival_total(params, t, poles=None):
    """A(t): the bound-state term plus the sum over every pole of its cut
    component without the sqrt(pi/(it)) term, which cancels in the sum
    (module docstring); ``t`` is a time or a 1-d grid (a grid gives an
    array).  One Faddeeva call covers every pole and time; the poles are
    summed in their order."""
    times, scalar = _time_grid(t)
    p = _poles_of(params, poles)
    weight, energy = _pole_columns(p)
    total = p.bound_residue * np.exp(-1j * p["B"].energy.real * times)
    for term in _faddeeva_term(params.beta, weight, energy, times):
        total += term
    return complex(total[0]) if scalar else total
