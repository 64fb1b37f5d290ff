"""T-shaped quantum-dot model: discrete spectrum and survival dynamics.

A dot site d1 couples through d2 to two semi-infinite leads with dispersion
E_k = -2b cos k.  On the lambda = e^{ik} plane the four discrete eigenvalues
are roots of a quartic; their residue weights give a component decomposition
of the survival amplitude in which resonant and anti-resonant contributions
break time-reversal symmetry individually while their sum restores it.

All amplitudes here are matrix elements <d1| . >; energies are in units of
the lead hopping b.
"""

from __future__ import annotations

import enum
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolated,
    DegenerateLeadCoupling,
    DomainError,
    NearDegenerateSpectrum,
    NoResonance,
    NoSignChange,
    QuadratureError,
    Unclassifiable,
    Underflow,
    ValidityWarning,
)
from .kernel import (
    bessel_j1,
    piecewise_quad,
    poly_roots,
    upper_gamma_mhalf,
)


@dataclass(frozen=True)
class Tolerances:
    """Quadrature tolerances threaded through the amplitude evaluations."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class TDotParams:
    """Physical parameters: lead hopping b, on-site energies, couplings."""

    b: float
    eps1: float
    eps2: float
    g: float
    t2l: float
    t2r: float

    def __post_init__(self):
        vals = (self.b, self.eps1, self.eps2, self.g, self.t2l, self.t2r)
        if not all(np.isfinite(v) for v in vals):
            raise DomainError("parameters must be finite")
        if self.b <= 0:
            raise DomainError("b must be positive")

    @property
    def lead_coupling(self):
        """T = (t2L^2 + t2R^2)/b, the combined dot-lead coupling scale."""
        return (self.t2l ** 2 + self.t2r ** 2) / self.b


class StateClass(enum.Enum):
    BOUND = "bound"
    ANTI_BOUND = "anti-bound"
    RESONANT = "resonant"
    ANTI_RESONANT = "anti-resonant"


@dataclass(frozen=True)
class DiscreteState:
    """One point-spectrum eigenstate and its survival-weight residues.

    weight_w is w_n = lam_n <d1|psi_n><psi~_n|d1>; weight_q the d1-d2
    analogue feeding superposition initial states; dyad_phi the product
    <d1|phi_n><phi~_n|d1> in the conventionally normalized eigenstates,
    equal to (1/lam - lam) * weight_w.
    """

    lam: complex
    energy: complex
    state_class: StateClass
    weight_w: complex
    dyad_phi: complex
    weight_q: complex


@dataclass(frozen=True)
class ThetaState:
    """Relative phase of the (|d1> + e^{i theta}|d2>)/sqrt(2) initial state."""

    theta: float

    def __post_init__(self):
        if not np.isfinite(self.theta):
            raise DomainError("theta must be finite")


@dataclass(frozen=True)
class ZenoReport:
    """Symmetry-breaking time t0, Zeno scale tZ, and how non-real t0 was."""

    t0: float
    tz: float
    imag_fraction: float


_CLASS_ORDER = {
    StateClass.BOUND: 0,
    StateClass.ANTI_BOUND: 1,
    StateClass.RESONANT: 2,
    StateClass.ANTI_RESONANT: 3,
}


@dataclass(frozen=True)
class Spectrum:
    """The discrete spectrum (4 states, or 3 when the quartic degenerates)."""

    states: tuple
    params: TDotParams
    flags: tuple = field(default=())

    def by_class(self, state_class):
        return [s for s in self.states if s.state_class is state_class]

    def resonant(self):
        res = self.by_class(StateClass.RESONANT)
        if not res:
            raise NoResonance("spectrum has no resonant state (left of the EP)")
        return res[0]

    def completeness_defect(self):
        """|sum_n w_n/lam_n - 1|; zero for an exact expansion of <d1|d1>."""
        return abs(sum(s.weight_w / s.lam for s in self.states) - 1.0)


def h_lambda(params, lam):
    """h(lambda) = -b(lambda + 1/lambda) - eps1; symmetric under lam -> 1/lam."""
    lam = complex(lam)
    if lam == 0:
        raise DomainError("lambda = 0 is a pole of h")
    return -params.b * (lam + 1.0 / lam) - params.eps1


def f_lambda(params, lam):
    """The secular function whose roots are the discrete eigenvalues."""
    lam = complex(lam)
    if lam == 0:
        raise DomainError("lambda = 0 is a pole of f")
    e = -params.b * (lam + 1.0 / lam)
    return (e - params.eps1) * (e - params.eps2 + lam * params.lead_coupling) \
        - params.g ** 2


def p4_coefficients(params):
    """Ascending coefficients of P4(lambda) = lambda^2 f(lambda) / b^2."""
    b, e1, e2, g = params.b, params.eps1, params.eps2, params.g
    t = params.lead_coupling
    c4 = b * (b - t)
    c3 = b * e2 + e1 * (b - t)
    c2 = b * b + e1 * e2 + b * (b - t) - g * g
    c1 = b * (e1 + e2)
    c0 = b * b
    return [c / b ** 2 for c in (c0, c1, c2, c3, c4)]


def classify(lam, energy, tol=1e-9):
    """Sort one eigenvalue into bound / anti-bound / resonant / anti-resonant.

    Raises Unclassifiable when |lambda| = 1 within tol (band edge).
    """
    lam = complex(lam)
    energy = complex(energy)
    if abs(abs(lam) - 1.0) <= tol:
        raise Unclassifiable(f"|lambda| = 1 within {tol:g}: band-edge degeneracy")
    if abs(lam.imag) < tol:
        return StateClass.BOUND if abs(lam) < 1.0 else StateClass.ANTI_BOUND
    return StateClass.RESONANT if energy.imag < 0 else StateClass.ANTI_RESONANT


def discrete_spectrum(params):
    """Roots of the quartic plus residue weights, classified.

    The roots are companion-matrix eigenvalues with a Newton polish, each
    an exact root of the quartic with coefficients perturbed by at most
    1e-10 relative (``kernel.roots.BACKWARD_TOL``), also next to T = b,
    where one root grows without bound as the leading coefficient vanishes.
    Weights follow from residues of the resolvent matrix elements:
    W_n = 1/(h(lam_n) f'(lam_n)), w_n = b g^2 W_n / lam_n, and the d1-d2
    channel q_n = -g b/(lam_n f'(lam_n)).  Since f = b^2 P/lam^2 with
    P = c_lead prod_m (lam - lam_m), f'(lam_n) = b^2 c_lead prod_{m != n}
    (lam_n - lam_m) / lam_n^2: the root differences keep their digits up to
    the exceptional point, where f' from the coefficients cancels.  A real
    root's weights are exactly real.  Near-degenerate root pairs and the
    degeneracy T = b are flagged, not fatal; there every leading coefficient
    at or below 1e-12 of the largest is dropped, each with the root that
    grows without bound as it vanishes.  With no coefficient left but c0
    (next to b = g = T, eps1 = eps2 = 0) no state remains, and NoResonance
    is raised.
    """
    if params.g == 0:
        raise DomainError("g = 0 decouples d1; residue weights are undefined")
    coeffs = p4_coefficients(params)
    scale = max(abs(c) for c in coeffs)
    flags = []
    while abs(coeffs[-1]) <= 1e-12 * scale:  # c0 = 1 ends the loop
        coeffs = coeffs[:-1]
    if len(coeffs) == 1:
        # the dropped roots would carry all of sum_n w_n/lam_n = 1
        raise NoResonance("the quartic is constant to 1e-12 (d1, d2 and the "
                          "leads form a uniform chain): no discrete state")
    if len(coeffs) < 5:
        degree = len(coeffs) - 1
        flags.append("degenerate-lead-coupling")
        warnings.warn(f"lead coupling lowers the quartic to degree {degree}; "
                      f"{degree} states", DegenerateLeadCoupling)
    roots = poly_roots(coeffs)

    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            # near a double root the achievable root accuracy is ~sqrt(eps),
            # so a detector much below 1e-6 could never fire
            if abs(roots[i] - roots[j]) < 1e-6 * max(1.0, abs(roots[i])):
                flags.append("near-degenerate")
                warnings.warn("two eigenvalues nearly coincide (EP vicinity)",
                              NearDegenerateSpectrum)
                break

    b, g = params.b, params.g
    c_lead = coeffs[len(roots)]
    states = []
    for n, lam in enumerate(roots):
        energy = -b * (lam + 1.0 / lam)
        fp = b * b * c_lead * complex(np.prod(
            [lam - other for m, other in enumerate(roots) if m != n])) / lam ** 2
        if lam.imag == 0:
            fp = fp.real
        w_big = 1.0 / (h_lambda(params, lam) * fp)
        w = b * g * g * w_big / lam
        dyad = (1.0 / lam - lam) * w
        q = -g * b / (lam * fp)
        states.append(DiscreteState(lam, energy, classify(lam, energy), w, dyad, q))
    states.sort(key=lambda s: (_CLASS_ORDER[s.state_class], s.energy.real, s.energy.imag))
    return Spectrum(tuple(states), params, tuple(dict.fromkeys(flags)))


# ---------------------------------------------------------------------------
# Time grids and vector-valued quadrature shared with the Friedrichs model

# integrand values (complex) per first pass of one vector-valued quadrature
_BLOCK = 1 << 18


def _time_grid(t):
    """(grid, scalar): a time or a finite 1-d grid of times as a float array."""
    t = np.asarray(t, dtype=float)
    grid = t.reshape(-1)
    if t.ndim > 1 or not np.all(np.isfinite(grid)):
        raise DomainError("t must be a finite time or a finite 1-d grid")
    return grid, t.ndim == 0


def _octave_groups(scale):
    """Index arrays of the entries of ``scale`` (> 0) that share an octave
    (2^(k-1), 2^k], ascending in scale within each group."""
    if not len(scale):
        return []
    order = np.argsort(scale, kind="stable")
    octave = np.ceil(np.log2(scale[order]))
    return np.split(order, np.flatnonzero(np.diff(octave)) + 1)


@contextmanager
def _quadrature_context(what, t_lo, t_hi, tol):
    """Re-raise a quadrature failure with the same type and result, naming
    the series, its span of times and the tolerance."""
    try:
        yield
    except QuadratureError as exc:
        raise type(exc)(
            f"{what} over t in [{t_lo:g}, {t_hi:g}] (abs_tol {tol.abs_tol:g}, "
            f"rel_tol {tol.rel_tol:g}): {exc}", result=exc.result) from exc


def _grid_quad(integrand, pts, times, tol, what):
    """integral over the panels ``pts`` of integrand(times)(x), an
    (n_nodes, len(times)) array, for every time at once.

    Times go in chunks that keep a first pass's nodes x times block near
    _BLOCK values; each chunk is one vector-valued quadrature.
    """
    width = max(1, _BLOCK // (15 * (len(pts) - 1)))
    out = np.empty(len(times), dtype=complex)
    for start in range(0, len(times), width):
        chunk = times[start:start + width]
        with _quadrature_context(what, chunk.min(), chunk.max(), tol):
            out[start:start + width] = piecewise_quad(
                integrand(chunk), pts, abs_tol=tol.abs_tol,
                rel_tol=tol.rel_tol).value
    return out


# ---------------------------------------------------------------------------
# Bessel-integral engines shared by the component amplitudes


def _j1_over_t(b, tp):
    x = 2.0 * b * tp
    out = np.empty_like(tp)
    nz = tp != 0
    out[nz] = bessel_j1(x[nz]) / tp[nz]
    out[~nz] = b
    return out


def _power_exp_tails(alpha, t_from):
    """G_s = integral_{t_from}^inf t^{-s} e^{i alpha t} dt for s = 3/2, 5/2,
    7/2 (Im alpha >= 0), via w^{s-1} Gamma(1-s, w t_from) with w = -i alpha
    and the downward recurrence from Gamma(-1/2, .)."""
    w = -1j * alpha
    z = w * t_from
    g_half = upper_gamma_mhalf(z)
    core = z ** -1.5 * np.exp(-z)
    g_3half = (2.0 / 3.0) * (core - g_half)
    g_5half = (2.0 / 5.0) * (core / z - g_3half)
    return (np.sqrt(w) * g_half, w ** 1.5 * g_3half, w ** 2.5 * g_5half)


def _bessel_tail_analytic(b, energy, t_from):
    """Closed form of integral_{t_from}^inf e^{-iEt'} J1(2bt')/t' dt' from
    the two-term Hankel expansion of J1; absolute error O((b t_from)^{-7/2}),
    so t_from must be well past the first few oscillations.
    """
    alpha1 = 2.0 * b - energy
    alpha2 = -(2.0 * b + energy)
    p2 = 15.0 / (512.0 * b * b)
    q1 = 3.0 / (16.0 * b)
    g1_32, g1_52, g1_72 = _power_exp_tails(alpha1, t_from)
    g2_32, g2_52, g2_72 = _power_exp_tails(alpha2, t_from)
    ph_m = np.exp(-0.25j * np.pi)
    ph_p = np.exp(0.25j * np.pi)
    sin_part = (ph_m * (g1_32 + p2 * g1_72) - ph_p * (g2_32 + p2 * g2_72)) / 2j
    cos_part = q1 * (ph_m * g1_52 + ph_p * g2_52) / 2.0
    return (sin_part + cos_part) / np.sqrt(np.pi * b)


def _panel_edges(edges, period):
    """Panel edges that split every segment [edges[k], edges[k+1]] of an
    ascending array into n_k = max(1, ceil(width_k/period)) equal panels,
    at edges[k] + j*(width_k/n_k): the arithmetic of np.linspace."""
    width = np.diff(edges)
    n = np.maximum(1, np.ceil(width / period)).astype(int)
    seg = np.repeat(np.arange(len(n)), n)
    j = np.arange(len(seg)) - np.repeat(np.cumsum(n) - n, n)
    return np.append(edges[seg] + j * (width / n)[seg], edges[-1])


def _segment_integrals(b, energy, edges, anchor_right, tol):
    """integral over [edges[k], edges[k+1]] of e^{-iE u} J1(2bt')/t' dt' for
    every k, with u = edges[k+1] - t' (anchor_right) or u = t' - edges[k].

    One piecewise_quad pass covers all segments.  Grid times are panel
    edges, so every converged leaf panel lies inside one segment and the
    per-segment sums are exact.  Since u >= 0, the phase factor has modulus
    at most 1 whenever Im E <= 0.
    """
    period = np.pi / (2.0 * b + abs(energy.real) + abs(energy.imag))
    pts = _panel_edges(edges, period)

    def integrand(tp):
        # a node of a machine-width segment can round onto edges[0]
        k = np.clip(np.searchsorted(edges, tp) - 1, 0, len(edges) - 2)
        u = edges[k + 1] - tp if anchor_right else tp - edges[k]
        return np.exp(-1j * energy * u) * _j1_over_t(b, tp)

    res = piecewise_quad(integrand, pts, abs_tol=tol.abs_tol, rel_tol=tol.rel_tol)
    lo, _hi, values = res.panels
    return np.add.reduceat(values, np.searchsorted(lo, edges[:-1]))


def _forward_grid(b, energy, s, tol):
    """F(s) = integral_0^s e^{-iE(s - t')} J1(2bt')/t' dt' on an ascending
    grid s >= 0, by F(s_{k+1}) = e^{-iE(s_{k+1} - s_k)} F(s_k) + segment k.
    """
    edges = np.concatenate(([0.0], s[s > 0]))
    out = np.zeros(len(edges), dtype=complex)
    if len(edges) > 1:
        seg = _segment_integrals(b, energy, edges, True, tol)
        step = np.exp(-1j * energy * np.diff(edges))
        for k in range(len(seg)):
            out[k + 1] = step[k] * out[k] + seg[k]
    return out[len(edges) - len(s):]


def _tail_grid(b, energy, s, tol):
    """U(s) = integral_s^inf e^{-iE(t' - s)} J1(2bt')/t' dt' on an ascending
    grid s > 0 (Im E < 0).

    One segment pass runs over the grid and on past S = s[-1] to a cutoff:
    the point where the e^{Im E t'} envelope makes the remainder negligible,
    or a fixed horizon past which the analytic incomplete-gamma tail takes
    over (essential near the EP, where Im E is tiny and the envelope alone
    would force a huge range).  U(s_k) = segment k + e^{-iE(s_{k+1} - s_k)}
    U(s_{k+1}) then runs inward from U(t_cut), which is 0 or, with the
    analytic tail, e^{iE t_cut} T(t_cut).  Every step factor and anchored
    phase has modulus at most 1, so U stays finite at any |t|; the one
    growing exponential, e^{iE t_cut}, meets only the analytic tail, where
    t_cut < 6 t_exp keeps -Im E t_cut below about 200-350 at the default
    abs_tol, far from overflow.
    """
    gamma = -energy.imag
    t_exp = (np.log(1.0 / tol.abs_tol) + np.log1p(1.0 / gamma) + 8.0) / gamma
    horizon = max(400.0 / b, s[-1] * 0.2)
    t_cut = s[-1] + min(t_exp, horizon)
    use_analytic_tail = t_exp > horizon
    if use_analytic_tail:
        t_cut = max(t_cut, 150.0 / b)  # Hankel validity for the closed tail
    edges = np.append(s, t_cut)
    seg = _segment_integrals(b, energy, edges, False, tol)
    step = np.exp(-1j * energy * np.diff(edges))
    out = np.zeros(len(edges), dtype=complex)
    if use_analytic_tail:
        out[-1] = (np.exp(1j * energy * t_cut)
                   * _bessel_tail_analytic(b, energy, t_cut))
    for k in range(len(s) - 1, -1, -1):
        out[k] = seg[k] + step[k] * out[k + 1]
    return out[:-1]


def amplitude_grid(spectrum, times, weights=None, tol=DEFAULT_TOLERANCES):
    """<d1|chi_n(t)> for every state n and grid time t, shape (n_states, n_times).

    ``weights`` replaces the residue weights w_n (theta superpositions pass
    ``theta_weights``).  A state's amplitude is its weight times
    e^{-iEt}/lam - i F_E(t) for t >= 0; the Bessel integrals depend only on
    E, so they are computed once per distinct energy on the distinct |t|,
    and time reversal gives the rest (H and |d1> are real):

    * a real-energy state at t < 0 is the conjugate of its value at |t|;
    * a resonant state at t < 0 is -i weight U_E(|t|), from the decaying tail;
    * an anti-resonant state at t is the conjugate of its resonant partner
      (conjugated lam and E) at -t, so R and AR share one forward and one
      tail pass.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise DomainError("times must be a finite 1-d grid")
    states = spectrum.states
    weights = np.array([s.weight_w for s in states] if weights is None
                       else weights, dtype=complex)
    if weights.shape != (len(states),):
        raise DomainError("need one weight per state")
    s, inverse = np.unique(np.abs(times), return_inverse=True)
    pos = s[s > 0]
    b = spectrum.params.b

    integrals = {}  # E -> (F_E on s, U_E on s with 0 at s = 0, or None)

    def bessel_integrals(st, energy):
        if energy not in integrals:
            what = (f"integral of the {st.state_class.value} state "
                    f"(E = {st.energy:.9g})")
            with _quadrature_context("forward " + what, 0.0,
                                     s.max(initial=0.0), tol):
                forward = _forward_grid(b, energy, s, tol)
            tail = None
            if st.state_class in (StateClass.RESONANT,
                                  StateClass.ANTI_RESONANT) and len(pos):
                with _quadrature_context("tail " + what, pos[0], pos[-1], tol):
                    tail = np.concatenate((np.zeros(len(s) - len(pos)),
                                           _tail_grid(b, energy, pos, tol)))
            integrals[energy] = forward, tail
        return integrals[energy]

    out = np.empty((len(states), len(times)), dtype=complex)
    for n, st in enumerate(states):
        mirror = st.state_class is StateClass.ANTI_RESONANT
        lam, energy = (np.conj(st.lam), np.conj(st.energy)) if mirror \
            else (st.lam, st.energy)
        forward, tail = bessel_integrals(st, energy)
        # the (mirrored) state's unit amplitude at +|t| and at -|t|
        plus = np.exp(-1j * energy * s) / lam - 1j * forward
        minus = np.conj(plus) if tail is None else -1j * tail
        unit = np.where((times > 0) if mirror else (times < 0),
                        minus[inverse], plus[inverse])
        out[n] = weights[n] * (np.conj(unit) if mirror else unit)
    if not np.all(np.isfinite(out)):
        raise Underflow("amplitudes exceed the representable dynamic range")
    return out


def component_chi(spectrum, n, t, tol=DEFAULT_TOLERANCES):
    """<d1|chi_n(t)>, the n-th eigenstate's share of the survival amplitude."""
    return amplitude_grid(spectrum, [t], tol=tol)[n, 0]


def theta_weights(spectrum, theta_state):
    """(w_n + e^{i theta} q_n)/sqrt(2): the residue weights of the
    (|d1> + e^{i theta}|d2>)/sqrt(2) initial state."""
    phase = np.exp(1j * theta_state.theta)
    return np.array([(s.weight_w + phase * s.weight_q) / np.sqrt(2.0)
                     for s in spectrum.states])


def theta_amplitude(spectrum, theta_state, n, t, tol=DEFAULT_TOLERANCES):
    """<d1|chi_n(t)> for the (|d1> + e^{i theta}|d2>)/sqrt(2) initial state.

    ``n`` is a state index or "total" for the sum over all states.
    """
    rows = amplitude_grid(spectrum, [t], theta_weights(spectrum, theta_state),
                          tol)[:, 0]
    return sum(rows) if n == "total" else rows[n]


def survival_direct(params, t, tol=DEFAULT_TOLERANCES, spectrum=None):
    """A(t) = <d1|e^{-iHt}|d1> from bound-pole residues plus the unit-circle
    integral of the partial-fraction contour integrand.

    ``t`` is a time or a 1-d grid (a grid gives an array).  H and |d1> are
    real, so A(-t) = conj A(t): only the distinct |t| are integrated.  For
    the same reason the states and weights come in conjugate pairs, so the
    integrand f at -k is the mirror of f at k and the circle folds onto
    [0, pi]: f(k) + f(-k) = -(2bg^2/pi) sin k Im sum_n W_n/(e^{ik} - lam_n)
    e^{2ibt cos k}, a real t-independent factor times a phase.  Only that
    phase depends on t, so the times are grouped by octave of 2b|t| and
    each group is one vector-valued quadrature on the panel edges its
    largest |t| needs; 2b|t| <= 8 is one group.
    """
    grid, scalar = _time_grid(t)
    times, inverse = np.unique(np.abs(grid), return_inverse=True)
    s = spectrum if spectrum is not None else discrete_spectrum(params)
    b, g = params.b, params.g
    bound_sum = sum(
        st.dyad_phi * np.exp(-1j * st.energy * times)
        for st in s.by_class(StateClass.BOUND)
    )
    lams = np.array([st.lam for st in s.states])
    w_big = np.array([st.weight_w * st.lam / (b * g * g) for st in s.states])

    def integrand(tc):
        def f(k):
            # f(k) + f(-k); at t = 0 this is the positive scattering-state
            # density sum_a |<d1|phi_ka>|^2 / pi on the band
            lam = np.exp(1j * k)
            frac = (w_big[None, :] / (lam[:, None] - lams[None, :])).sum(axis=1)
            density = (-2.0 * b * g * g / np.pi) * np.sin(k) * frac.imag
            phase = np.outer(np.cos(k), 2.0 * b * tc)
            return density[:, None] * (np.cos(phase) + 1j * np.sin(phase))

        return f

    extra = [abs(float(np.angle(st.lam))) for st in s.states
             if st.state_class in (StateClass.RESONANT, StateClass.ANTI_RESONANT)]
    # a real root puts a peak of width |ln|lam|| at k = 0 (lam > 0) or pi,
    # an edge of every panel set.  On the full circle the odd part of the
    # integrand showed it to the error estimate; the fold cancels that part,
    # so the panels are graded towards the peak by factors of 4 from its width
    peaks = [(0.0 if st.lam.real > 0 else np.pi, abs(np.log(abs(st.lam))))
             for st in s.states
             if st.state_class in (StateClass.BOUND, StateClass.ANTI_BOUND)]
    circle = np.empty(len(times), dtype=complex)
    for idx in _octave_groups(np.maximum(1.0, 2.0 * b * times / 8.0)):
        tg = times[idx]
        spacing = np.pi / max(8.0, 2.0 * b * tg.max())
        graded = [abs(end - width * 4.0 ** np.arange(
                      max(0.0, np.ceil(np.log2(spacing / width) / 2.0))))
                  for end, width in peaks]
        pts = np.union1d(_panel_edges(np.array([0.0, np.pi]), spacing),
                         np.concatenate([extra, *graded]))
        circle[idx] = _grid_quad(integrand, pts, tg, tol, "direct contour")
    total = (bound_sum + circle)[inverse]
    total = np.where(grid < 0, np.conj(total), total)
    return complex(total[0]) if scalar else total


def isolated_residue_amplitude(spectrum, t):
    """The bare resonant-pole projection <d1|phi_R> e^{-i E_R t} <phi~_R|d1>.

    This is the hand-isolated irreversible component; it grows without bound
    for t < 0, which is what the full component decomposition avoids.
    ``t`` is a time or a 1-d grid.
    """
    times, scalar = _time_grid(t)
    res = spectrum.resonant()
    out = res.dyad_phi * np.exp(-1j * res.energy * times)
    return complex(out[0]) if scalar else out


def ratio_r(spectrum, t, tol=DEFAULT_TOLERANCES):
    """r(t) = |chi_R(t)/chi_R(-t)|^2, the symmetry-breaking measure.

    ``t`` is a time or a 1-d grid; a grid is evaluated in one engine call.
    """
    grid, scalar = _time_grid(t)
    resonant = Spectrum((spectrum.resonant(),), spectrum.params, spectrum.flags)
    row = amplitude_grid(resonant, np.concatenate((grid, -grid)), tol=tol)[0]
    num, den = row[:len(grid)], row[len(grid):]
    r = np.abs(num) ** 2 / np.abs(den) ** 2
    return float(r[0]) if scalar else r


def zeno_time(spectrum):
    """Symmetry-breaking time t0 and the Zeno scale tZ = 1/|Re E_R|.

    t0 solves the vanishing of the short-time resonant probability; the
    closed form is nearly real when |Im E_R| << |Re E_R|, and the report
    carries the leftover imaginary fraction instead of hiding it.
    """
    res = spectrum.resonant()
    e_r, lam_r = res.energy, res.lam
    if abs(e_r.imag) >= abs(e_r.real):
        warnings.warn("|Im E_R| >= |Re E_R|: t0 formula outside its regime",
                      AssumptionViolated)
    t0_complex = -(2.0 * np.log(lam_r) - 1j * np.pi) / (-1j * e_r)
    t0 = abs(t0_complex.real)
    imag_fraction = abs(t0_complex.imag) / max(abs(t0_complex.real), 1e-300)
    tz = 1.0 / abs(e_r.real)
    return ZenoReport(float(t0), float(tz), float(imag_fraction))


def short_time_resonant_prob(spectrum, t):
    """P_R(t) in the small-|t| approximation J1(2bt) ~ bt; ``t`` is a time
    or a 1-d grid.

    P_R = |psi (e^{-iE_R t}(1 + c) - c)|^2 with c = b lam_R/E_R tends to
    |psi c|^2 as t -> +inf; for t < 0 it grows as e^{2|Im E_R||t|} and
    overflows to inf once that passes the float range.
    """
    times, scalar = _time_grid(t)
    res = spectrum.resonant()
    b = spectrum.params.b
    e_r, lam_r = res.energy, res.lam
    psi_prod = res.weight_w / lam_r
    c = b * lam_r / e_r
    with np.errstate(over="ignore", invalid="ignore"):
        prob = np.abs(psi_prod
                      * (np.exp(-1j * e_r * times) * (1.0 + c) - c)) ** 2
    return float(prob[0]) if scalar else prob


def longtime_asymptotic(spectrum, t, sign=+1):
    """Closed-form resonant amplitude in the power-law regime, A_R(+t) or
    A_R(-t) for t > 0; |value|^2 decays as t^-3 with band-edge oscillations.
    """
    if t <= 0:
        raise DomainError("t must be positive; choose the side with `sign`")
    res = spectrum.resonant()
    b = spectrum.params.b
    if b * t <= 50:
        warnings.warn("asymptotic form used below b*t = 50", ValidityWarning)
    e_r = res.energy
    pref = 1j * res.weight_w / (2.0 * np.sqrt(np.pi)) * (b * t) ** -1.5
    phase_p = np.exp(2j * b * t)
    phase_m = np.exp(-2j * b * t)
    if sign > 0:
        return pref * (b * np.exp(-1j * np.pi / 4) / (2 * b + e_r) * phase_p
                       + b * np.exp(1j * np.pi / 4) / (2 * b - e_r) * phase_m)
    return -pref * (b * np.exp(-1j * np.pi / 4) / (2 * b - e_r) * phase_p
                    + b * np.exp(1j * np.pi / 4) / (2 * b + e_r) * phase_m)


def longtime_ratio(spectrum, t):
    """Closed-form r(t) in the power-law regime (squared modulus ratio)."""
    return float(abs(longtime_asymptotic(spectrum, t, +1)) ** 2
                 / abs(longtime_asymptotic(spectrum, t, -1)) ** 2)


def _quartic_discriminant(c0, c1, c2, c3, c4):
    a, b, c, d, e = c4, c3, c2, c1, c0
    return (256 * a**3 * e**3 - 192 * a**2 * b * d * e**2
            - 128 * a**2 * c**2 * e**2 + 144 * a**2 * c * d**2 * e
            - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
            - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e
            + 18 * a * b * c * d**3 + 16 * a * c**4 * e
            - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
            + 18 * b**3 * c * d * e - 4 * b**3 * d**3
            - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2)


def ep_discriminant(params):
    """Discriminant of the quartic; changes sign at the exceptional point."""
    return _quartic_discriminant(*p4_coefficients(params))


def ep_locate(params, eps1_lo, eps1_hi, tol=1e-9):
    """Bisect eps1 to the exceptional point where the discriminant vanishes."""
    if not eps1_lo < eps1_hi:
        raise DomainError("bracket must satisfy eps1_lo < eps1_hi")

    def disc(e1):
        p = TDotParams(params.b, e1, params.eps2, params.g, params.t2l, params.t2r)
        return ep_discriminant(p)

    d_lo, d_hi = disc(eps1_lo), disc(eps1_hi)
    if d_lo == 0.0:
        return float(eps1_lo)
    if d_hi == 0.0:
        return float(eps1_hi)
    if np.sign(d_lo) == np.sign(d_hi):
        raise NoSignChange(
            f"discriminant sign is the same at both ends of [{eps1_lo}, {eps1_hi}]")
    lo, hi = float(eps1_lo), float(eps1_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        d_mid = disc(mid)
        if d_mid == 0.0:
            return mid
        if np.sign(d_mid) == np.sign(d_lo):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
