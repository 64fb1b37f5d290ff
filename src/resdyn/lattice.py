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

import cmath
import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolated,
    DegenerateLeadCoupling,
    DomainError,
    NearDegenerateSpectrum,
    NoResonance,
    NoSignChange,
    ToleranceNotMet,
    Unclassifiable,
    Underflow,
    ValidityWarning,
)
from .kernel import (
    accept_roots,
    batch_roots,
    bessel_j1,  # noqa: F401  (bench/spans.py traces the kernel here)
    piecewise_quad,  # noqa: F401  (likewise)
    poly_roots,  # noqa: F401  (likewise)
    upper_gamma_mhalf,  # noqa: F401  (likewise)
)


@dataclass(frozen=True)
class Tolerances:
    """Tolerances of the two independent totals: the direct contour
    (``survival_direct``) stops once two successive trapezoid sums of a
    time agree within abs_tol + rel_tol |A(t)|, and the Friedrichs cut
    quadrature once its GK15 error estimate is below
    max(abs_tol, rel_tol |value|).  The component series needs none."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise DomainError("tolerances must be positive and finite")


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
        if not all(map(math.isfinite, vals)):
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
        if not math.isfinite(self.theta):
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
    """Ascending coefficients of P4(lambda) = lambda^2 f(lambda) / b^2.

    A coefficient that leaves the float range is inf or nan; all five are
    nan when b^2, t2L^2 or t2R^2 overflows or b^2 underflows to 0.
    """
    b, e1, e2, g = params.b, params.eps1, params.eps2, params.g
    try:
        t = params.lead_coupling
        c4 = b * (b - t)
        c3 = b * e2 + e1 * (b - t)
        c2 = b * b + e1 * e2 + b * (b - t) - g * g
        c1 = b * (e1 + e2)
        c0 = b * b
        return [c / b ** 2 for c in (c0, c1, c2, c3, c4)]
    except ArithmeticError:  # a square overflowed, or b^2 underflowed to 0
        return [math.nan] * 5


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
    """The discrete spectrum of one parameter set (``discrete_spectra``)."""
    return discrete_spectra([params])[0]


def discrete_spectra(params_seq):
    """Roots of the quartic plus residue weights, classified, for each
    parameter set in turn; one ``Spectrum`` per set.

    The roots are companion-matrix eigenvalues with a Newton polish, each
    an exact root of the quartic with coefficients perturbed by at most
    1e-10 relative (``kernel.roots.BACKWARD_TOL``), also next to T = b,
    where one root grows without bound as the leading coefficient vanishes.
    The sets whose polynomials share a degree share one stacked solve;
    the checks, warnings and errors then follow set by set, so the first
    set that fails raises after the sets before it have warned.
    Weights follow from residues of the resolvent matrix elements:
    W_n = 1/(h(lam_n) f'(lam_n)), w_n = b g^2 W_n / lam_n, and the d1-d2
    channel q_n = -g b/(lam_n f'(lam_n)).  At a root h(lam_n) = E_n - eps1
    and its partner E_n - eps2 + lam_n T multiply to g^2; where h is the
    smaller it is O(g^2) and is taken as g^2 over the partner, so the
    weights keep their digits at weak coupling.  Since f = b^2 P/lam^2 with
    P = c_lead prod_m (lam - lam_m), f'(lam_n) = b^2 c_lead prod_{m != n}
    (lam_n - lam_m) / lam_n^2: the root differences keep their digits up to
    the exceptional point, where f' from the coefficients cancels.  A real
    root's weights are exactly real.  Near-degenerate root pairs and the
    degeneracy T = b are flagged, not fatal; there every leading coefficient
    at or below 1e-12 of the largest is dropped, each with the root that
    grows without bound as it vanishes.  With no coefficient left but c0
    (next to b = g = T, eps1 = eps2 = 0) no state remains, and NoResonance
    is raised.  g = 0 raises DomainError, as does a set whose quartic
    coefficients leave the float range (b = 1e200, say), naming them.
    """
    params_seq = list(params_seq)
    polys = [p4_coefficients(p) for p in params_seq]
    # a set whose coefficients left the float range joins no solve, and
    # ``_spectrum`` rejects it
    finite = [i for i, c in enumerate(polys) if all(map(math.isfinite, c))]
    for i in finite:
        coeffs = polys[i]
        scale = max(abs(c) for c in coeffs)
        while abs(coeffs[-1]) <= 1e-12 * scale:  # c0 = 1 ends the loop
            coeffs.pop()
    solved = {}
    for length in {len(polys[i]) for i in finite} - {1}:
        rows = [i for i in finite if len(polys[i]) == length]
        solved.update(zip(rows, zip(*batch_roots([polys[i] for i in rows]))))
    return [_spectrum(params, coeffs, solved.get(i))
            for i, (params, coeffs) in enumerate(zip(params_seq, polys))]


def _spectrum(params, coeffs, row):
    """One set's Spectrum from its coefficients and batch_roots row."""
    if params.g == 0:
        raise DomainError("g = 0 decouples d1; residue weights are undefined")
    bad = [f"c{i}" for i, c in enumerate(coeffs) if not math.isfinite(c)]
    if bad:
        raise DomainError("quartic coefficients leave the float range: "
                          + ", ".join(bad))
    flags = []
    if len(coeffs) == 1:
        # the dropped roots would carry all of sum_n w_n/lam_n = 1
        raise NoResonance("the quartic is constant to 1e-12 (d1, d2 and the "
                          "leads form a uniform chain): no discrete state")
    if len(coeffs) < 5:
        degree = len(coeffs) - 1
        flags.append("degenerate-lead-coupling")
        warnings.warn(f"lead coupling lowers the quartic to degree {degree}; "
                      f"{degree} states", DegenerateLeadCoupling)
    roots = accept_roots(*row)

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
        fp = b * b * c_lead * math.prod(
            [lam - other for m, other in enumerate(roots) if m != n]) / lam ** 2
        if lam.imag == 0:
            fp = fp.real
        # the smaller of the two factors of g^2 loses its digits to the
        # subtraction
        h = energy - params.eps1
        partner = energy - params.eps2 + lam * params.lead_coupling
        if abs(h) < abs(partner):
            h = g * g / partner
        w_big = 1.0 / (h * fp)
        w = b * g * g * w_big / lam
        dyad = (1.0 / lam - lam) * w
        q = -g * b / (lam * fp)
        states.append(DiscreteState(lam, energy, classify(lam, energy), w, dyad, q))
    states.sort(key=lambda s: (_CLASS_ORDER[s.state_class], s.energy.real, s.energy.imag))
    return Spectrum(tuple(states), params, tuple(dict.fromkeys(flags)))


# ---------------------------------------------------------------------------
# Time grids, blocks and quadrature failures shared with the Friedrichs model

# integrand values (complex) per first pass of one vector-valued quadrature
_BLOCK = 1 << 18


def _time_grid(t):
    """(grid, scalar): a time or a finite 1-d grid of times as a float array."""
    t = np.asarray(t, dtype=float)
    grid = t.reshape(-1)
    if t.ndim > 1 or not np.all(np.isfinite(grid)):
        raise DomainError("t must be a finite time or a finite 1-d grid")
    return grid, t.ndim == 0


def _failure_message(what, times, tol, why):
    """The message of a quadrature failure of the series ``what``: its span
    of times, the tolerance and why it failed."""
    return (f"{what} over t in [{times.min():g}, {times.max():g}] (abs_tol "
            f"{tol.abs_tol:g}, rel_tol {tol.rel_tol:g}): {why}")


# ---------------------------------------------------------------------------
# The component amplitudes as Neumann series of J_k(2bt)

# below this x the two-term power series of J_k(x) is exact to rounding
_SMALL_X = 1e-5
# entries of the widest Bessel table built at once (16 MB)
_TABLE_BLOCK = 1 << 21


def _series_order(x):
    """K(x) = ceil(x + 12 x^{1/3} + 40): so far past the transition region
    k ~ x + x^{1/3} that J_K(x) is below about 3e-18 of the largest J_k."""
    return np.ceil(x + 12.0 * np.cbrt(x) + 40.0).astype(int)


def _table_groups(x):
    """Consecutive slices of an ascending x, each as wide as keeps its
    Bessel table within _TABLE_BLOCK entries (one column at least)."""
    rows = _series_order(x) + 2
    lo = 0
    while lo < len(x):
        sizes = rows[lo:] * np.arange(1, len(x) - lo + 1)
        hi = lo + max(1, int(np.searchsorted(sizes, _TABLE_BLOCK, "right")))
        yield slice(lo, hi)
        lo = hi


def _bessel_table(x):
    """J_k(x) for k = 0..K(x[-1]) on an ascending array x >= 0, shape
    (K + 1, len(x)); column j is zero above K(x[j]).

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} (DLMF
    3.6(vi)) runs down every column at once.  Above its own start K(x_j)
    a column's factor 2k/x is 0, which keeps its values in {-1, 0, 1}, so
    the recurrence arrives at K(x_j) with a (+-1, 0) pair and starts there;
    the rows above are zeroed afterwards.  Each column is then scaled by
    J_0 + 2 sum_k J_2k = 1 (DLMF 10.12.4).  Started where J_K is that small,
    the values grow by at most about 1e267 on the way down (at x = 1e-5),
    so nothing overflows and no rescaling is needed.  Below x = 1e-5
    (t = 0 included) two terms of the power series (DLMF 10.2.2) give
    J_0..J_3 to rounding, and J_4 < 3e-23.
    """
    start = _series_order(x)
    order = int(_series_order(x.max(initial=0.0)))
    table = np.zeros((order + 2, len(x)))
    small = int(np.searchsorted(x, _SMALL_X))
    half = 0.5 * x[:small]
    for k in range(4):
        table[k, :small] = (half ** k / math.factorial(k)
                            * (1.0 - half * half / (k + 1)))
    if small < len(x):
        rows = table[:, small:]
        ks = np.arange(order + 2)[:, None]
        dead = ks > start[small:]
        factor = ks * (2.0 / x[small:])
        np.copyto(factor, 0.0, where=dead)
        rows[-2] = 1.0
        # one view per row, made once: the loop does no indexing of its own
        cur, fac = list(rows), list(factor)
        for k in range(order, 0, -1):
            np.multiply(fac[k], cur[k], out=cur[k - 1])
            np.subtract(cur[k - 1], cur[k + 1], out=cur[k - 1])
        np.copyto(rows, 0.0, where=dead)
        rows /= rows[0] + 2.0 * rows[2::2].sum(axis=0)
    return table[:-1]


def amplitude_grid(spectrum, times, weights=None):
    """<d1|chi_n(t)> for every state n and grid time t, shape (n_states, n_times).

    ``weights`` replaces the residue weights w_n (theta superpositions pass
    ``theta_weights``).  A state's amplitude is its weight times the unit
    component u = e^{-iEt}/lam - i F_E(t), the solution of
    u' = -iEu - iJ1(2bt)/t with u(0) = 1/lam.  With x = 2bt,
    J1(x)/t = b(J_0 + J_2) and 2J_k' = J_{k-1} - J_{k+1} (DLMF 10.6.1), it
    is a Neumann series in i^k J_k(x) whose coefficients are fixed by lam.
    With mu = 1/lam for |lam| >= 1, mu = lam for |lam| < 1 and s = 1/mu - mu,

        u = [|lam| < 1] s e^{-iEt} + mu J_0 + i mu^2 J_1
            - s sum_{k >= 2} (i mu)^k J_k(x);

    the pole term follows from the generating function of J_k (DLMF
    10.12.1), and it keeps every coefficient at or below |s mu^2| <= 2 in
    modulus.  The series is entire in t and holds at t < 0 for every class:
    the resonant state's decaying tail and the anti-resonant state (the
    conjugate of its partner at -t) are the same series.  It needs no
    quadrature, tolerance or tail.  One table of J_k(2b|t|) over the
    distinct |t| (``_bessel_table``) serves every state, truncated per
    time at K(x) (``_series_order``), past which the terms are below
    1e-17; since J_k(-x) = (-1)^k J_k(x), its even and odd rows give u at
    +|t| and -|t|.  A grid whose table would pass _TABLE_BLOCK entries is
    split into groups of consecutive |t| that each stay within it.  On
    fig8b's parameters the resonant unit amplitude is within 2e-12 relative
    of a 30-digit mpmath sum of the series at |t| = 50 and 100.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise DomainError("times must be a finite 1-d grid")
    states = spectrum.states
    weights = np.array([s.weight_w for s in states] if weights is None
                       else weights, dtype=complex)
    if weights.shape != (len(states),):
        raise DomainError("need one weight per state")
    mags, inverse = np.unique(np.abs(times), return_inverse=True)
    x = 2.0 * spectrum.params.b * mags

    lam = np.array([st.lam for st in states], dtype=complex)
    inside = np.abs(lam) < 1.0
    mu = np.where(inside, lam, 1.0 / lam)
    s = 1.0 / mu - mu
    order = _series_order(x.max(initial=0.0))
    coeffs = -s[:, None] * (1j * mu[:, None]) ** np.arange(order + 1)
    coeffs[:, 0] = mu
    coeffs[:, 1] = 1j * mu * mu
    # real contractions: rows are the real, then the imaginary parts
    parts = np.concatenate((coeffs.real, coeffs.imag))
    even = np.empty((len(parts), len(x)))
    odd = np.empty((len(parts), len(x)))
    for cols in _table_groups(x):
        table = _bessel_table(x[cols])
        used = parts[:, :len(table)]
        even[:, cols] = np.einsum("sk,kn->sn", used[:, 0::2], table[0::2])
        odd[:, cols] = np.einsum("sk,kn->sn", used[:, 1::2], table[1::2])
    n = len(states)
    sign = np.where(times < 0, -1.0, 1.0)
    unit = ((even[:n] + 1j * even[n:])[:, inverse]
            + sign * (odd[:n] + 1j * odd[n:])[:, inverse])
    for i in np.flatnonzero(inside):
        unit[i] += s[i] * np.exp(-1j * states[i].energy * times)
    out = weights[:, None] * unit
    if not np.all(np.isfinite(out)):
        raise Underflow("amplitudes exceed the representable dynamic range")
    return out


def component_chi(spectrum, n, t):
    """<d1|chi_n(t)>, the n-th eigenstate's share of the survival amplitude."""
    return amplitude_grid(spectrum, [t])[n, 0]


def theta_weights(spectrum, theta_state):
    """(w_n + e^{i theta} q_n)/sqrt(2): the residue weights of the
    (|d1> + e^{i theta}|d2>)/sqrt(2) initial state."""
    phase = np.exp(1j * theta_state.theta)
    return np.array([(s.weight_w + phase * s.weight_q) / np.sqrt(2.0)
                     for s in spectrum.states])


def theta_amplitude(spectrum, theta_state, n, t):
    """<d1|chi_n(t)> for the (|d1> + e^{i theta}|d2>)/sqrt(2) initial state.

    ``n`` is a state index or "total" for the sum over all states.
    """
    rows = amplitude_grid(spectrum, [t], theta_weights(spectrum, theta_state))[:, 0]
    return sum(rows) if n == "total" else rows[n]


# a pole d from the real k axis costs the trapezoid rule on N nodes of the
# circle a miss of about e^{-N d}; below this N d it is added back exactly
_RESOLVED = 40.0
# the most nodes of [0, pi] the direct contour takes before it gives up
_MAX_NODES = 1 << 20
_EPS = np.finfo(float).eps
# pi in three parts (Cody and Waite), the first two of 32 bits, so that
# j pi_1/m and j pi_2/m are exact for every node j <= _MAX_NODES
_PI_PARTS = (3.1415926534682512, 1.2154201012607932e-10, 4.044532497591901e-21)


def _expm1(z):
    """e^z - 1 for complex z, to the rounding of z."""
    half = 0.5 * np.imag(z)
    return (np.expm1(np.real(z)) * np.exp(2j * half)
            + 2j * np.sin(half) * np.exp(1j * half))


def _node_offset(lam, m):
    """(j0, delta) for each pole lam: the node j0 pi/m nearest arg lam and
    arg lam - j0 pi/m, exact to its own rounding however close the node.
    A real root sits at k = 0 or pi itself (not at float pi): delta = 0."""
    arg = np.angle(lam)
    j0 = np.rint(arg * (m / np.pi))
    pi_1, pi_2, pi_3 = _PI_PARTS
    delta = arg - j0 * pi_1 / m - j0 * pi_2 / m - j0 * pi_3 / m
    return j0, np.where(np.imag(lam) == 0.0, 0.0, delta)


def _pole_terms(lams, weights, m, x):
    """sum_n G_n(x) over the poles ``lams``; one above the real axis stands
    for its conjugate pair too, as G_n(x) - conj G_n(-x).

    G_n is what the trapezoid rule on the N = 2m nodes j pi/m misses of
    the circle integral of sin k W_n e^{ix cos k}/(e^{ik} - lam_n), plus
    the rule's term at the node k_0 = j0 pi/m nearest the pole: with
    B(k) = sin k e^{-ik} e^{ix cos k}, k_n = arg lam - i ln|lam| and
    eps = k_n - k_0, 2 pi W [(B(k_n) - B(k_0))/(e^{iN eps} - 1) + B(k_0) K],
    K = 1/(e^{iN eps} - 1) - 1/(N (e^{i eps} - 1)), whose singular parts
    cancel in a series for |N eps| < 1/2.  Inside the circle lie only real
    roots, at k_0 = 0 or pi, where B(k_0) = 0; their miss is
    -2 pi W B(k_n)/(e^{-iN eps} - 1).  B(k_n) - B(k_0) comes from e^z - 1
    of the differences, and sin k_0 and cos k_0 from the node's distance to
    0 or pi and to pi/2, so a real root's G_n is exactly imaginary at x = 0.
    """
    if not len(lams):
        return 0.0
    coeffs = []
    big = 2 * m
    # np.abs, as the node sums take |lam|: abs() can differ by an ulp, and
    # the rule's sums next to a narrow pole move by N eps |W| with it
    rows = zip(lams.tolist(), weights.tolist(), np.log(np.abs(lams)).tolist(),
               *(part.tolist() for part in _node_offset(lams, m)))
    for lam, weight, ell, j0, delta in rows:
        sign = 1.0 if ell > 0.0 else -1.0
        # e^z - 1 at z = -2i eps, i sign N eps, iN eps and i eps
        twice, wrap, big_turn, turn = _expm1(np.array([
            complex(-2.0 * ell, -2.0 * delta),
            complex(sign * big * ell, sign * big * delta),
            complex(big * ell, big * delta), complex(ell, delta)])).tolist()
        sin_0 = math.sin(min(j0, m - j0) * (math.pi / m))
        cos_0 = math.sin((m // 2 - j0) * (math.pi / m))
        back = complex(cos_0, -sin_0)  # e^{-ik_0}
        half = complex(0.5 * delta, -0.5 * ell)  # eps/2
        sin_half = cmath.sin(half)
        sin_mid = sin_0 * cmath.cos(half) + cos_0 * sin_half  # sin((k_n + k_0)/2)
        # B(k_n) - B(k_0) = dp e^{ix cos k_n} + p0 e^{ix cos k_0} (e^{x shift} - 1)
        dp = 0.5j * back * back * twice
        p0 = sin_0 * back
        shift = -2j * sin_mid * sin_half
        k = 0.0
        if p0:
            z = complex(big * ell, big * delta)  # iN eps
            if abs(z) < 0.5:
                # N(e^{i eps} - 1) - (e^{iN eps} - 1), term by term
                series, power, fact = 0.0, z, 1.0
                for order in range(2, 21):
                    power *= z
                    fact *= order
                    series -= power / fact * (1.0 - big ** (1 - order))
                k = series / (big * turn * big_turn)
            else:
                k = 1.0 / big_turn - 1.0 / (big * turn)
        scale = 2.0 * math.pi * weight
        coeffs.append((cos_0, shift, scale * sign * dp / wrap, scale * p0 / wrap,
                       scale * p0 * k))
    cos_0, shift, a_n, a_shift, a_0 = (np.array(c)[:, None] for c in zip(*coeffs))
    xs = np.concatenate((x, -x))
    e_0 = np.exp(1j * xs * cos_0)
    e_shift = _expm1(xs * shift)
    g = a_n * (e_0 + e_0 * e_shift) + (a_shift * e_shift + a_0) * e_0
    pair = lams.imag > 0.0
    return g[:, :len(x)].sum(axis=0) - np.conj(g[pair, len(x):]).sum(axis=0)


def _phase_sums(k, weights, x):
    """sum_j weights_j e^{i x cos k_j} for every x, in blocks of at most
    _BLOCK nodes x times."""
    out = np.zeros(len(x), dtype=complex)
    rows = max(1, _BLOCK // len(x))
    for start in range(0, len(k), rows):
        phase = np.outer(x, np.cos(k[start:start + rows]))
        w = weights[start:start + rows]
        out += np.cos(phase) @ w + 1j * (np.sin(phase) @ w)
    return out


def survival_direct(params, t, tol=DEFAULT_TOLERANCES, spectrum=None):
    """A(t) = <d1|e^{-iHt}|d1> from bound-pole residues plus the unit-circle
    integral of the partial-fraction contour integrand.

    ``t`` is a time or a 1-d grid (a grid gives an array); a ``spectrum``
    solved for other parameters raises DomainError.  H and |d1> are real,
    so A(-t) = conj A(t), and only the distinct |t| are integrated; the
    states and weights come in conjugate pairs, so the circle folds onto
    [0, pi]: f(k) + f(-k) = -(2bg^2/pi) sin k Im sum_n W_n/(e^{ik} - lam_n)
    e^{2ibt cos k}, a real t-independent density times a phase.

    Before the fold the integrand is smooth and 2 pi-periodic, with poles
    at k = arg lam_n +- i d_n, d_n = |ln|lam_n||, so the trapezoid rule on
    N nodes converges like e^{-N d} once N passes 2b|t| (Trefethen &
    Weideman, SIAM Rev. 56, 385 (2014)): on [0, pi] the nodes j pi/m, with
    no endpoint terms.  m starts at the power of two >= (x + 12 x^{1/3} +
    40)/2, x = 2b max|t|, where the aliased J_2m(x) are below 1e-17, and
    doubles, reusing every node, until two successive sums of a time agree
    within abs_tol + rel_tol |A(t)|; converged times drop out.  Sums that
    agree to their rounding (8 eps sum_j |terms|) with the tolerance below
    it, or a rule past _MAX_NODES nodes, raise ToleranceNotMet.

    A pole that a level leaves unresolved (2m d_n < _RESOLVED: a real root
    near the band edge, a narrow resonance at weak coupling) has the rule's
    miss added back in closed form (``_pole_terms``; as 2m >= x, the
    e^{-iE_n t} that grows toward t < 0 arrives damped), together with its
    term at its nearest node, which the node sums leave out until a
    doubling brings a nearer node or resolves the pole.  The density is
    summed relative to each pole (``_node_offset``), so it keeps its digits
    next to a pole within 1e-9 of the circle.  Nodes, weights and phases
    go in blocks of at most _BLOCK values.
    """
    grid, scalar = _time_grid(t)
    times, inverse = np.unique(np.abs(grid), return_inverse=True)
    s = spectrum if spectrum is not None else discrete_spectrum(params)
    if s.params != params:
        raise DomainError("the spectrum was solved for other parameters")
    b, g = params.b, params.g
    bound_sum = np.zeros(len(times), dtype=complex)
    for st in s.by_class(StateClass.BOUND):
        bound_sum += st.dyad_phi * np.exp(-1j * st.energy * times)
    lams = np.array([st.lam for st in s.states])
    radius = np.abs(lams)
    big_w = np.array([st.weight_w * st.lam / (b * g * g) for st in s.states])
    w_turned = big_w * np.exp(-1j * np.angle(lams))
    x = 2.0 * b * times
    x_max = x.max(initial=0.0)
    m = 1 << int(np.ceil(np.log2((x_max + 12.0 * np.cbrt(x_max) + 40.0) / 2.0)))
    block = _BLOCK // (len(lams) + 1)
    scale = 1j * b * g * g / np.pi

    def narrow(m):
        # the poles the rule on 2m nodes leaves unresolved (a conjugate
        # pair by its member above the axis), and {n: j0} for the complex
        # ones: the node j0 pi/m nearest each, whose term the sums leave out
        poles = np.flatnonzero((2 * m * np.abs(np.log(radius)) < _RESOLVED)
                               & (lams.imag >= 0.0))
        j0, _ = _node_offset(lams, m)
        return poles, {n: j0[n] for n in poles if lams[n].imag > 0.0 and 0 < j0[n] < m}

    def density(js, m):
        # each pole's share of f(k) + f(-k) at t = 0 on the nodes j pi/m,
        # with e^{iv} - |lam| = i sin v - (2 sin^2(v/2) + |lam| - 1)
        j0, delta = _node_offset(lams, m)
        half = 0.5 * ((js[:, None] - j0) * (np.pi / m) - delta)
        half_sin, half_cos = np.sin(half), np.cos(half)
        share = w_turned / (2j * half_sin * half_cos
                            - (2.0 * half_sin * half_sin + (radius - 1.0)))
        sin_k = np.sin(np.minimum(js, m - js) * (np.pi / m))
        return (-2.0 * b * g * g / np.pi) * sin_k[:, None] * share.imag

    def level(js, m, active, held):
        # the phase sums of the nodes j pi/m for the active times, without
        # the held terms, and the sum of their |density|
        sums, mass = np.zeros(len(active), dtype=complex), 0.0
        for start in range(0, len(js), block):
            j = js[start:start + block]
            shares = density(j, m)
            for n, j0 in held.items():
                shares[j == j0, n] = 0.0
            weight = shares.sum(axis=1)
            sums += _phase_sums(j * (np.pi / m), weight, x[active])
            mass += np.abs(weight).sum()
        return sums, mass

    def fail(which, why):
        raise ToleranceNotMet(
            _failure_message("direct contour", times[which], tol, why),
            result=(bound_sum + value)[which])

    value = np.zeros(len(times), dtype=complex)
    active = np.arange(len(times))
    if 2 * m > _MAX_NODES:
        fail(active, f"the rule would start on {m - 1} nodes")
    poles, held = narrow(m)
    raw, mass = level(np.arange(1, m), m, active, held)
    value = raw * (np.pi / m) + scale * _pole_terms(
        lams[poles], big_w[poles], m, x[active])
    while True:
        poles, now = narrow(2 * m)
        sums, more = level(np.arange(1, 2 * m, 2), 2 * m, active, now)
        for n, j in held.items():
            if now.get(n) != 2 * j:
                # resolved, or nearer a new node: the term joins the sums
                weight = density(np.array([2 * j]), 2 * m)[0, n]
                sums += weight * np.exp(1j * x[active] * np.cos(j * (np.pi / m)))
                more += abs(weight)
        held = now
        raw[active] += sums
        mass += more
        m *= 2
        estimate = raw[active] * (np.pi / m) + scale * _pole_terms(
            lams[poles], big_w[poles], m, x[active])
        # no tolerance below the rounding of the sums can be certified
        floor = 8.0 * _EPS * mass * (np.pi / m)
        miss = np.maximum(np.abs(estimate - value[active]), floor)
        allowed = tol.abs_tol + tol.rel_tol * np.abs(bound_sum[active] + estimate)
        value[active] = estimate
        stuck = (miss == floor) & (floor > allowed)
        if np.any(stuck):
            fail(active[stuck], f"successive sums agree to their rounding, "
                                f"{floor:.2g}, on {m - 1} nodes")
        active = active[miss > allowed]
        if not len(active):
            break
        if 2 * m > _MAX_NODES:
            fail(active, f"successive sums still differ on {m - 1} nodes")
    total = (bound_sum + value)[inverse]
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


def ratio_r(spectrum, t):
    """r(t) = |chi_R(t)/chi_R(-t)|^2, the symmetry-breaking measure.

    ``t`` is a time or a 1-d grid; a grid is evaluated in one
    ``amplitude_grid`` call.
    """
    grid, scalar = _time_grid(t)
    resonant = Spectrum((spectrum.resonant(),), spectrum.params, spectrum.flags)
    row = amplitude_grid(resonant, np.concatenate((grid, -grid)))[0]
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
    """Discriminant of the quartic; changes sign at the exceptional point.

    Raises DomainError when it leaves the float range, as a bisection on
    inf or nan would return an arbitrary point.
    """
    try:
        disc = _quartic_discriminant(*p4_coefficients(params))
    except OverflowError:  # a float power overflowed
        disc = math.inf
    if not math.isfinite(disc):
        raise DomainError("the quartic's discriminant leaves the float range")
    return disc


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
