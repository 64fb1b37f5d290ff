"""The direct contour (``survival_direct``) against the Chebyshev oracle.

The oracle (``resdyn.oracle.propagate``) shares no code with the contour:
on 60 sites per lead and 41 times to |t| = 20 it is exact up to its own
rounding, about 2e-14 here, and takes under a millisecond.  The strategies
cover the band edge (a real root within 1e-7 to 1e-3 of the unit circle),
weak coupling (g from 1e-5 to 1e-1) and a general box of the domain.
"""

import dataclasses
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from resdyn.cli import main
from resdyn.errors import (
    DomainError,
    NoResonance,
    ToleranceNotMet,
    Unclassifiable,
)
from resdyn.lattice import (
    DEFAULT_TOLERANCES,
    StateClass,
    TDotParams,
    Tolerances,
    _pole_terms,
    amplitude_grid,
    discrete_spectrum,
    survival_direct,
)
from resdyn.oracle import build_hamiltonian, propagate

from conftest import FIG9_PARAMS

TIMES = np.linspace(-20.0, 20.0, 41)


def _oracle(params, row="d1", times=TIMES, sites=60):
    return propagate(build_hamiltonian(params, sites), times).amplitudes[row]


def _band_edge(b, eps2, g, t2l, t2r, sign, side, log_d):
    """Parameters with a real root lam = sign e^{side d}: eps1 solves
    (E - eps1)(E - eps2 + lam T) = g^2 at E = -b(lam + 1/lam)."""
    lam = sign * math.exp(side * 10.0 ** log_d)
    energy = -b * (lam + 1.0 / lam)
    partner = energy - eps2 + lam * (t2l ** 2 + t2r ** 2) / b
    return TDotParams(b, energy - g * g / partner, eps2, g, t2l, t2r)


_BAND_EDGE = st.builds(
    _band_edge, st.just(1.0), st.floats(-2.5, 2.5), st.floats(0.05, 1.5),
    st.floats(-1.6, 1.6), st.floats(-1.6, 1.6), st.sampled_from((-1.0, 1.0)),
    st.sampled_from((-1.0, 1.0)), st.floats(-7.0, -3.0))
_WEAK = st.builds(
    TDotParams, st.just(1.0), st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
    st.floats(-5.0, -1.0).map(lambda x: 10.0 ** x), st.floats(-1.6, 1.6),
    st.floats(-1.6, 1.6))
_BOX = st.builds(
    TDotParams, st.just(1.0), st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
    st.floats(0.05, 1.5), st.floats(-1.6, 1.6), st.floats(-1.6, 1.6))


def _spectrum_or_reject(params):
    """The spectrum, or a rejected draw where a typed regime error says
    there is none (a root on the circle, no resonance); any other error
    fails the draw.  Pairs of roots closer than 1e-3 are rejected too:
    their weights grow as one over the separation and lose digits
    (``test_near_degenerate_anti_bound_pair``)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spectrum = discrete_spectrum(params)
    except (Unclassifiable, NoResonance):
        assume(False)
    lams = [s.lam for s in spectrum.states]
    assume(all(abs(a - b) > 1e-3 for i, a in enumerate(lams) for b in lams[i + 1:]))
    return spectrum


# completeness defects of 200 uniform draws per strategy: at most 3e-12 at
# the band edge (root pairs 1e-3 apart, whose weights cancel), 5e-14 at
# weak coupling and 3e-15 in the box
@pytest.mark.parametrize("strategy, defect", [
    (_BAND_EDGE, 1e-10), (_WEAK, 1e-12), (_BOX, 1e-13)],
    ids=["band-edge", "weak-coupling", "box"])
def test_direct_contour_meets_the_oracle(strategy, defect):
    @given(strategy)
    def check(params):
        spectrum = _spectrum_or_reject(params)
        exact = _oracle(params)
        direct = survival_direct(params, TIMES, spectrum=spectrum)
        tol = DEFAULT_TOLERANCES
        assert np.all(np.abs(direct - exact)
                      <= tol.abs_tol + tol.rel_tol * np.abs(exact))
        chi = amplitude_grid(spectrum, np.concatenate((TIMES, -TIMES)))
        assert np.all(np.abs(chi[:, :len(TIMES)].sum(axis=0) - exact)
                      <= tol.abs_tol + tol.rel_tol * np.abs(exact))
        assert spectrum.completeness_defect() <= defect
        lams = np.array([s.lam for s in spectrum.states])
        for r in spectrum.states:
            if r.state_class is StateClass.RESONANT:
                # AR(t) = conj R(-t), with AR the state at conj lam_R
                ar = np.argmin(np.abs(lams - np.conj(r.lam)))
                mirror = np.conj(chi[spectrum.states.index(r), len(TIMES):])
                assert np.all(np.abs(chi[ar, :len(TIMES)] - mirror)
                              <= 1e-14 * (1.0 + np.abs(mirror)))

    check()


@pytest.mark.parametrize("g", [0.3, 1e-3, 1e-5])
def test_residue_weights_at_weak_coupling(g):
    # d1's level lies outside the band, so the bound / anti-bound pair near
    # it has E - eps1 = O(g^2); the weights take that factor as g^2 over its
    # partner.  Formed by subtraction, it gave defects of 1.0e-10 at g = 1e-3
    # and 2.0e-8 at g = 1e-5.  The remaining miss is the oracle's rounding:
    # the two expansions agree with each other to 6e-16.  The d1-d2 weights
    # q_n = -g b/(lam_n f'(lam_n)) have no factor O(g^2) to lose: the
    # <d1|e^{-iHt}|d2> they expand misses the oracle's d2 row by at most
    # 1.5e-14 of its largest modulus, which is O(g)
    params = TDotParams(1.0, 2.112017, -1.790656, g, -0.756375, -1.169795)
    spectrum = discrete_spectrum(params)
    assert spectrum.completeness_defect() <= 2e-15
    chi = amplitude_grid(spectrum, TIMES).sum(axis=0)
    assert np.max(np.abs(chi - _oracle(params))) <= 2e-14
    direct = survival_direct(params, TIMES, spectrum=spectrum)
    assert np.max(np.abs(direct - chi)) <= 2e-15
    q = [s.weight_q for s in spectrum.states]
    d2 = _oracle(params, "d2")
    assert np.max(np.abs(amplitude_grid(spectrum, TIMES, q).sum(axis=0) - d2)) \
        <= 1e-12 * np.max(np.abs(d2))


@pytest.mark.parametrize("g", [1e-3, 1e-4])
def test_narrow_resonance_at_a_tight_tolerance(g):
    # d1's level inside the band: a resonance 3e-7 (g = 1e-3) and 3e-9
    # (g = 1e-4) from the circle.  Nodes and density held relative to the
    # pole keep the sums free of the 1e-13 noise that absolute k gives there
    params = TDotParams(1.0, 0.3, -0.5, g, 0.8, 0.9)
    spectrum = discrete_spectrum(params)
    direct = survival_direct(params, TIMES, tol=Tolerances(1e-14, 1e-14),
                             spectrum=spectrum)
    assert np.max(np.abs(direct - _oracle(params))) <= 2e-14


def test_negative_real_root_at_the_band_edge():
    # a bound root 1e-6 inside -1 next to an anti-bound one, weights +-28:
    # sin k must vanish at the root's own angle, or the contour misses by
    # 2.4e-14; the oracle is exact to 4e-15 here
    params = _band_edge(1.0, 0.0, 0.4, 0.5, 0.5, -1.0, -1.0, -6.0)
    spectrum = discrete_spectrum(params)
    direct = survival_direct(params, TIMES, spectrum=spectrum)
    assert np.max(np.abs(direct - _oracle(params))) <= 1e-14


LONG_TIMES = np.linspace(-200.0, 200.0, 41)


@pytest.mark.parametrize("g", [1e-2, 1e-3, 1e-4])
def test_resonance_on_a_node_meets_the_oracle(g):
    # eps1 = eps2 = 0 and t2L = t2R put the resonance at lam = i(1 + d),
    # d = 5e-5 (g = 1e-2) to 5e-9 (g = 1e-4): at k = pi/2, a node at every
    # level.  The node's own term (about h|W|/d) and the rule's miss cancel;
    # formed apart, with phases rounded apart, they miss the oracle by
    # 6.8e-10 at g = 1e-4.  The oracle is exact to its rounding here: 60
    # sites cover +-20, 460 sites +-200
    params = TDotParams(1.0, 0.0, 0.0, g, 0.7, 0.7)
    spectrum = discrete_spectrum(params)
    assert spectrum.resonant().lam.real == 0.0
    for times, sites, bound in ((TIMES, 60, 2e-14), (LONG_TIMES, 460, 2e-13)):
        direct = survival_direct(params, times, spectrum=spectrum)
        assert np.max(np.abs(direct - _oracle(params, times=times, sites=sites))) \
            <= bound


def test_resonance_whose_nearest_node_moves():
    # a resonance 5.3e-7 from the circle, 0.4995 of a node spacing from
    # its nearest node at m = 512, so at m = 1024 a new midpoint is nearer:
    # the pole's term at the old node must rejoin the sums, or the levels
    # never agree (ToleranceNotMet on 2^20 nodes)
    params = TDotParams(1.0, -0.4561510389485459, -0.546703029333161,
                        0.0010691491769410243, 0.4833949249145828,
                        0.8908044199660607)
    spectrum = discrete_spectrum(params)
    lam = spectrum.resonant().lam
    assert abs(math.log(abs(lam))) < 1e-6
    offset = np.angle(lam) * 512 / np.pi
    assert 0.499 < abs(offset - round(offset)) < 0.5
    exact = _oracle(params, times=LONG_TIMES, sites=460)
    for tol in (DEFAULT_TOLERANCES, Tolerances(1e-14, 1e-14)):
        direct = survival_direct(params, LONG_TIMES, tol=tol, spectrum=spectrum)
        assert np.max(np.abs(direct - exact)) <= 3e-13


def _pole_miss_mp(lam, weight, m, x):
    """What the rule on the 2m nodes j pi/m misses of the circle integral
    of sin k W e^{ix cos k}/(e^{ik} - lam), plus the rule's term at the
    node nearest the pole (none at k = 0 or pi), at 40 digits; a pole above
    the axis with its conjugate.  The pole is where ``_pole_terms`` puts
    it: at the float arg and modulus of ``lam``, at k = 0 or pi if real."""
    radius = mp.mpf(float(np.abs(np.array([lam]))[0]))
    if lam.imag == 0:
        arg = mp.pi if lam.real < 0 else mp.mpf(0)
    else:
        arg = mp.mpf(float(np.angle(lam)))
    width = abs(mp.log(radius))
    h = mp.pi / m

    def one(a, w):
        pole = radius * mp.expj(a)

        def f(k):
            return mp.sin(k) * w * mp.expj(x * mp.cos(k)) / (mp.expj(k) - pole)

        cuts = [a + s * width * 10 ** e for e in range(12) if width * 10 ** e < 1
                for s in (-1, 1)]
        exact = mp.quad(f, sorted([a - mp.pi, a + mp.pi] + cuts))
        j0 = int(mp.nint(a / h))
        rule = h * mp.fsum(f(j * h) for j in range(2 * m))
        return exact - rule + (h * f(j0 * h) if j0 % m else 0)

    w = mp.mpc(weight.real, weight.imag)
    total = one(arg, w)
    if lam.imag > 0:
        total += one(-arg, mp.conj(w))
    return complex(total)


@pytest.mark.parametrize("lam, x", [
    (1.1 * np.exp(0.7j), 10.0),
    (np.exp(1e-4 + 0.7j), 10.0),
    (1.0000000051j, 10.0),
    (1.0000000051j, 40.0),
    (np.exp(1e-6 + 1j * (np.pi / 2 + 1e-3)), 10.0),
    (np.exp(1e-4 - 0.7j), 10.0),
    (complex(np.exp(1e-4)), 10.0),
    (complex(np.exp(-1e-4)), 10.0),
    (complex(-np.exp(1e-4)), 10.0),
], ids=["generic", "narrow", "on-a-node", "on-a-node-x40", "off-a-node",
        "below-the-axis", "real-outside", "real-inside", "real-at-pi"])
def test_closed_form_meets_a_40_digit_quadrature(lam, x):
    # 2m = 128 nodes pass the oscillation count x + 12 x^{1/3} + 40, so the
    # rule's miss is the pole's alone; the closed form takes the pole's
    # term at its nearest node in with it, which the on-node case (a pole
    # 5e-9 from k = pi/2, about 1e7 |W| at the node) could not lose
    weight = 1.0 + 0.3j
    with mp.workdps(40):
        want = _pole_miss_mp(lam, weight, 64, x)
    got = _pole_terms(np.array([lam]), np.array([weight]), 64, np.array([x]))[0]
    assert abs(got - want) <= 3e-15 * abs(want)


FIG6A_TIMES = np.linspace(-10.0, 10.0, 401)


def test_tolerance_at_the_rounding_floor(tmp_path, capsys):
    # fig6a: the sums agree to rounding (about 1.8e-15) on 255 nodes, so an
    # absolute tolerance of 1e-14 is met and 1e-15 is rejected, never
    # reported as met (GK15 panels stalled near 1.1e-14)
    spectrum = discrete_spectrum(FIG9_PARAMS)
    chi = amplitude_grid(spectrum, FIG6A_TIMES).sum(axis=0)
    met = survival_direct(FIG9_PARAMS, FIG6A_TIMES,
                          tol=Tolerances(abs_tol=1e-14, rel_tol=1e-300),
                          spectrum=spectrum)
    assert np.max(np.abs(met - chi)) <= 1e-14
    with pytest.raises(ToleranceNotMet, match="rounding"):
        survival_direct(FIG9_PARAMS, FIG6A_TIMES,
                        tol=Tolerances(abs_tol=1e-15, rel_tol=1e-300),
                        spectrum=spectrum)
    cfg = tmp_path / "fig6a.cfg"
    cfg.write_text("""
[run]
schema_version = 1
model = tdot
command = survival

[params]
b = 1.0
eps1 = 0.2
eps2 = 0.0
g = 0.4
t2l = 1.0
t2r = 1.0

[time]
t_min = -10.0
t_max = 10.0
n_points = 401

[tolerances]
abs_tol = 1e-15
rel_tol = 1e-300
""")
    rc = main(["survival", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ToleranceNotMet"
    assert "direct contour" in err["message"]


def test_fig8c_at_long_times_meets_the_component_sum():
    # near the EP (Im E_R = -1e-4) on 201 times over +-1e4: the panel
    # quadrature took 4.5 s here, the trapezoid rule about 0.1 s
    params = TDotParams(1.0, -2.347528, 0.0, 0.4, 1.0, 1.0)
    spectrum = discrete_spectrum(params)
    times = np.linspace(-1e4, 1e4, 201)
    direct = survival_direct(params, times, spectrum=spectrum)
    chi = amplitude_grid(spectrum, times).sum(axis=0)
    assert np.max(np.abs(direct - chi)) <= 1e-12


def test_spectrum_of_other_parameters_is_rejected():
    # fig9's parameters with the spectrum of g = 0.8 would mix two models
    other = discrete_spectrum(dataclasses.replace(FIG9_PARAMS, g=0.8))
    with pytest.raises(DomainError, match="other parameters"):
        survival_direct(FIG9_PARAMS, 3.0, spectrum=other)
    same = discrete_spectrum(dataclasses.replace(FIG9_PARAMS))
    assert survival_direct(FIG9_PARAMS, 3.0, spectrum=same) == \
        survival_direct(FIG9_PARAMS, 3.0)


@pytest.mark.xfail(strict=True, reason="near-degenerate anti-bound pair 1.17e-6 "
                   "apart: weights +-8.3e5 miss the default tolerance, unflagged")
def test_near_degenerate_anti_bound_pair():
    # two anti-bound roots just outside the 1e-6 near-degenerate detector:
    # no flag and no warning, yet the completeness defect is 3.5e-10 and
    # both expansions miss the oracle by about 3e-10 (ROADMAP item 3)
    params = TDotParams(1.0, 1.893030005792, 0.0, 0.4, 0.5, 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spectrum = discrete_spectrum(params)
    direct = survival_direct(params, TIMES, spectrum=spectrum)
    miss = np.max(np.abs(direct - _oracle(params)))
    assert caught or spectrum.flags or miss <= DEFAULT_TOLERANCES.abs_tol
