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

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from resdyn.cli import main
from resdyn.errors import DomainError, ResdynError, ToleranceNotMet
from resdyn.lattice import (
    DEFAULT_TOLERANCES,
    StateClass,
    TDotParams,
    Tolerances,
    amplitude_grid,
    discrete_spectrum,
    survival_direct,
)
from resdyn.oracle import build_hamiltonian, propagate

from conftest import FIG9_PARAMS

TIMES = np.linspace(-20.0, 20.0, 41)


def _oracle(params, row="d1"):
    return propagate(build_hamiltonian(params, 60), TIMES).amplitudes[row]


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
    there is none (a root on the circle, no state left).  Pairs of roots
    closer than 1e-3 are rejected too: their weights grow as one over the
    separation and lose digits (``test_near_degenerate_anti_bound_pair``)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spectrum = discrete_spectrum(params)
    except ResdynError:
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
