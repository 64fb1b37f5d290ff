"""Ratio r(t), Zeno time, short-time approximation, long-time power laws."""

import numpy as np
import pytest

from resdyn.errors import AssumptionViolated, DomainError, ValidityWarning
from resdyn.lattice import (
    DEFAULT_TOLERANCES,
    DiscreteState,
    Spectrum,
    StateClass,
    TDotParams,
    amplitude_grid,
    component_chi,
    discrete_spectrum,
    longtime_asymptotic,
    longtime_ratio,
    ratio_r,
    short_time_resonant_prob,
    survival_direct,
    zeno_time,
)

from conftest import FIG9_PARAMS


def test_ratio_is_one_at_zero(fig9_spectrum):
    assert ratio_r(fig9_spectrum, 0.0) == 1.0


def test_ratio_reciprocity(fig9_spectrum):
    for t in (0.5, 2.0, 7.0):
        assert abs(ratio_r(fig9_spectrum, t) * ratio_r(fig9_spectrum, -t)
                   - 1.0) < 1e-10


def test_ratio_grows_past_t0(fig9_spectrum):
    t0 = zeno_time(fig9_spectrum).t0
    assert ratio_r(fig9_spectrum, 3.0 * t0) > 10.0


def test_zeno_report_values(fig9_spectrum):
    report = zeno_time(fig9_spectrum)
    # frozen from direct evaluation of the closed form at these parameters
    assert abs(report.t0 - 1.0014) < 2e-4
    assert abs(report.t0 - 1.0) <= 0.01
    assert abs(report.tz - 1.0 / abs(fig9_spectrum.resonant().energy.real)) < 1e-12
    assert 0.0 < report.imag_fraction < 0.01


def test_zeno_t0_insensitive_to_im_e_r(fig9_spectrum):
    # rebuild a synthetic spectrum with Im E_R perturbed by +-50%
    res = fig9_spectrum.resonant()
    base = zeno_time(fig9_spectrum).t0
    b = FIG9_PARAMS.b
    for factor in (0.5, 1.5):
        e_new = complex(res.energy.real, res.energy.imag * factor)
        disc = np.sqrt(e_new * e_new - 4.0 * b * b + 0j)
        cands = ((-e_new + disc) / (2 * b), (-e_new - disc) / (2 * b))
        lam_new = min(cands, key=lambda c: abs(c - res.lam))
        state = DiscreteState(lam_new, e_new, StateClass.RESONANT,
                              res.weight_w, res.dyad_phi, res.weight_q)
        synthetic = Spectrum((state,), FIG9_PARAMS)
        assert abs(zeno_time(synthetic).t0 - base) / base < 0.01


def test_zeno_warns_when_assumption_fails():
    state = DiscreteState(1.5 + 0.9j, -0.05 - 0.4j, StateClass.RESONANT,
                          0.1 + 0.2j, 0.3 + 0.1j, 0.0j)
    synthetic = Spectrum((state,), FIG9_PARAMS)
    with pytest.warns(AssumptionViolated):
        zeno_time(synthetic)


def test_short_time_probability_at_zero(fig9_spectrum):
    res = fig9_spectrum.resonant()
    expected = abs(res.weight_w / res.lam) ** 2
    assert abs(short_time_resonant_prob(fig9_spectrum, 0.0) - expected) < 1e-12


def test_short_time_matches_exact_component(fig9_spectrum):
    r_idx = fig9_spectrum.states.index(fig9_spectrum.resonant())
    for t in np.linspace(-0.2, 0.2, 9):
        exact = abs(component_chi(fig9_spectrum, r_idx, float(t))) ** 2
        approx = short_time_resonant_prob(fig9_spectrum, float(t))
        assert abs(approx - exact) / exact < 0.01, f"t={t}"


def test_short_time_minimum_sits_near_minus_t0(fig9_spectrum):
    t0 = zeno_time(fig9_spectrum).t0
    ts = np.linspace(-2.0, 2.0, 2001)
    vals = np.array([short_time_resonant_prob(fig9_spectrum, float(t))
                     for t in ts])
    t_min = ts[int(np.argmin(vals))]
    assert abs(t_min + t0) < 0.05
    assert (short_time_resonant_prob(fig9_spectrum, -t0)
            < 0.01 * short_time_resonant_prob(fig9_spectrum, t0))


# ---------------------------------------------------------------------------
# long-time asymptotics


def test_asymptotic_envelope_decays_as_t_cubed(fig9_spectrum):
    ts = np.linspace(100.0, 400.0, 1201)
    vals = np.array([abs(longtime_asymptotic(fig9_spectrum, float(t), +1)) ** 2
                     for t in ts])
    period = np.pi / (2.0 * FIG9_PARAMS.b)
    edges = np.arange(100.0, 400.0 + period, period)
    idx = np.searchsorted(ts, edges)
    tt, vv = [], []
    for a, b in zip(idx[:-1], idx[1:]):
        if b - a > 2:
            k = a + int(np.argmax(vals[a:b]))
            tt.append(ts[k])
            vv.append(vals[k])
    slope = np.polyfit(np.log(tt), np.log(vv), 1)[0]
    assert abs(slope + 3.0) < 0.15


def test_asymptotic_doubling_ratio(fig9_spectrum):
    # envelope-averaged |A(2t)|^2 / |A(t)|^2 -> 1/8 at bt = 200
    period = np.pi / (2.0 * FIG9_PARAMS.b)

    def mean_p(tc):
        ts = np.linspace(tc, tc + period, 40)
        return np.mean([abs(longtime_asymptotic(fig9_spectrum, float(t), +1)) ** 2
                        for t in ts])

    ratio = mean_p(400.0) / mean_p(200.0)
    assert abs(ratio - 0.125) / 0.125 < 0.05


def test_asymptotic_matches_exact_component_at_bt200(fig9_spectrum):
    r_idx = fig9_spectrum.states.index(fig9_spectrum.resonant())
    for t, sign in ((200.0, +1), (200.0, -1)):
        exact = component_chi(fig9_spectrum, r_idx, sign * t)
        asym = longtime_asymptotic(fig9_spectrum, t, sign)
        assert abs(exact - asym) / abs(exact) < 0.10


def test_asymptotic_oscillates_at_twice_the_hopping(fig9_spectrum):
    # zeros of Re A are spaced by pi/(2b)
    ts = np.linspace(300.0, 320.0, 4001)
    re = np.array([longtime_asymptotic(fig9_spectrum, float(t), +1).real
                   for t in ts])
    crossings = ts[:-1][np.sign(re[:-1]) != np.sign(re[1:])]
    spacings = np.diff(crossings)
    assert abs(np.mean(spacings) - np.pi / 2.0) / (np.pi / 2.0) < 0.01


def test_asymptotic_validity_warning_and_domain(fig9_spectrum):
    with pytest.warns(ValidityWarning):
        longtime_asymptotic(fig9_spectrum, 10.0, +1)
    with pytest.raises(DomainError):
        longtime_asymptotic(fig9_spectrum, -5.0, +1)


def test_ratio_approaches_longtime_closed_form(fig9_spectrum):
    t = 500.0
    exact = ratio_r(fig9_spectrum, t)
    closed = longtime_ratio(fig9_spectrum, t)
    assert abs(exact - closed) / closed < 0.20


def test_ratio_restoration_at_long_times(fig9_spectrum):
    period = np.pi / (2.0 * FIG9_PARAMS.b)

    def mean_abs_log_r(tc):
        ts = np.linspace(tc, tc + 2 * period, 9)
        return np.mean([abs(np.log(ratio_r(fig9_spectrum, float(t))))
                        for t in ts])

    assert mean_abs_log_r(5.0) > 10.0 * mean_abs_log_r(500.0)


def test_ratio_near_ep_is_much_flatter(fig9_spectrum):
    near_ep = discrete_spectrum(TDotParams(1.0, -2.347528, 0.0, 0.4, 1.0, 1.0))
    ts = np.linspace(0.25, 20.0, 80)
    max_far = max(abs(np.log10(ratio_r(fig9_spectrum, float(t)))) for t in ts)
    max_near = max(abs(np.log10(ratio_r(near_ep, float(t)))) for t in ts)
    assert max_far >= 5.0 * max_near


# ---------------------------------------------------------------------------
# the engine past |t Im E_R| ~ 709, where e^{-iE_R t} alone overflows


def test_component_sum_is_the_survival_amplitude_at_long_times(fig9_spectrum):
    times = np.array([-1e4, -9000.0, 9000.0, 1e4])
    chi = amplitude_grid(fig9_spectrum, times)
    direct = survival_direct(FIG9_PARAMS, times, spectrum=fig9_spectrum)
    assert np.all(np.isfinite(chi))
    assert np.max(np.abs(chi.sum(axis=0) - direct)) <= 1e-12


def test_component_sum_near_the_ep_at_long_times():
    near_ep = TDotParams(1.0, -2.347528, 0.0, 0.4, 1.0, 1.0)
    spectrum = discrete_spectrum(near_ep)
    times = np.array([-1e4, 1e4])
    chi = amplitude_grid(spectrum, times)
    direct = survival_direct(near_ep, times, spectrum=spectrum)
    # |chi_R| ~ 0.9 cancels to |A| ~ 1e-8, so the relative tolerance applies
    # to the components, not to their sum
    tol = DEFAULT_TOLERANCES
    allowed = tol.abs_tol + tol.rel_tol * np.abs(chi).sum(axis=0)
    assert np.all(np.abs(chi.sum(axis=0) - direct) <= allowed)


def test_resonant_component_matches_the_power_law_at_3e4(fig9_spectrum):
    r_idx = fig9_spectrum.states.index(fig9_spectrum.resonant())
    t = 3e4
    chi = amplitude_grid(fig9_spectrum, [t, -t])[r_idx]
    for value, sign in zip(chi, (+1, -1)):
        asym = longtime_asymptotic(fig9_spectrum, t, sign)
        assert abs(value - asym) / abs(value) < 1e-3


def test_ratio_matches_the_closed_form_past_the_overflow_time(fig9_spectrum):
    ts = np.array([1e4, 2.5e4])
    r = ratio_r(fig9_spectrum, ts)
    closed = np.array([longtime_ratio(fig9_spectrum, t) for t in ts])
    assert np.all(np.abs(r - closed) / closed < 1e-3)
