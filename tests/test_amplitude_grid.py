"""The whole-grid amplitude series against independent references.

References are the defining Bessel integrals evaluated with scipy
(``scipy.special.j1`` and ``scipy.integrate.quad``, in ``_oracles``), not
resdyn's own series or Bessel table.  For a state with weight w:

* closed form (bound and anti-bound states, R at t >= 0, AR at t <= 0):
  w (e^{-iEt}/lam - i integral_0^t e^{-iE(t - t')} J1(2bt')/t' dt');
* tail form (R at t < 0, AR at t > 0): -i s w e^{-isEt}
  integral_|t|^inf e^{-isEt'} J1(2bt')/t' dt', with s = +1 for R and -1 for
  AR, so that each state is checked in its own energy and weight.
"""

import json

import mpmath as mp
import numpy as np
import pytest

from resdyn import lattice
from resdyn.cli import main
from resdyn.errors import DomainError
from resdyn.lattice import (
    DEFAULT_TOLERANCES,
    DiscreteState,
    Spectrum,
    StateClass,
    TDotParams,
    ThetaState,
    Tolerances,
    _bessel_table,
    _series_order,
    amplitude_grid,
    discrete_spectrum,
    survival_direct,
    theta_amplitude,
    theta_weights,
)

from _oracles import cquad, j1_over_t

NEAR_EP_PARAMS = TDotParams(b=1.0, eps1=-2.347528, eps2=0.0, g=0.4, t2l=1.0, t2r=1.0)


def reference_chi(b, state, weight, t):
    lam, e = state.lam, state.energy
    cls = state.state_class
    if not ((cls is StateClass.RESONANT and t < 0)
            or (cls is StateClass.ANTI_RESONANT and t > 0)):
        forward = cquad(lambda u: np.exp(-1j * e * (t - u)) * j1_over_t(b, u),
                         0.0, t)
        return weight * (np.exp(-1j * e * t) / lam - 1j * forward)
    sign = 1.0 if cls is StateClass.RESONANT else -1.0
    p = 1j * sign * e  # the kernel e^{-p t'} decays: Re p = |Im E| > 0
    s = abs(t)
    if abs(e.imag) * s <= 5.0:
        # Laplace transform of J1(2bt)/t minus its part up to s
        laplace = (np.sqrt(p * p + 4.0 * b * b) - p) / (2.0 * b)
        head = cquad(lambda u: np.exp(-p * u) * j1_over_t(b, u), 0.0, s)
        tail = np.exp(p * s) * (laplace - head)
    else:
        # the envelope e^{-|Im E|(t' - s)} is below e^-40 past the cut
        tail = cquad(lambda u: np.exp(-p * (u - s)) * j1_over_t(b, u),
                      s, s + 40.0 / abs(e.imag))
    return -1j * sign * weight * tail


def _check_against_scipy(spectrum, grid, sample, weights=None):
    values = amplitude_grid(spectrum, grid, weights)
    if weights is None:
        weights = [s.weight_w for s in spectrum.states]
    b = spectrum.params.b
    tol = DEFAULT_TOLERANCES
    covered = set()
    for i in sample:
        t = float(grid[i])
        for n, state in enumerate(spectrum.states):
            ref = reference_chi(b, state, weights[n], t)
            bound = max(tol.abs_tol, tol.rel_tol * abs(ref))
            err = abs(values[n, i] - ref)
            assert err <= bound, (
                f"{state.state_class.value} at t={t}: {values[n, i]} vs {ref}")
            if t != 0.0:
                covered.add((n, t > 0))
    return covered


def test_fig9_grid_against_scipy(fig9_spectrum):
    grid = np.linspace(-4.0, 8.0, 481)
    sample = list(range(0, 481, 40)) + [480]
    covered = _check_against_scipy(fig9_spectrum, grid, sample)
    assert len(covered) == 8  # all four states at both signs of t


def test_fig9_theta_weights_against_scipy(fig9_spectrum):
    grid = np.linspace(-4.0, 8.0, 481)
    weights = theta_weights(fig9_spectrum, ThetaState(np.pi / 2))
    _check_against_scipy(fig9_spectrum, grid, [0, 100, 160, 200, 300, 480],
                         weights)


def test_fig8b_long_grid_against_scipy(fig9_spectrum):
    grid = np.linspace(0.0, 500.0, 251)
    both = np.concatenate((grid, -grid))  # the grid a ratio run evaluates
    sample = [1, 50, 250, 252, 301, 501]  # t = 2, 100, 500 and their mirrors
    covered = _check_against_scipy(fig9_spectrum, both, sample)
    assert len(covered) == 8


def test_near_ep_grid_against_scipy():
    spectrum = discrete_spectrum(NEAR_EP_PARAMS)
    assert abs(spectrum.resonant().energy.imag) < 1e-3
    grid = np.linspace(0.0, 20.0, 401)
    both = np.concatenate((grid, -grid))
    sample = [5, 100, 400, 406, 501, 801]
    covered = _check_against_scipy(spectrum, both, sample)
    assert len(covered) == 8


def test_value_does_not_depend_on_grid_shape(fig9_spectrum):
    grid = np.linspace(-10.0, 10.0, 401)
    values = amplitude_grid(fig9_spectrum, grid)
    for i in (0, 37, 200, 233, 400):
        alone = amplitude_grid(fig9_spectrum, [grid[i]])[:, 0]
        assert np.max(np.abs(values[:, i] - alone)) <= 1e-12, f"t={grid[i]}"


def test_states_of_equal_energy_keep_their_own_lambda():
    # lam and 1/lam share E = -b(lam + 1/lam): the Bessel integrals may be
    # shared between the two states, the e^{-iEt}/lam term may not
    params = TDotParams(1.0, 0.2, 0.0, 0.4, 1.0, 1.0)
    states = (DiscreteState(0.5 + 0j, -2.5 + 0j, StateClass.BOUND,
                            0.3 + 0j, 0j, 0j),
              DiscreteState(2.0 + 0j, -2.5 + 0j, StateClass.ANTI_BOUND,
                            -0.7 + 0j, 0j, 0j))
    times = np.linspace(-3.0, 6.0, 37)
    both = amplitude_grid(Spectrum(states, params), times)
    for n, state in enumerate(states):
        alone = amplitude_grid(Spectrum((state,), params), times)[0]
        assert np.array_equal(both[n], alone), state.state_class
    assert np.max(np.abs(both[0] / 0.3 - both[1] / -0.7)) > 1.0


def test_theta_total_is_sum_of_components(fig9_spectrum):
    th = ThetaState(0.9)
    for t in (-3.0, 0.0, 2.5):
        parts = [theta_amplitude(fig9_spectrum, th, n, t)
                 for n in range(len(fig9_spectrum.states))]
        assert theta_amplitude(fig9_spectrum, th, "total", t) == sum(parts)


def test_quadrature_failure_names_the_series(tmp_path, capsys):
    # the components need no quadrature; the direct contour does, and its
    # failure names the series, its span of times and the tolerances
    cfg = tmp_path / "survival.cfg"
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
t_min = 0.0
t_max = 2.0
n_points = 3

[tolerances]
abs_tol = 1e-300
rel_tol = 1e-300
""")
    rc = main(["survival", "--config", str(cfg),
               "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("ToleranceNotMet", "MaxSubdivisions")
    message = err["message"]
    assert "direct contour" in message
    assert "abs_tol 1e-300" in message
    assert "t in [" in message


@pytest.mark.parametrize("bad", [np.array([[0.0, 1.0]]), np.array([0.0, np.nan])])
def test_grid_validation(fig9_spectrum, bad):
    with pytest.raises(DomainError):
        amplitude_grid(fig9_spectrum, bad)


def test_mirrored_inexact_grid():
    # |t| values of this grid pair up 4.4e-16 apart, and anti-resonant times
    # reuse the resonant integrals at -t, so the segment pass meets
    # machine-width segments whose nodes can round onto the first edge
    params = TDotParams(1.0, 0.362099, 0.034065, 0.394262, 1.031983, 0.809104)
    spectrum = discrete_spectrum(params)
    times = np.linspace(-4.121, 4.121, 21)
    chi = amplitude_grid(spectrum, times)
    direct = survival_direct(params, times, spectrum=spectrum)
    assert np.max(np.abs(chi.sum(axis=0) - direct)) <= 1e-9


def test_resonant_unit_amplitude_matches_a_30_digit_series(fig9_spectrum):
    # fig8b's parameters; u = sum_k a_k i^k J_k(2bt) with a_0 = 1/lam,
    # a_1 = 1/lam^2, a_k = (1/lam - lam) lam^-k, each J_k from mpmath at 30
    # digits.  |u| is 1e-4 to 7e-4 here, so 2e-12 relative is about 1e-15
    # absolute
    res = fig9_spectrum.resonant()
    n = fig9_spectrum.states.index(res)
    times = np.array([50.0, -50.0, 100.0, -100.0])
    got = amplitude_grid(fig9_spectrum, times,
                         np.ones(len(fig9_spectrum.states)))[n]
    b = fig9_spectrum.params.b
    with mp.workdps(30):
        lam = mp.mpc(res.lam.real, res.lam.imag)
        for t, value in zip(times, got):
            x = 2 * b * abs(t)
            sign = 1 if t > 0 else -1  # J_k(-x) = (-1)^k J_k(x)
            total = mp.mpc(0)
            for k in range(int(x + 12 * x ** (1 / 3) + 60)):
                a_k = (1 / lam if k == 0 else 1 / lam ** 2 if k == 1
                       else (1 / lam - lam) / lam ** k)
                total += a_k * (1j * sign) ** k * mp.besselj(k, x)
            ref = complex(total)
            assert abs(value - ref) <= 2e-12 * abs(ref), f"t={t}"


def test_near_zero_times_give_the_value_at_zero(fig9_spectrum):
    # a linspace grid can hold t = -4.4e-16 where it means 0; 2b|t| that
    # small must not reach the Bessel recurrence's factor 2k/x
    times = np.array([0.0, 4.4e-16, -4.4e-16, 5e-324, -5e-324])
    values = amplitude_grid(fig9_spectrum, times)
    assert np.all(np.isfinite(values))
    at_zero = values[:, :1]
    assert np.array_equal(values[:, 3:], np.repeat(at_zero, 2, axis=1))
    assert np.max(np.abs(values[:, 1:3] - at_zero) / np.abs(at_zero)) <= 2e-15


def test_near_ep_component_sum_matches_direct_contour_at_long_times():
    # Im E_R = -1e-4: the resonance is barely damped out to |t| = 1e4
    spectrum = discrete_spectrum(NEAR_EP_PARAMS)
    times = np.array([-1e4, 1e4])
    chi = amplitude_grid(spectrum, times)
    direct = survival_direct(NEAR_EP_PARAMS, times,
                             tol=Tolerances(abs_tol=1e-14, rel_tol=1e-13),
                             spectrum=spectrum)
    assert np.max(np.abs(chi.sum(axis=0) - direct)) <= 1e-12


def test_bessel_table_matches_mpmath():
    # columns from the power series (x < 1e-5) and from the recurrence,
    # each zero above its own order; scipy's jv is off by 1.5e-14 at
    # J_169(700), so the reference is mpmath
    x = np.array([0.0, 5e-324, 1e-9, 9.9e-6, 1.1e-5, 0.5, 3.0, 40.0, 700.0])
    table = _bessel_table(x)
    start = _series_order(x)
    assert table.shape == (start[-1] + 1, len(x))
    assert np.all(table[np.arange(len(table))[:, None] > start] == 0.0)
    with mp.workdps(30):
        for j, xj in enumerate(x):
            for k in sorted({0, 1, 2, 3, 5, min(169, start[j]),
                             start[j] // 2, start[j]}):
                ref = float(mp.besselj(k, mp.mpf(xj)))
                err = abs(table[k, j] - ref)
                assert err <= 4e-16, (k, xj, err)
                if xj < 1e-5 and k <= 3 and abs(ref) > 1e-300:
                    assert err <= 1e-15 * abs(ref), (k, xj, err)


def test_grid_split_into_table_groups_gives_the_same_values(
        fig9_spectrum, monkeypatch):
    # a table larger than _TABLE_BLOCK entries is built in groups of times
    times = np.linspace(-60.0, 60.0, 41)
    whole = amplitude_grid(fig9_spectrum, times)
    monkeypatch.setattr(lattice, "_TABLE_BLOCK", 400)
    x = 2.0 * np.unique(np.abs(times))
    groups = list(lattice._table_groups(x))
    assert len(groups) > 5
    assert [g.start for g in groups[1:]] == [g.stop for g in groups[:-1]]
    assert groups[-1].stop == len(x)
    split = amplitude_grid(fig9_spectrum, times)
    assert np.max(np.abs(split - whole)) <= 1e-15
