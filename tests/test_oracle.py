import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jv

from resdyn.errors import DomainError, ReflectionContamination
from resdyn.kernel import bessel_j1
from resdyn.lattice import TDotParams, ThetaState, survival_direct, theta_amplitude
from resdyn.oracle import (
    _chebyshev_order,
    _coefficients,
    build_hamiltonian,
    propagate,
)

from conftest import FIG9_PARAMS
from _oracles import expm_rows, full_chain_rows, lattice_matrix


def test_matrix_is_symmetric_and_structured():
    dense = lattice_matrix(FIG9_PARAMS, 60).toarray()
    assert np.array_equal(dense, dense.T)
    assert dense[0, 0] == FIG9_PARAMS.eps1
    assert dense[1, 1] == FIG9_PARAMS.eps2
    assert dense[0, 1] == -FIG9_PARAMS.g
    assert dense[1, 2] == -FIG9_PARAMS.t2l
    assert dense[1, 2 + 60] == -FIG9_PARAMS.t2r
    assert dense[2, 3] == -FIG9_PARAMS.b
    assert dense[2 + 60, 3 + 60] == -FIG9_PARAMS.b
    # eps1 (eps2 is 0 here), then g, t2l, t2r and 2 x 59 lead hops, each twice
    assert np.count_nonzero(dense) == 1 + 2 * 3 + 4 * 59


def test_lead_block_spectrum_stays_in_band():
    lead = lattice_matrix(FIG9_PARAMS, 80).toarray()[2:82, 2:82]
    eigs = np.linalg.eigvalsh(lead)
    assert eigs.min() > -2.0 * FIG9_PARAMS.b - 1e-10
    assert eigs.max() < 2.0 * FIG9_PARAMS.b + 1e-10


@pytest.mark.parametrize("params", [
    FIG9_PARAMS,
    TDotParams(0.7, -0.4, 0.2, 0.8, 0.3, 1.6),
    TDotParams(0.5, 2.5, 0.0, -0.1, 0.0, 0.0),
    TDotParams(0.5, 0.0, -0.3, 0.2, -1.1, 0.4),
    TDotParams(2.0, 0.1, 0.1, 0.1, 0.1, 0.1),
    TDotParams(1.0, 0.0, 0.0, 0.1, 1.5, 0.1),
    TDotParams(1.0, 0.0, 0.0, 0.1, 0.1, 1.5),
])
def test_scale_is_the_largest_absolute_row_sum(params):
    lat = build_hamiltonian(params, 50)
    dense = lattice_matrix(params, 50).toarray()
    row_sum = np.max(np.sum(np.abs(dense), axis=1))
    assert lat.scale == pytest.approx(row_sum, rel=1e-15)
    assert np.max(np.abs(np.linalg.eigvalsh(dense))) < lat.scale * (1 + 1e-12)


def test_minimum_size_enforced():
    with pytest.raises(DomainError):
        build_hamiltonian(FIG9_PARAMS, 49)


def test_decoupled_dot_survival_is_pure_phase():
    p = TDotParams(1.0, 0.3, 0.0, 0.0, 0.0, 0.0)
    lat = build_hamiltonian(p, 50)
    times = np.linspace(0.0, 5.0, 6)
    res = propagate(lat, times)
    for t, a in zip(res.times, res.amplitudes["d1"]):
        assert abs(a - np.exp(-1j * p.eps1 * t)) < 1e-13


def test_end_coupled_chain_matches_bessel_closed_form():
    # g = t2l = b with t2r = 0 degenerates the system to a uniform
    # semi-infinite chain whose end-site amplitude is J1(2bt)/(bt)
    p = TDotParams(1.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    lat = build_hamiltonian(p, 400)
    times = np.linspace(0.5, 100.0, 40)
    res = propagate(lat, times)
    for t, a in zip(res.times, res.amplitudes["d1"]):
        assert abs(a - bessel_j1(2.0 * t) / t) < 1e-6


def test_time_reversal():
    lat = build_hamiltonian(FIG9_PARAMS, 200)
    times = np.linspace(-40.0, 40.0, 17)
    res = propagate(lat, times)
    amps = dict(zip(res.times, res.amplitudes["d1"]))
    for t in (10.0, 25.0, 40.0):
        assert abs(abs(amps[t]) - abs(amps[-t])) < 1e-10


def test_horizon_doubling_leaves_amplitudes_unchanged():
    times = np.linspace(0.0, 45.0, 10)
    a_small = propagate(build_hamiltonian(FIG9_PARAMS, 100), times)
    a_big = propagate(build_hamiltonian(FIG9_PARAMS, 200), times)
    dev = max(abs(x - y) for x, y in zip(a_small.amplitudes["d1"],
                                         a_big.amplitudes["d1"]))
    assert dev < 1e-8


def test_reflection_contamination_warning():
    lat = build_hamiltonian(FIG9_PARAMS, 50)
    assert lat.safe_horizon == 25.0
    with pytest.warns(ReflectionContamination):
        res = propagate(lat, np.array([30.0]))
    assert "reflection-contamination" in res.flags


def test_matches_contour_amplitudes(fig9_spectrum):
    lat = build_hamiltonian(FIG9_PARAMS, 800)
    times = np.linspace(0.0, 50.0, 26)
    res = propagate(lat, times)
    dev = max(abs(survival_direct(FIG9_PARAMS, t, spectrum=fig9_spectrum) - a)
              for t, a in zip(res.times, res.amplitudes["d1"]))
    assert dev < 1e-4


def test_matches_theta_amplitudes(fig9_spectrum):
    lat = build_hamiltonian(FIG9_PARAMS, 800)
    times = np.linspace(0.0, 50.0, 26)
    # H is real symmetric: <d1|e^{-iHt}|d2> = <d2|e^{-iHt}|d1>
    res = propagate(lat, times)
    for theta in (0.0, np.pi / 2):
        exact = (res.amplitudes["d1"]
                 + np.exp(1j * theta) * res.amplitudes["d2"]) / np.sqrt(2.0)
        dev = max(abs(theta_amplitude(fig9_spectrum, ThetaState(theta),
                                      "total", t) - a)
                  for t, a in zip(res.times, exact))
        assert dev < 1e-4, f"theta={theta}"


def test_d2_amplitude_available_on_request():
    lat = build_hamiltonian(FIG9_PARAMS, 100)
    res = propagate(lat, np.array([3.0]))
    assert "d2" in res.amplitudes
    assert abs(res.amplitudes["d2"][0]) > 0.0


def test_matches_expm_multiply_on_mixed_sign_grid():
    lat = build_hamiltonian(FIG9_PARAMS, 200)
    times = np.array([7.5, -3.0, 0.0, 3.0, -60.0, 7.5, -7.5, 60.0, 0.4, -21.0])
    res = propagate(lat, times)
    d1, d2 = expm_rows(lat, times)
    assert np.array_equal(res.times, times)
    assert np.max(np.abs(res.amplitudes["d1"] - d1)) < 1e-12
    assert np.max(np.abs(res.amplitudes["d2"] - d2)) < 1e-12


@pytest.mark.parametrize("t2l, t2r", [(0.3, 1.6), (-0.3, 1.6), (0.0, 1.6),
                                      (0.0, 0.0)],
                         ids=["both-positive", "opposite-signs", "left-zero",
                              "both-zero"])
def test_matches_expm_multiply_on_asymmetric_lattice_past_horizon(t2l, t2r):
    # |t| runs past the horizon N/(2b) = 42.9, so the light cone reaches
    # the chain's end and the wave comes back from it; the reference
    # propagates both leads, so it checks the one-chain reduction as well,
    # down to t2l = t2r = 0, where d2 is cut off from the leads
    p = TDotParams(0.7, -0.4, 0.2, 0.8, t2l, t2r)
    lat = build_hamiltonian(p, 60)
    times = np.array([-60.0, -47.5, -30.0, -4.2, 0.0, 1.3, 12.0, 42.0, 55.5,
                      60.0])
    with pytest.warns(ReflectionContamination):
        res = propagate(lat, times)
    d1, d2 = expm_rows(lat, times)
    assert np.max(np.abs(res.amplitudes["d1"] - d1)) < 1e-12
    assert np.max(np.abs(res.amplitudes["d2"] - d2)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_times_are_rejected(bad):
    lat = build_hamiltonian(FIG9_PARAMS, 50)
    with pytest.raises(DomainError):
        propagate(lat, [1.0, bad])


def test_grid_equals_one_time_calls():
    # each lone time has its own expansion order
    lat = build_hamiltonian(FIG9_PARAMS, 200)
    times = np.array([-95.0, -40.0, -13.0, -0.7, 0.0, 0.2, 5.0, 31.0, 95.0])
    res = propagate(lat, times)
    for i, t in enumerate(times):
        one = propagate(lat, np.array([t]))
        for site in ("d1", "d2"):
            assert abs(one.amplitudes[site][0] - res.amplitudes[site][i]) < 1e-13


@pytest.mark.parametrize("n_sites, t_max", [(2000, 1000.0), (10**6, 5.0)],
                         ids=["long-run", "long-lattice"])
def test_working_memory_does_not_grow_with_order(n_sites, t_max):
    # long run: the expansion order is 2,561 and a Chebyshev vector 16 kB;
    # the peak, about 0.62 MB, is mostly _coefficients' (21, 2562) output
    # (0.43 MB) next to the 64 kB arrays of one FFT row; the bound leaves
    # 0.38 MB above it.  Long lattice: the light cone of the order-42 run
    # sets the vectors' length, which at the lattice's 10^6 sites would take
    # 16 MB
    lat = build_hamiltonian(FIG9_PARAMS, n_sites)
    times = np.linspace(-t_max, t_max, 41)
    tracemalloc.start()
    try:
        propagate(lat, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20


def test_fft_coefficients_match_40_digit_bessel():
    # c[:, k] holds (2 - delta_k0) (-i)^k J_k(alpha), divided by i for odd k
    # alpha = 2422.2 with k = 2540-2585 is the worst range found on the
    # bench grid (about 1.6e-14, from rounding alpha cos theta)
    alphas = np.array([0.0, 1e-9, 0.5, 50.0, 1213.5, 2422.2, 2427.0])
    order = _chebyshev_order(alphas[-1])
    ks = np.concatenate([[0, 1, 2, 3, 17, 50, 51, 1000, 1213, 1214, 2400,
                          2427, 2428], np.arange(2540, 2586), [order]])
    with mp.workdps(40):
        bessel = np.array([[float(mp.besselj(int(k), mp.mpf(a))) for k in ks]
                           for a in alphas])
    unit = (2.0 - (ks == 0)) * (-1j) ** ks / 1j ** (ks % 2)
    exact = (unit * bessel).real
    fft_err = np.max(np.abs(_coefficients(alphas, order)[:, ks] - exact))
    jv_err = np.max(np.abs((unit * jv(ks, alphas[:, None])).real - exact))
    assert fft_err <= jv_err
    assert fft_err < 1e-13


@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.5, 50.0, 1213.5, 2427.0,
                                   1e4, 1e5])
def test_chebyshev_order_drops_every_later_bessel_below_1e_17(alpha):
    order = _chebyshev_order(alpha)
    assert order >= 1
    assert np.max(np.abs(jv(np.arange(order, order + 51), alpha))) <= 1e-17


def test_mirrored_times_are_conjugates_bit_for_bit():
    lat = build_hamiltonian(FIG9_PARAMS, 200)
    times = np.linspace(-60.0, 60.0, 25)
    res = propagate(lat, times)
    for site in ("d1", "d2"):
        amps = res.amplitudes[site]
        assert np.array_equal(amps.real, amps.real[::-1])
        assert np.array_equal(amps.imag[:12], -amps.imag[:12:-1])


@pytest.mark.parametrize("params, n_sites, times", [
    (TDotParams(1.0, 0.2, 0.0, 0.4, 1.0, 1.0), 2000,
     np.linspace(-1000.0, 1000.0, 41)),
    (TDotParams(0.7, -0.4, 0.2, 0.8, 0.3, 1.6), 50,
     np.array([-70.0, -31.0, 2.5, 44.0, 70.0])),
    (FIG9_PARAMS, 10**6, np.linspace(-5.0, 5.0, 41)),
    (TDotParams(1.0, 0.0, 0.0, 0.4, 0.3, 1.6), 300,
     np.linspace(-150.0, 150.0, 31)),
    (FIG9_PARAMS, 200, np.array([0.0, 0.1, 3.0, -9.5, 60.0])),
], ids=["bench", "past-horizon", "long-lattice", "bipartite", "with-zero"])
def test_light_cone_matches_full_chain_bit_for_bit(params, n_sites, times):
    # the steps past the light cone add zeros and nothing else; bipartite
    # (eps1 = eps2 = 0): every odd d1 entry and even d2 entry is zero
    lat = build_hamiltonian(params, n_sites)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReflectionContamination)
        res = propagate(lat, times)
    for site, full in zip(("d1", "d2"), full_chain_rows(lat, times)):
        assert res.amplitudes[site].tobytes() == full.tobytes(), site
