import numpy as np
import pytest

from resdyn.errors import DegenerateLeadCoupling, NoResonance
from resdyn.lattice import (
    StateClass,
    TDotParams,
    ThetaState,
    Tolerances,
    amplitude_grid,
    component_chi,
    discrete_spectrum,
    ep_locate,
    isolated_residue_amplitude,
    survival_direct,
    theta_amplitude,
)
from resdyn.oracle import build_hamiltonian

from conftest import FIG9_PARAMS
from _oracles import (
    band_integral_of_pole_kernel,
    expm_rows,
    inside_lambda_root,
    j1_transform,
    track_lambda_root,
    xin_circle_component,
)

TIGHT = Tolerances(abs_tol=1e-12, rel_tol=1e-11)


def test_survival_at_zero_is_one(fig9_spectrum):
    a0 = survival_direct(FIG9_PARAMS, 0.0, spectrum=fig9_spectrum)
    assert abs(a0 - 1.0) < 1e-8


def test_survival_at_negative_times_matches_expm_multiply(fig9_spectrum):
    # survival_direct integrates only |t| and conjugates for t < 0, so -t is
    # checked against the lattice, well inside its horizon of 50
    times = np.array([-1.0, -5.0, -10.0])
    exact, _ = expm_rows(build_hamiltonian(FIG9_PARAMS, 100), times)
    am = survival_direct(FIG9_PARAMS, times, tol=TIGHT, spectrum=fig9_spectrum)
    assert np.max(np.abs(am - exact)) < 1e-8


# survival_direct folds the unit circle onto [0, pi]; each case is checked
# against expm_multiply on a lattice whose horizon (50) covers the grid
FOLD_TIMES = np.array([-30.0, -4.259, -1.0, 0.0, 0.3, 2.0, 4.259, 12.5, 40.0])
# eps1 that put a bound root at distance 1e-3, 1e-5, 1e-7 from +1; with
# eps2 = 0, eps1 -> -eps1 maps lambda -> -lambda
BAND_EDGE_EPS1 = (-1.87507137162, -1.87500070323, -1.87500000703)


def _fold_error(params):
    spectrum = discrete_spectrum(params)
    exact, _ = expm_rows(build_hamiltonian(params, 100), FOLD_TIMES)
    direct = survival_direct(params, FOLD_TIMES, spectrum=spectrum)
    assert direct[FOLD_TIMES == 0.0][0].imag == 0.0
    return spectrum, float(np.max(np.abs(direct - exact)))


def test_folded_contour_on_a_three_state_spectrum():
    # T = (0.6^2 + 0.8^2)/b = b: the quartic degenerates to a cubic
    params = TDotParams(b=1.0, eps1=0.2, eps2=0.1, g=0.4, t2l=0.6, t2r=0.8)
    with pytest.warns(DegenerateLeadCoupling):
        spectrum, err = _fold_error(params)
    assert len(spectrum.states) == 3
    assert err < 1e-12


@pytest.mark.parametrize("eps1", (1e-14, 2.2e-309))
def test_folded_contour_where_the_cubic_degenerates_too(eps1):
    # T = b(1 - 9e-13) with eps2 = 0: c3 = eps1 (b - T)/b^2 is 1e-26 or
    # subnormal, so the cubic's leading coefficient goes as well.  The
    # subnormal eps1 on the lattice's diagonal overflows a division in
    # scipy's one-norm estimate for expm_multiply, hence the errstate; the
    # bounds below hold all the same
    t2 = np.sqrt((1.0 - 9e-13) / 2.0)
    params = TDotParams(b=1.0, eps1=eps1, eps2=0.0, g=0.4, t2l=t2, t2r=t2)
    with pytest.warns(DegenerateLeadCoupling, match="degree 2"), \
            np.errstate(over="ignore", invalid="ignore"):
        spectrum, err = _fold_error(params)
    assert len(spectrum.states) == 2
    assert spectrum.completeness_defect() <= 1e-8
    assert err <= 1e-8


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("eps1,distance", zip(BAND_EDGE_EPS1, (1e-3, 1e-5, 1e-7)))
def test_folded_contour_with_a_bound_root_next_to_the_band_edge(
        eps1, distance, sign):
    # the root puts a peak of width ~distance at k = 0 (lambda near +1) or
    # k = pi (lambda near -1) that the panels must resolve
    params = TDotParams(b=1.0, eps1=sign * eps1, eps2=0.0, g=0.4, t2l=0.6,
                        t2r=0.6)
    spectrum, err = _fold_error(params)
    bound = [s.lam.real for s in spectrum.by_class(StateClass.BOUND)]
    assert min(abs(lam - sign) for lam in bound) == pytest.approx(distance,
                                                                rel=1e-3)
    assert err < 1e-11


def test_folded_contour_at_the_exceptional_point():
    # the weights come from root differences, so they stay exact up to the
    # double root; EP - 1e-9 is on the anti-bound side
    star = ep_locate(FIG9_PARAMS, -3.0, 0.0)
    for eps1 in (star - 1e-4, star + 1e-4, star, -2.3475280645757373):
        spectrum, err = _fold_error(TDotParams(1.0, eps1, 0.0, 0.4, 1.0, 1.0))
        assert err < 1e-10, eps1
        assert spectrum.completeness_defect() <= 1e-9, eps1


def test_folded_contour_on_a_sweep_operation():
    # a sweep's T-dot operation with a bound root at 0.9947
    params = TDotParams(b=1.0, eps1=0.257529, eps2=-0.095961, g=0.467976,
                        t2l=0.952849, t2r=0.953267)
    spectrum, err = _fold_error(params)
    assert max(s.lam.real for s in spectrum.by_class(StateClass.BOUND)) \
        == pytest.approx(0.9947, abs=1e-4)
    assert err < 1e-12


def test_components_at_zero_equal_w_over_lambda(fig9_spectrum):
    for n, s in enumerate(fig9_spectrum.states):
        c = component_chi(fig9_spectrum, n, 0.0)
        assert abs(c - s.weight_w / s.lam) < 1e-12


def test_component_sum_matches_direct_contour(fig9_spectrum):
    # fig9's asymmetric grid: each t < 0 shares its |t| with a t > 0, and
    # only t in (4, 8] has no mirror
    times = np.linspace(-4.0, 8.0, 481)
    direct = survival_direct(FIG9_PARAMS, times, spectrum=fig9_spectrum)
    total = amplitude_grid(fig9_spectrum, times).sum(axis=0)
    assert np.max(np.abs(direct - total)) < 1e-9


def test_anti_resonant_is_conjugate_reflection(fig9_spectrum):
    r_idx = fig9_spectrum.states.index(fig9_spectrum.resonant())
    ar_idx = fig9_spectrum.states.index(
        fig9_spectrum.by_class(StateClass.ANTI_RESONANT)[0])
    for t in (0.6, 3.0, -2.5, 12.0):
        lhs = component_chi(fig9_spectrum, ar_idx, t)
        rhs = np.conj(component_chi(fig9_spectrum, r_idx, -t))
        assert abs(lhs - rhs) < 1e-10


def test_anti_resonant_against_contour_quadrature_oracle(fig9_spectrum):
    ar = fig9_spectrum.by_class(StateClass.ANTI_RESONANT)[0]
    ar_idx = fig9_spectrum.states.index(ar)
    for t in (0.0, 1.5, -4.0, 7.0):
        oracle = xin_circle_component(FIG9_PARAMS.b, ar.weight_w, ar.lam, t)
        got = component_chi(fig9_spectrum, ar_idx, t)
        assert abs(got - oracle) < 1e-6, f"t={t}"


def test_resonant_against_contour_quadrature_oracle(fig9_spectrum):
    res = fig9_spectrum.resonant()
    r_idx = fig9_spectrum.states.index(res)
    for t in (2.0, -3.0):
        oracle = xin_circle_component(FIG9_PARAMS.b, res.weight_w, res.lam, t)
        got = component_chi(fig9_spectrum, r_idx, t)
        assert abs(got - oracle) < 1e-6


def test_bound_identity_integral_equals_i_lambda(fig9_spectrum):
    # integral_0^inf e^{-iE t'} J1(2bt')/t' dt' = i lambda_n for bound states
    b = FIG9_PARAMS.b
    for s in fig9_spectrum.by_class(StateClass.BOUND):
        value = j1_transform(b, s.energy)
        assert abs(value - 1j * s.lam) < 1e-6


def test_resonant_identity_by_analytic_continuation(fig9_spectrum):
    # integral_0^inf e^{+iE_R t'} J1(2bt')/t' dt' = -i lambda_R, where the
    # left side means the continuation from Im E > 0 across the band cut.
    b = FIG9_PARAMS.b
    res = fig9_spectrum.resonant()
    e_r = res.energy
    # step 1: on the upper half plane the transform is a convergent integral
    # and equals -i * lambda_inside(E); verify by direct quadrature at
    # several points, including the continuation's start point conj(E_R)
    for e in (np.conj(e_r), 0.5 + 0.4j, -1.2 + 0.15j, 2.6 + 0.5j):
        direct = j1_transform(b, -e)  # the e^{+iEt'} transform
        lam_in = inside_lambda_root(b, e)
        assert abs(direct - (-1j) * lam_in) < 1e-7, f"E={e}"
        # the band-integral form of the same transform agrees
        assert abs(band_integral_of_pole_kernel(b, e) - direct) < 1e-8
    # step 2: continue lambda_inside from conj(E_R) through the cut down to
    # E_R by root tracking; the branch ends on the second sheet at lambda_R
    lam_tracked = track_lambda_root(b, np.conj(e_r), e_r,
                                    inside_lambda_root(b, np.conj(e_r)))
    assert abs(lam_tracked - res.lam) < 1e-6
    # hence the continued integral equals -i lambda_R
    assert abs((-1j) * lam_tracked - (-1j) * res.lam) < 1e-6


def test_isolated_residue_amplitude(fig9_spectrum):
    res = fig9_spectrum.resonant()
    assert abs(isolated_residue_amplitude(fig9_spectrum, 0.0)
               - res.dyad_phi) < 1e-14
    p_neg = abs(isolated_residue_amplitude(fig9_spectrum, -10.0)) ** 2
    p_pos = abs(isolated_residue_amplitude(fig9_spectrum, 10.0)) ** 2
    expected_ratio = np.exp(2.0 * abs(res.energy.imag) * 20.0)
    assert p_neg / p_pos > 10.0
    assert abs(p_neg / p_pos / expected_ratio - 1.0) < 1e-10


def test_isolated_residue_approaches_component_at_long_times(fig9_spectrum):
    res = fig9_spectrum.resonant()
    r_idx = fig9_spectrum.states.index(res)
    t = 3.0 / abs(res.energy.imag)
    chi = component_chi(fig9_spectrum, r_idx, t)
    xi = isolated_residue_amplitude(fig9_spectrum, t)
    assert abs(xi - chi) / abs(chi) < 0.05


def test_isolated_residue_requires_resonance():
    s = discrete_spectrum(TDotParams(1.0, -3.0, 0.0, 0.4, 1.0, 1.0))
    with pytest.raises(NoResonance):
        isolated_residue_amplitude(s, 1.0)


# ---------------------------------------------------------------------------
# theta superposition states


def test_theta_zero_total_is_even(fig9_spectrum):
    th = ThetaState(0.0)
    for t in (0.8, 4.0):
        ap = theta_amplitude(fig9_spectrum, th, "total", t)
        am = theta_amplitude(fig9_spectrum, th, "total", -t)
        assert abs(abs(ap) - abs(am)) < 1e-6


def test_theta_half_pi_total_is_asymmetric_but_reflects(fig9_spectrum):
    th = ThetaState(np.pi / 2)
    th_m = ThetaState(-np.pi / 2)
    diffs = []
    for t in (1.0, 4.0):
        ap = theta_amplitude(fig9_spectrum, th, "total", t)
        am = theta_amplitude(fig9_spectrum, th, "total", -t)
        diffs.append(abs(abs(ap) - abs(am)))
        reflected = np.conj(theta_amplitude(fig9_spectrum, th_m, "total", -t))
        assert abs(ap - reflected) < 1e-6
    assert max(diffs) > 0.05  # genuinely uneven in time


def test_theta_component_reflection_identity(fig9_spectrum):
    th = ThetaState(0.7)
    th_m = ThetaState(-0.7)
    r_idx = fig9_spectrum.states.index(fig9_spectrum.resonant())
    ar_idx = fig9_spectrum.states.index(
        fig9_spectrum.by_class(StateClass.ANTI_RESONANT)[0])
    for t in (0.5, -2.0, 6.0):
        lhs = theta_amplitude(fig9_spectrum, th, r_idx, t)
        rhs = np.conj(theta_amplitude(fig9_spectrum, th_m, ar_idx, -t))
        assert abs(lhs - rhs) < 1e-10


def test_theta_total_at_zero(fig9_spectrum):
    for theta in (0.0, np.pi / 2, 2.2):
        total = theta_amplitude(fig9_spectrum, ThetaState(theta), "total", 0.0)
        assert abs(total - 1.0 / np.sqrt(2.0)) < 1e-10


def test_parallel_grid_map_is_bit_identical(fig9_spectrum):
    from concurrent.futures import ThreadPoolExecutor
    times = list(np.linspace(-5.0, 5.0, 21))

    def one(t):
        return component_chi(fig9_spectrum, 2, t)

    sequential = [one(t) for t in times]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(one, times))
    assert sequential == parallel


def test_bound_identity_for_detached_real_lambda():
    # lambda = 0.3 (|lambda| < 1, energy outside the band) carries the
    # s = +1 branch of the transform identity, confirming the bound label
    b = 1.0
    lam = 0.3
    energy = -b * (lam + 1.0 / lam)
    assert abs(j1_transform(b, energy) - 1j * lam) < 1e-6
