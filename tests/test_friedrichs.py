import dataclasses

import numpy as np
import pytest

from resdyn.errors import DomainError, PoleProximity
from resdyn.friedrichs import (
    FriedrichsParams,
    a_component,
    a_component_asymptotic,
    a_components,
    a_cut_direct,
    cut_integrand_rational,
    friedrichs_poles,
    green_function,
    survival_total,
)
from resdyn.friedrichs import (
    _eta_negative_axis,
    _eta_prime_negative_axis,
)
from resdyn.lattice import Tolerances

from _oracles import friedrichs_component_quad
from conftest import FIG11_PARAMS, FM_E_R_REF, assert_close

TIGHT = Tolerances(abs_tol=1e-12, rel_tol=1e-11)
STRONG = FriedrichsParams(omega1=1.0, beta=0.5, g=0.5)


@pytest.mark.parametrize("call", [
    lambda p, poles: a_cut_direct(p, 1.0, poles=poles),
    lambda p, poles: a_components(p, 1.0, poles=poles),
    lambda p, poles: a_component(p, "R", 1.0, poles=poles),
    lambda p, poles: a_component_asymptotic(p, -50.0, poles=poles),
    lambda p, poles: survival_total(p, 0.0, poles=poles),
], ids=["cut", "components", "component", "asymptotic", "total"])
def test_poles_of_other_parameters_are_rejected(call):
    # fig11's parameters with the poles of beta = 0.9 would mix two models
    # (survival_total would give A(0) = 0.745)
    other = friedrichs_poles(dataclasses.replace(FIG11_PARAMS, beta=0.9))
    with pytest.raises(DomainError, match="other parameters"):
        call(FIG11_PARAMS, other)
    np.testing.assert_array_equal(
        call(FIG11_PARAMS, friedrichs_poles(FIG11_PARAMS)),
        call(FIG11_PARAMS, None))


# ---------------------------------------------------------------------------
# Green's function


def test_free_resolvent():
    p = FriedrichsParams(omega1=1.0, beta=0.5, g=0.0)
    assert abs(green_function(p, 2.0) - 1.0) < 1e-14


def test_sides_are_complex_conjugates():
    for e in (0.3, 1.7, 5.0):
        above = green_function(FIG11_PARAMS, e, "above")
        below = green_function(FIG11_PARAMS, e, "below")
        assert abs(above - np.conj(below)) < 1e-14


def test_negative_axis_single_valued():
    assert abs(green_function(FIG11_PARAMS, -0.7, "above")
               - green_function(FIG11_PARAMS, -0.7, "below")) == 0.0
    assert green_function(FIG11_PARAMS, -0.7).imag == 0.0


def test_green_function_against_discretized_level_shift():
    # Riemann sum of the defining k-sum with an analytic remainder for the
    # truncated tail; evaluated off the continuum so no pole smoothing is
    # needed
    p = FIG11_PARAMS
    e = -0.7
    k_max = 4000.0
    k = np.linspace(1e-9, k_max, 2_000_000)
    dk = k[1] - k[0]
    summand = np.sqrt(p.beta * k) / ((k + p.beta) * (e - k))
    eta_sum = e - p.omega1 - 2.0 * p.g ** 2 * np.sum(summand) * dk
    # truncated tail: integrand ~ -sqrt(beta) k^{-3/2} for k >> beta, |e|
    tail_integral = -np.sqrt(p.beta) * 2.0 / np.sqrt(k_max)
    eta_sum -= 2.0 * p.g ** 2 * tail_integral
    assert abs(1.0 / eta_sum - green_function(p, e)) < 1e-4


def test_pole_proximity_raises():
    poles = friedrichs_poles(STRONG)
    with pytest.raises(PoleProximity):
        green_function(STRONG, poles["B"].energy.real, "above")


def test_green_rejects_bad_side():
    with pytest.raises(DomainError):
        green_function(FIG11_PARAMS, 1.0, "sideways")


# ---------------------------------------------------------------------------
# poles and weights


def test_fig11_golden_pole(fig11_poles):
    assert_close(fig11_poles["R"].energy, FM_E_R_REF, 5e-3, "E_R")
    assert abs(1.0 / abs(fig11_poles["R"].energy) - 1.02) / 1.02 < 0.01


def test_pole_conjugation(fig11_poles):
    res, ares = fig11_poles["R"], fig11_poles["AR"]
    assert ares.energy == np.conj(res.energy)
    assert ares.weight == np.conj(res.weight)


def test_minus_beta_deflates_exactly():
    p = FIG11_PARAMS
    tpg = 2.0 * np.pi * p.g ** 2
    q_at = lambda e: ((e + p.beta) * (e - p.omega1) + tpg * p.beta) ** 2 \
        + tpg ** 2 * p.beta * e
    scale = max(abs(q_at(x)) for x in (1.0, -1.0, 2.0))
    assert abs(q_at(-p.beta)) < 1e-12 * scale


def test_cubic_residual_at_poles(fig11_poles):
    p = FIG11_PARAMS
    tpg = 2.0 * np.pi * p.g ** 2
    q_at = lambda e: ((e + p.beta) * (e - p.omega1) + tpg * p.beta) ** 2 \
        + tpg ** 2 * p.beta * e
    for pole in fig11_poles.roots:
        assert abs(q_at(pole.energy)) < 1e-10


def test_virtual_state_has_no_bound_residue(fig11_poles):
    # weak coupling: the negative real root solves the second-sheet equation
    assert fig11_poles.bound_residue == 0.0
    assert abs(_eta_negative_axis(FIG11_PARAMS,
                                  fig11_poles["B"].energy.real)) > 0.1


def test_strong_coupling_has_true_bound_state():
    poles = friedrichs_poles(STRONG)
    e_bound = poles["B"].energy.real
    assert abs(_eta_negative_axis(STRONG, e_bound)) < 1e-8
    expected = 1.0 / _eta_prime_negative_axis(STRONG, e_bound)
    assert abs(poles.bound_residue - expected) < 1e-12
    assert 0.0 < poles.bound_residue < 1.0


def test_eta_prime_matches_finite_differences():
    for p in (FIG11_PARAMS, STRONG):
        e = -0.8
        h = 1e-6
        fd = (_eta_negative_axis(p, e + h) - _eta_negative_axis(p, e - h)) / (2 * h)
        assert abs(fd - _eta_prime_negative_axis(p, e)) < 1e-8


def test_partial_fraction_identity_pointwise(fig11_poles):
    # rational part of the cut integrand == sum of the three pole terms
    es = np.linspace(1e-3, 10.0 * FIG11_PARAMS.beta, 100)
    rational = cut_integrand_rational(FIG11_PARAMS, es)
    pole_sum = sum(pole.weight / (es - pole.energy)
                   for pole in fig11_poles.roots)
    assert np.max(np.abs(rational - pole_sum)) < 1e-10


def test_three_real_roots_are_labelled_b_v1_v2():
    # deep level with weak narrow coupling: all three cubic roots are real,
    # B on the first sheet and two virtual states
    p = FriedrichsParams(omega1=-3.0, beta=0.1, g=0.3)
    poles = friedrichs_poles(p)
    assert [pole.label for pole in poles.roots] == ["B", "V1", "V2"]
    assert all(pole.energy.imag == 0.0 for pole in poles.roots)
    assert abs(_eta_negative_axis(p, poles["B"].energy.real)) < 1e-12
    assert 0.0 < poles.bound_residue < 1.0
    assert abs(survival_total(p, 0.0, poles=poles) - 1.0) < 1e-13


def test_zero_coupling_has_no_poles():
    with pytest.raises(DomainError, match="g = 0"):
        friedrichs_poles(FriedrichsParams(omega1=1.0, beta=0.5, g=0.0))


@pytest.mark.parametrize("g", [1e100, 1e160, -1e160, 1e-160])
def test_coupling_outside_the_float_range_is_a_domain_error(g):
    # (2 pi g^2)^2 overflows at |g| = 1e100 and 1e160 (g ** 2 itself at
    # 1e160) and is subnormal at 1e-160, where the companion matrix would
    # overflow
    with pytest.raises(DomainError, match="g = .* leaves the float range"):
        friedrichs_poles(FriedrichsParams(omega1=1.0, beta=0.5, g=g))
    with pytest.raises(DomainError, match="leaves the float range"):
        survival_total(FriedrichsParams(omega1=1.0, beta=0.5, g=g), 1.0)


def test_cubic_whose_companion_matrix_overflows_is_a_domain_error():
    # g is in range, but beta / (2 pi g^2) is not
    with pytest.raises(DomainError, match="the cubic leaves the float range"):
        friedrichs_poles(FriedrichsParams(omega1=0.0, beta=1e200, g=1e-70))


def test_narrow_resonance_keeps_its_width():
    # Im E_R ~ 1e-12: the pair is solved in y = (E - omega1)/(2 pi g^2)
    p = FriedrichsParams(omega1=1.0, beta=0.5, g=1e-6)
    poles = friedrichs_poles(p)
    tpg = 2.0 * np.pi * p.g ** 2
    # to leading order in g, Im E_R = -2 pi g^2 sqrt(beta omega1)/(omega1 + beta)
    assert abs(poles["R"].energy.imag / tpg + np.sqrt(0.5) / 1.5) < 1e-10
    assert abs(survival_total(p, 0.0, poles=poles) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# amplitudes


def test_sum_rule_weak_and_strong():
    for p in (FIG11_PARAMS, STRONG):
        poles = friedrichs_poles(p)
        a0 = poles.bound_residue + a_cut_direct(p, 0.0, tol=TIGHT, poles=poles)
        assert abs(a0 - 1.0) < 1e-6


@pytest.mark.parametrize("params", [FriedrichsParams(-1e-300, 1.0, 1e-8),
                                    FriedrichsParams(1.0, 1e20, 1e3)])
def test_sum_rule_with_poles_decades_apart(params):
    # B and V2 sit 15 and 13 decades below |V1|, where the cut holds 1 - r_B
    # (1.3e-8 and 1.3e-7) in a peak that a panel over all of x misses
    poles = friedrichs_poles(params)
    a0 = poles.bound_residue + a_cut_direct(params, 0.0, poles=poles)
    assert abs(a0 - 1.0) < 1e-13


def test_survival_total_at_zero(fig11_poles):
    assert abs(survival_total(FIG11_PARAMS, 0.0, poles=fig11_poles) - 1.0) < 1e-6


def test_survival_probability_even(fig11_poles):
    for t in (0.8, 5.0, 20.0):
        ap = survival_total(FIG11_PARAMS, t, poles=fig11_poles)
        am = survival_total(FIG11_PARAMS, -t, poles=fig11_poles)
        assert abs(abs(ap) - abs(am)) < 1e-6


def test_cut_equals_component_sum(fig11_poles):
    for t in (-50.0, -20.0, -5.0, -0.5, 0.5, 2.0, 10.0, 50.0):
        total = sum(a_component(FIG11_PARAMS, n, t, poles=fig11_poles)
                    for n in ("B", "R", "AR"))
        direct = a_cut_direct(FIG11_PARAMS, t, poles=fig11_poles)
        assert abs(total - direct) < 1e-6, f"t={t}"


def test_components_match_defining_integral(fig11_poles):
    for n in ("B", "R", "AR"):
        energy, weight = fig11_poles[n].energy, fig11_poles[n].weight
        for t in (-10.0, -2.0, -0.5, 0.5, 2.0, 10.0):
            ref = friedrichs_component_quad(FIG11_PARAMS, energy, weight, t,
                                            TIGHT)
            got = a_component(FIG11_PARAMS, n, t, poles=fig11_poles)
            assert abs(got - ref) < 1e-6, f"n={n} t={t}"


def test_component_conjugate_reflection(fig11_poles):
    for t in (0.7, 3.0, -4.0, 25.0):
        lhs = a_component(FIG11_PARAMS, "AR", t, poles=fig11_poles)
        rhs = np.conj(a_component(FIG11_PARAMS, "R", -t, poles=fig11_poles))
        assert abs(lhs - rhs) < 1e-10


def test_component_rejects_t_zero(fig11_poles):
    with pytest.raises(DomainError):
        a_component(FIG11_PARAMS, "R", 0.0, poles=fig11_poles)
    with pytest.raises(DomainError):
        a_component(FIG11_PARAMS, "X", 1.0, poles=fig11_poles)


def test_resonant_component_shape(fig11_poles):
    # negligible well before t = 0, dominant after (the Fig. 11 shape)
    er = abs(fig11_poles["R"].energy)
    early = abs(a_component(FIG11_PARAMS, "R", -3.0 / er, poles=fig11_poles))
    peak = max(abs(a_component(FIG11_PARAMS, "R", t, poles=fig11_poles))
               for t in np.linspace(0.3, 3.0, 12))
    assert early < 0.1 * peak


def test_suppression_ratios(fig11_poles):
    er = abs(fig11_poles["R"].energy)
    t = 30.0 / er
    r_plus = (abs(a_component(FIG11_PARAMS, "R", t, poles=fig11_poles))
              / abs(a_component(FIG11_PARAMS, "AR", t, poles=fig11_poles))) ** 2
    r_minus = (abs(a_component(FIG11_PARAMS, "R", -t, poles=fig11_poles))
               / abs(a_component(FIG11_PARAMS, "AR", -t, poles=fig11_poles))) ** 2
    assert r_plus > 1e3
    assert r_minus < 1e-3


def test_decay_rate_matches_resonance_width(fig11_poles):
    ts = np.linspace(5.0, 30.0, 26)
    logs = [np.log(abs(survival_total(FIG11_PARAMS, float(t),
                                      poles=fig11_poles)) ** 2) for t in ts]
    rate = -np.polyfit(ts, logs, 1)[0]
    assert abs(rate - 2.0 * abs(fig11_poles["R"].energy.imag)) \
        < 0.1 * 2.0 * abs(fig11_poles["R"].energy.imag)


def test_asymptotic_against_closed_form(fig11_poles):
    er = abs(fig11_poles["R"].energy)
    t = -40.0 / er
    exact = a_component(FIG11_PARAMS, "R", t, poles=fig11_poles)
    asym = a_component_asymptotic(FIG11_PARAMS, t, poles=fig11_poles)
    assert abs(exact - asym) / abs(exact) < 0.05


def test_asymptotic_power_law_scaling(fig11_poles):
    er = abs(fig11_poles["R"].energy)
    t = -80.0 / er
    ratio = (abs(a_component_asymptotic(FIG11_PARAMS, 2 * t, poles=fig11_poles))
             / abs(a_component_asymptotic(FIG11_PARAMS, t, poles=fig11_poles)))
    assert abs(ratio - 2.0 ** -1.5) / 2.0 ** -1.5 < 0.03


def test_asymptotic_phase(fig11_poles):
    er = abs(fig11_poles["R"].energy)
    t = -60.0 / er
    exact = a_component(FIG11_PARAMS, "R", t, poles=fig11_poles)
    asym = a_component_asymptotic(FIG11_PARAMS, t, poles=fig11_poles)
    assert abs(np.angle(exact / asym)) < 0.05


def test_negative_time_slope(fig11_poles):
    er = abs(fig11_poles["R"].energy)
    ts = -np.linspace(40.0, 160.0, 25) / er
    vals = [abs(a_component(FIG11_PARAMS, "R", float(t), poles=fig11_poles))
            for t in ts]
    slope = np.polyfit(np.log(-ts), np.log(vals), 1)[0]
    assert abs(slope + 1.5) < 0.075
