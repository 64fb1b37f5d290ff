"""The closed forms of the Friedrichs cut components and the survival
amplitude summed over the cubic's roots.

Property-based checks over the parameter domain (including true bound
states, resonances with Re E_R near 0, narrow resonances, weak coupling
and cubics with three real roots) and over synthetic poles next to the
arg sqrt(E) = +-pi/4 rays where the erfc branches change: the closed form
equals the branch pair that the quadrature search in ``_oracles`` picks
and matches the defining integral, and the pole sum matches a 40-digit
evaluation and the cut quadrature.  The cases of the domain that still
fail are strict xfails.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from resdyn import friedrichs as fm
from resdyn.cli import main
from resdyn.errors import DomainError, NonConvergence, ResdynError
from resdyn.friedrichs import (
    FriedrichsParams,
    a_component,
    a_component_asymptotic,
    friedrichs_poles,
)
from resdyn.lattice import DEFAULT_TOLERANCES

from _oracles import (
    friedrichs_branch_search,
    friedrichs_branch_value,
    friedrichs_component_quad,
    friedrichs_total_mp,
)


def _poles_or_reject(params):
    try:
        return friedrichs_poles(params)
    except ResdynError:
        assume(False)


def _resonant_poles_or_reject(params):
    poles = _poles_or_reject(params)
    assume(poles.roots[1].label == "R")
    return poles


@st.composite
def _re_e_res_near_zero(draw):
    """A set whose resonance sits within ~1e-6 of the imaginary axis."""
    beta = draw(st.floats(0.05, 2.0))
    g = draw(st.floats(0.25, 0.6))
    offset = draw(st.floats(-1e-6, 1e-6))
    try:
        omega1 = brentq(lambda w: friedrichs_poles(
            FriedrichsParams(w, beta, g))["R"].energy.real, -1.5, 1.5,
            xtol=1e-14)
    except (ResdynError, ValueError):
        assume(False)
    return FriedrichsParams(omega1 + offset, beta, g)


PARAMS = st.one_of(
    st.builds(FriedrichsParams, omega1=st.floats(-0.5, 3.0),
              beta=st.floats(0.05, 2.0), g=st.floats(0.02, 0.4)),
    # omega1 < 0 with strong coupling: a true bound state
    st.builds(FriedrichsParams, omega1=st.floats(-1.5, -0.05),
              beta=st.floats(0.05, 2.0), g=st.floats(0.25, 0.6)),
    _re_e_res_near_zero(),
)


def _scale(energy, params):
    return max(abs(energy), params.beta)


@given(PARAMS)
def test_derived_branches_equal_search_and_defining_integral(params):
    poles = _poles_or_reject(params)
    for pole in poles.roots:
        label, energy, weight = pole.label, pole.energy, pole.weight
        for t_sign in (1, -1):
            sa, sb, mismatch = friedrichs_branch_search(
                params, energy, weight, t_sign, DEFAULT_TOLERANCES)
            assert mismatch < 1e-6
            t = t_sign * 2.3 / _scale(energy, params)
            searched = friedrichs_branch_value(params.beta, weight, energy, t,
                                               sa, sb)
            got = fm._fm7_value(params.beta, weight, energy, np.array([t]))[0]
            assert abs(got - searched) <= 1e-12 * abs(searched), label
            ref = friedrichs_component_quad(params, energy, weight, t,
                                            DEFAULT_TOLERANCES)
            got = a_component(params, label, t, poles=poles)
            assert abs(got - ref) <= 1e-6 * abs(ref), (label, t)


@given(r=st.floats(0.05, 3.0), upper=st.booleans(),
       delta=st.floats(-1e-6, 1e-6))
@example(r=0.7, upper=True, delta=0.0)
@example(r=0.7, upper=False, delta=0.0)
def test_derived_branches_next_to_the_quarter_rays(r, upper, delta):
    # E = 2 r delta +- i r: arg sqrt(E) within ~|delta| of +-pi/4, on either
    # side (all four quadrants of E), and exactly on the ray for delta = 0
    params = FriedrichsParams(1.0, 0.5, 0.1)
    energy = complex(2.0 * r * delta, r if upper else -r)
    for t_sign in (1, -1):
        sa, sb, mismatch = friedrichs_branch_search(
            params, energy, 1.0, t_sign, DEFAULT_TOLERANCES)
        assert mismatch < 1e-6
        t = t_sign * 2.3 / _scale(energy, params)
        searched = friedrichs_branch_value(params.beta, 1.0, energy, t, sa, sb)
        got = fm._fm7_value(params.beta, 1.0, energy, np.array([t]))[0]
        assert abs(got - searched) <= 1e-12 * abs(searched), t
        ref = friedrichs_component_quad(params, energy, 1.0, t,
                                        DEFAULT_TOLERANCES)
        assert abs(got - ref) <= 1e-6 * abs(ref), t


@given(PARAMS, st.floats(0.05, 40.0))
def test_anti_resonant_component_is_conjugate_mirror(params, tau):
    poles = _resonant_poles_or_reject(params)
    times = np.array([-tau, -0.3 * tau, 0.3 * tau, tau]) / abs(poles["R"].energy)
    ar = a_component(params, "AR", times, poles=poles)
    r_mirror = np.conj(a_component(params, "R", -times, poles=poles))
    assert np.all(np.abs(ar - r_mirror) <= 1e-12 * np.maximum(1.0, np.abs(ar)))


@given(PARAMS)
def test_asymptotic_form_follows_the_closed_form(params):
    poles = _resonant_poles_or_reject(params)
    t = -40.0 / abs(poles["R"].energy)
    exact = a_component(params, "R", t, poles=poles)
    asym = a_component_asymptotic(params, t, poles=poles)
    assert abs(asym - exact) < 0.1 * abs(exact)


def test_asymptotic_form_rejects_nonnegative_time(fig11_poles):
    p = fig11_poles.params
    for t in (0.0, 5.0, np.array([-50.0, 50.0])):
        with pytest.raises(DomainError, match="large-negative-time"):
            a_component_asymptotic(p, t, poles=fig11_poles)


SMALL_TIMES = np.array([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6,
                        1e-3, -1e-3])


@given(PARAMS)
def test_cut_is_continuous_at_zero_time(params):
    # |dA/dt| <= <E> over the cut, so A(t) - A(0) = O(|t|); a rotated tail
    # whose first panel misses f's decay leaves a constant offset instead
    poles = _poles_or_reject(params)
    values = fm.a_cut_direct(params, SMALL_TIMES, poles=poles)
    bound = (2.0 * max(abs(params.omega1), params.beta, 1.0)
             * np.abs(SMALL_TIMES[1:]) + 10.0 * DEFAULT_TOLERANCES.abs_tol)
    assert np.all(np.abs(values[1:] - values[0]) <= bound)


# narrow resonances: Im E_R down to ~1e-8
NARROW_PARAMS = st.builds(FriedrichsParams, omega1=st.floats(0.5, 3.0),
                          beta=st.floats(0.05, 2.0), g=st.floats(1e-4, 0.02))
# a deep level with weak coupling: the cubic has three real roots
THREE_REAL_PARAMS = st.one_of(
    st.builds(FriedrichsParams, omega1=st.floats(-0.55, -0.45),
              beta=st.floats(0.04, 0.06), g=st.floats(0.045, 0.055)),
    st.builds(FriedrichsParams, omega1=st.floats(-3.3, -2.7),
              beta=st.floats(0.09, 0.11), g=st.floats(0.27, 0.33)),
)
ALL_PARAMS = st.one_of(PARAMS, NARROW_PARAMS, THREE_REAL_PARAMS)
# weak coupling: a resonance of width down to ~1e-30 and a virtual state
# that rounds onto E = -beta; omega1 >= 0.05 is far above 2 pi g^2
WEAK_PARAMS = st.builds(FriedrichsParams, omega1=st.floats(0.05, 3.0),
                        beta=st.floats(0.05, 2.0),
                        g=st.floats(-15.0, -4.0).map(lambda x: 10.0 ** x))
# mirrored, with t = 0; |E t| stays small enough that rounding E t costs
# no more than ~1e-14
MIRRORED_TIMES = np.array([-25.0, -7.3, -0.9, 0.0, 0.9, 7.3, 25.0])


@given(THREE_REAL_PARAMS)
def test_three_real_roots_are_one_bound_and_two_virtual_states(params):
    poles = friedrichs_poles(params)
    assert [pole.label for pole in poles.roots] == ["B", "V1", "V2"]
    assert 0.0 < poles.bound_residue < 1.0
    assert poles["V1"].energy.real < poles["V2"].energy.real < 0.0


@given(st.one_of(ALL_PARAMS, WEAK_PARAMS))
@example(FriedrichsParams(1.0, 0.5, 1e-9))
@example(FriedrichsParams(0.5, 0.5, 1e-10))
@example(FriedrichsParams(0.3, 2.0, 1e-15))
def test_pole_sum_matches_40_digits(params):
    # the 40-digit sum at t >= 0, mirrored by A(-t) = conj A(t); every
    # drawn set must solve
    poles = friedrichs_poles(params)
    if params.g <= 1e-4:
        assert poles.bound_residue == 0.0
    values = fm.survival_total(params, MIRRORED_TIMES, poles=poles)
    half = friedrichs_total_mp(params, MIRRORED_TIMES[3:])
    reference = np.concatenate((np.conj(half[:0:-1]), half))
    assert np.max(np.abs(values - reference)) <= 1e-13
    assert abs(values[3] - 1.0) <= 1e-13
    assert np.all(np.abs(values[::-1] - np.conj(values)) <= 1e-13)


@given(ALL_PARAMS)
def test_pole_sum_is_finite_at_long_times(params):
    poles = _poles_or_reject(params)
    width = min(abs(pole.energy.imag) for pole in poles.roots) or 1.0
    times = np.array([-1e6, -1e4 / width, 1e4 / width, 1e6])
    values = fm.survival_total(params, times, poles=poles)
    assert np.all(np.isfinite(values))
    assert np.all(np.abs(values) <= 1.0 + 1e-12)


@given(ALL_PARAMS)
def test_pole_sum_is_continuous_at_zero_time(params):
    # the bound of test_cut_is_continuous_at_zero_time, for the total
    poles = _poles_or_reject(params)
    values = fm.survival_total(params, SMALL_TIMES, poles=poles)
    bound = (2.0 * max(abs(params.omega1), params.beta, 1.0)
             * np.abs(SMALL_TIMES[1:]) + 10.0 * DEFAULT_TOLERANCES.abs_tol)
    assert np.all(np.abs(values[1:] - values[0]) <= bound)


@given(ALL_PARAMS)
def test_pole_sum_matches_the_cut_quadrature(params):
    poles = _poles_or_reject(params)
    times = np.array([-7.3, 0.0, 0.9])
    values = fm.survival_total(params, times, poles=poles)
    reference = (poles.bound_residue
                 * np.exp(-1j * poles["B"].energy.real * times)
                 + fm.a_cut_direct(params, times, poles=poles))
    tol = DEFAULT_TOLERANCES
    assert np.all(np.abs(values - reference)
                  <= 10.0 * (tol.abs_tol + tol.rel_tol * np.abs(values)))


def test_module_keeps_no_mutable_state():
    mutable = [name for name, value in vars(fm).items()
               if not name.startswith("__")
               and isinstance(value, (dict, list, set))]
    assert mutable == []


FRIEDRICHS_ORACLE = """
[run]
schema_version = 1
model = friedrichs
command = oracle-check

[params]
omega1 = 1.0
beta = 0.5
g = 0.1

[time]
t_min = -6.05
t_max = 5.95
n_points = 13

[tolerances]
abs_tol = {abs_tol}
rel_tol = {rel_tol}
"""


def test_flipped_branch_exits_3(tmp_path, capsys, monkeypatch):
    faddeeva = fm.faddeeva
    monkeypatch.setattr(fm, "faddeeva", lambda z: faddeeva(-z))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FRIEDRICHS_ORACLE.format(abs_tol=1e-10, rel_tol=1e-8))
    out = tmp_path / "oracle.json"
    rc = main(["oracle-check", "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert "oracle deviation" in err["message"]
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["max_deviation"] > 0.01


@pytest.mark.parametrize("abs_tol, rel_tol", [(1e-3, 1e-3), (1e-13, 1e-12)])
def test_branch_check_passes_at_loose_and_tight_tolerances(tmp_path, abs_tol,
                                                           rel_tol):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FRIEDRICHS_ORACLE.format(abs_tol=abs_tol, rel_tol=rel_tol))
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--config", str(cfg),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert set(report["deviations"]) == {"total"}


# ---------------------------------------------------------------------------
# the edges of the domain on the command line

FRIEDRICHS_RUN = """
[run]
schema_version = 1
model = friedrichs
command = {command}

[params]
omega1 = {omega1}
beta = {beta}
g = {g}

[time]
t_min = -2.0
t_max = 2.0
n_points = 5
"""


def _run(tmp_path, command, omega1, beta, g):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FRIEDRICHS_RUN.format(command=command, omega1=omega1,
                                         beta=beta, g=g))
    out = tmp_path / ("out.json" if command == "oracle-check" else "out.csv")
    return main([command, "--config", str(cfg), "--out", str(out)]), out


def _zero_time_row(out):
    return [row for row in out.read_text().splitlines()
            if row.startswith("0,")]


def test_weak_coupling_has_no_bound_state(tmp_path):
    # B = -beta + O(g^4) rounds onto -beta; it is a virtual state, and
    # A(0) = 1 (not 2)
    rc, out = _run(tmp_path, "friedrichs", 1.0, 0.5, 1e-9)
    assert rc == 0
    assert _zero_time_row(out) == ["0,1,0,1"]


def test_bound_residue_at_the_float_range_never_exits_1(tmp_path):
    # u = sqrt(-beta E_B) overflows to inf, and the residue is then 1
    rc, out = _run(tmp_path, "friedrichs", -1e200, 1e200, 1e-50)
    assert rc == 0
    assert _zero_time_row(out) == ["0,1,0,1"]


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="ROADMAP item 2: at g = 1e-16 the huge virtual root "
                          "misses the cubic's backward-error gate")
def test_poles_solve_below_g_1e_15():
    params = FriedrichsParams(1.0, 0.5, 1e-16)
    poles = friedrichs_poles(params)
    assert abs(fm.survival_total(params, 0.0, poles=poles) - 1.0) <= 1e-13


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the bound root and its partner "
                          "collide at g = 1e-9, so column re_a is not finite "
                          "(exit 3)")
def test_deep_level_at_weak_coupling_exits_0(tmp_path, capsys):
    rc, out = _run(tmp_path, "friedrichs", -1.0, 0.5, 1e-9)
    assert rc == 0, capsys.readouterr().err
    assert _zero_time_row(out) == ["0,1,0,1"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: a_cut_direct cannot resolve the "
                          "resonance of width 6e-14 at g = 1e-7 (deviation 1.0)")
def test_oracle_check_resolves_a_narrow_resonance(tmp_path):
    rc, out = _run(tmp_path, "oracle-check", 1.0, 0.5, 1e-7)
    assert rc == 0
    assert json.loads(out.read_text())["pass"] is True
