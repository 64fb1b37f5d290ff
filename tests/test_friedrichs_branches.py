"""The derived erfc square-root branches of the Friedrichs cut components.

Property-based checks over the parameter domain (including true bound
states and resonances with Re E_R near 0) and over synthetic poles next to
the arg sqrt(E) = +-pi/4 rays where the rule's ingredients change sign: the
derived pair equals the pick of the quadrature search in ``_oracles``, and
the closed form matches the defining integral.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from resdyn import friedrichs as fm
from resdyn.cli import main
from resdyn.errors import DomainError, ResdynError
from resdyn.friedrichs import (
    FriedrichsParams,
    a_component,
    a_component_asymptotic,
    friedrichs_poles,
)
from resdyn.lattice import DEFAULT_TOLERANCES

from _oracles import friedrichs_branch_search, friedrichs_component_quad

LABELS = ("B", "R", "AR")


def _poles_or_reject(params):
    try:
        return friedrichs_poles(params)
    except ResdynError:
        assume(False)


@st.composite
def _re_e_res_near_zero(draw):
    """A set whose resonance sits within ~1e-6 of the imaginary axis."""
    beta = draw(st.floats(0.05, 2.0))
    g = draw(st.floats(0.25, 0.6))
    offset = draw(st.floats(-1e-6, 1e-6))
    try:
        omega1 = brentq(lambda w: friedrichs_poles(
            FriedrichsParams(w, beta, g)).e_res.real, -1.5, 1.5, xtol=1e-14)
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
    for label in LABELS:
        energy, weight = fm._pole_by_label(poles, label)
        for t_sign in (1, -1):
            sa, sb, mismatch = friedrichs_branch_search(
                params, energy, weight, t_sign, DEFAULT_TOLERANCES)
            assert mismatch < 1e-6
            assert fm._erfc_branches(energy, t_sign) == (sa, sb), label
            t = t_sign * 2.3 / _scale(energy, params)
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
        assert fm._erfc_branches(energy, t_sign) == (sa, sb), t_sign
        t = t_sign * 2.3 / _scale(energy, params)
        ref = friedrichs_component_quad(params, energy, 1.0, t,
                                        DEFAULT_TOLERANCES)
        got = fm._fm7_value(params.beta, 1.0, energy, np.array([t]),
                            *fm._erfc_branches(energy, t_sign))[0]
        assert abs(got - ref) <= 1e-6 * abs(ref), t


@given(PARAMS, st.floats(0.05, 40.0))
def test_anti_resonant_component_is_conjugate_mirror(params, tau):
    poles = _poles_or_reject(params)
    times = np.array([-tau, -0.3 * tau, 0.3 * tau, tau]) / abs(poles.e_res)
    ar = a_component(params, "AR", times, poles=poles)
    r_mirror = np.conj(a_component(params, "R", -times, poles=poles))
    assert np.all(np.abs(ar - r_mirror) <= 1e-12 * np.maximum(1.0, np.abs(ar)))


@given(PARAMS)
def test_asymptotic_form_follows_the_closed_form(params):
    poles = _poles_or_reject(params)
    t = -40.0 / abs(poles.e_res)
    exact = a_component(params, "R", t, poles=poles)
    asym = a_component_asymptotic(params, t, poles=poles)
    assert abs(asym - exact) < 0.1 * abs(exact)


def test_asymptotic_form_rejects_nonnegative_time(fig11_poles):
    p = fig11_poles.params
    for t in (0.0, 5.0, np.array([-50.0, 50.0])):
        with pytest.raises(DomainError, match="large-negative-time"):
            a_component_asymptotic(p, t, poles=fig11_poles)


def test_module_keeps_no_mutable_state():
    mutable = [name for name, value in vars(fm).items()
               if not name.startswith("__")
               and isinstance(value, (dict, list, set))]
    assert mutable == []


FRIEDRICHS_COMPONENTS = """
[run]
schema_version = 1
model = friedrichs
command = friedrichs

[params]
omega1 = 1.0
beta = 0.5
g = 0.1

[time]
t_min = -6.05
t_max = 5.95
n_points = 13

[survival]
components = true

[tolerances]
abs_tol = {abs_tol}
rel_tol = {rel_tol}
"""


def test_flipped_branch_exits_3(tmp_path, capsys, monkeypatch):
    derived = fm._erfc_branches
    monkeypatch.setattr(fm, "_erfc_branches",
                        lambda energy, t_sign: (derived(energy, t_sign)[0],
                                                -derived(energy, t_sign)[1]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FRIEDRICHS_COMPONENTS.format(abs_tol=1e-10, rel_tol=1e-8))
    rc = main(["friedrichs", "--config", str(cfg),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BranchCheckFailed"
    assert "a_B + a_R + a_AR" in err["message"]


@pytest.mark.parametrize("abs_tol, rel_tol", [(1e-3, 1e-3), (1e-13, 1e-12)])
def test_branch_check_passes_at_loose_and_tight_tolerances(tmp_path, abs_tol,
                                                           rel_tol):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FRIEDRICHS_COMPONENTS.format(abs_tol=abs_tol,
                                                rel_tol=rel_tol))
    assert main(["friedrichs", "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")]) == 0
