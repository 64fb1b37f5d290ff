import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from resdyn.errors import (
    DegenerateLeadCoupling,
    DomainError,
    NearDegenerateSpectrum,
    NoResonance,
    NoSignChange,
    ResdynError,
    Unclassifiable,
)
from resdyn.lattice import (
    StateClass,
    TDotParams,
    classify,
    discrete_spectra,
    discrete_spectrum,
    ep_discriminant,
    ep_locate,
    f_lambda,
    h_lambda,
    p4_coefficients,
)

from conftest import (
    ABS_LAM_R_REF,
    E_R_REF,
    FIG9_PARAMS,
    LAM_R_REF,
    assert_close,
    random_tdot_params,
)
from _oracles import residue_by_small_circle


def test_f_vanishes_at_published_resonant_root():
    assert abs(f_lambda(FIG9_PARAMS, LAM_R_REF)) < 1e-4


def test_f_factorizes_when_dots_decouple():
    p = TDotParams(b=1.0, eps1=0.3, eps2=-0.2, g=0.0, t2l=0.8, t2r=0.6)
    # zero of the first bracket: -b(lam+1/lam) - eps1 = 0
    lam = (-p.eps1 + np.sqrt(p.eps1 ** 2 - 4 * p.b ** 2 + 0j)) / (2 * p.b)
    assert abs(f_lambda(p, lam)) < 1e-12


def test_f_real_coefficient_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam) < 1e-3:
            continue
        assert abs(np.conj(f_lambda(FIG9_PARAMS, lam))
                   - f_lambda(FIG9_PARAMS, np.conj(lam))) < 1e-12


def test_h_symmetry_and_root():
    rng = np.random.default_rng(2)
    for _ in range(100):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam) < 1e-2:
            continue
        assert abs(h_lambda(FIG9_PARAMS, lam)
                   - h_lambda(FIG9_PARAMS, 1.0 / lam)) < 1e-10
    # quadratic-formula root of h
    p = TDotParams(b=1.0, eps1=2.7, eps2=0.0, g=0.4, t2l=1.0, t2r=1.0)
    lam0 = 0.5 * (-p.eps1 / p.b + np.sqrt((p.eps1 / p.b) ** 2 - 4.0 + 0j))
    assert abs(h_lambda(p, lam0)) < 1e-12


def test_h_and_f_reject_zero():
    with pytest.raises(DomainError):
        h_lambda(FIG9_PARAMS, 0.0)
    with pytest.raises(DomainError):
        f_lambda(FIG9_PARAMS, 0.0)


def test_p4_reproduces_f():
    rng = np.random.default_rng(4)
    coeffs = p4_coefficients(FIG9_PARAMS)
    for _ in range(30):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam) < 0.05:
            continue
        p4 = sum(c * lam ** k for k, c in enumerate(coeffs))
        assert abs(FIG9_PARAMS.b ** 2 * p4 / lam ** 2
                   - f_lambda(FIG9_PARAMS, lam)) < 1e-10


def test_fig9_golden_spectrum(fig9_spectrum):
    res = fig9_spectrum.resonant()
    assert_close(res.energy, E_R_REF, 1e-4, "E_R")
    assert_close(abs(res.lam), ABS_LAM_R_REF, 1e-4, "|lam_R|")
    classes = sorted(s.state_class.value for s in fig9_spectrum.states)
    assert classes == ["anti-resonant", "bound", "bound", "resonant"]


def test_completeness_sum(fig9_spectrum):
    assert fig9_spectrum.completeness_defect() < 1e-8


def test_dyad_relation_and_conjugate_pairing(fig9_spectrum):
    for s in fig9_spectrum.states:
        assert abs(s.dyad_phi - (1.0 / s.lam - s.lam) * s.weight_w) < 1e-12
        assert abs(s.energy + FIG9_PARAMS.b * (s.lam + 1.0 / s.lam)) < 1e-10
    res = fig9_spectrum.resonant()
    ares = fig9_spectrum.by_class(StateClass.ANTI_RESONANT)[0]
    assert abs(ares.lam - np.conj(res.lam)) < 1e-10
    assert abs(ares.weight_w - np.conj(res.weight_w)) < 1e-10


def test_weights_match_small_circle_residues(fig9_spectrum):
    for s in fig9_spectrum.states:
        dyad = residue_by_small_circle(FIG9_PARAMS, s.lam)
        assert abs(dyad - s.dyad_phi) < 1e-8


def test_q_weights_sum_to_zero(fig9_spectrum):
    total = sum(s.weight_q / s.lam for s in fig9_spectrum.states)
    assert abs(total) < 1e-10


def test_q_weight_matches_eigenvector_ratio(fig9_spectrum):
    # the d2/d1 eigenvector component ratio is (eps1 - E)/g
    for s in fig9_spectrum.states:
        expected = s.weight_w * (FIG9_PARAMS.eps1 - s.energy) / FIG9_PARAMS.g
        assert abs(s.weight_q - expected) < 1e-10


def test_spectrum_requires_coupling():
    with pytest.raises(DomainError):
        discrete_spectrum(TDotParams(1.0, 0.2, 0.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("params, bad", [
    (TDotParams(1e200, 0.2, 0.0, 0.4, 1.0, 1.0), "c0, c1, c2, c3, c4"),
    (TDotParams(1e-200, 0.2, 0.0, 0.4, 1.0, 1.0), "c0, c1, c2, c3, c4"),
    (TDotParams(1.0, 1e300, 1e300, 1.0, 1.0, 1.0), "c2"),
], ids=["b=1e200", "b=1e-200", "eps=1e300"])
def test_coefficients_outside_the_float_range_raise(params, bad):
    # b^2 overflows or underflows to 0 (every coefficient is lost), or
    # eps1 eps2 overflows in c2 alone
    with pytest.raises(DomainError) as err:
        discrete_spectrum(params)
    assert str(err.value) == f"quartic coefficients leave the float range: {bad}"


def test_degenerate_lead_coupling_gives_cubic():
    # t2l^2 + t2r^2 = b^2 makes the quartic's leading coefficient vanish
    p = TDotParams(b=1.0, eps1=0.4, eps2=0.1, g=0.3,
                   t2l=np.sqrt(0.5), t2r=np.sqrt(0.5))
    with pytest.warns(DegenerateLeadCoupling):
        s = discrete_spectrum(p)
    assert len(s.states) == 3
    assert "degenerate-lead-coupling" in s.flags
    assert s.completeness_defect() < 1e-8


@pytest.mark.parametrize("eps1", (0.0, 1e-13, 1e-300))
def test_uniform_chain_limit_has_no_discrete_state(eps1):
    # b = g = T with eps1 = eps2 = 0 makes the quartic the constant 1: every
    # root is at infinity, and those roots carry all of sum_n w_n/lam_n
    p = TDotParams(b=1.0, eps1=eps1, eps2=0.0, g=1.0, t2l=1.0, t2r=0.0)
    with pytest.raises(NoResonance, match="uniform chain"):
        discrete_spectrum(p)


def test_near_degenerate_flag_close_to_ep():
    star = ep_locate(FIG9_PARAMS, -3.0, 0.0, tol=1e-15)
    p = TDotParams(1.0, star, 0.0, 0.4, 1.0, 1.0)
    with pytest.warns(NearDegenerateSpectrum):
        s = discrete_spectrum(p)
    assert "near-degenerate" in s.flags


def _outcome(call):
    """call()'s result, the error it raised (or None) and the warnings it
    emitted, in order."""
    result, error = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ResdynError as exc:
            error = exc
    return result, error, [(w.category, str(w.message)) for w in caught]


def test_ragged_batch_matches_one_set_at_a_time():
    # t2r sweeps T = (t2l^2 + t2r^2)/b across b = 1 at t2r = 0.8: within
    # 5e-13 of it the quartic drops to a cubic, so the batch solves sets of
    # two degrees; the last set sits at the EP and warns of a near-degenerate
    # pair
    star = ep_locate(FIG9_PARAMS, -3.0, 0.0, tol=1e-15)
    params = [TDotParams(1.0, 0.2, 0.1, 0.4, 0.6, t2r)
              for t2r in (0.7, 0.8 - 1e-9, 0.8, 0.8 + 3e-13, 0.9, 0.8 - 3e-13)]
    params.append(TDotParams(1.0, star, 0.0, 0.4, 1.0, 1.0))
    batch = _outcome(lambda: discrete_spectra(params))
    assert [len(s.states) for s in batch[0]] == [4, 4, 3, 3, 4, 3, 4]
    assert batch[0][-1].flags == ("near-degenerate",)
    assert batch == _outcome(lambda: [discrete_spectrum(p) for p in params])


@pytest.mark.parametrize("params, error", [
    # g through 0 at T = b: the sets before it warn of the cubic
    ([TDotParams(1.0, 0.2, 0.1, g, 1.0, 0.0) for g in (-0.2, -0.1, 0.0, 0.1)],
     DomainError),
    # g through b = T with eps1 = eps2 = 0: the quadratics before it warn,
    # then the polynomial is constant (a uniform chain)
    ([TDotParams(1.0, 0.0, 0.0, g, 1.0, 0.0) for g in (0.5, 0.8, 1.0, 1.2)],
     NoResonance),
    # two cubics, then b^2 overflows, then an ordinary set
    ([TDotParams(b, 0.2, 0.1, 0.4, 1.0, 0.0) for b in (1.0, 1.0, 1e200)]
     + [FIG9_PARAMS], DomainError),
], ids=["g=0", "uniform-chain", "b=1e200"])
def test_batch_raises_where_one_set_at_a_time_raises(params, error):
    _, batch_error, batch_caught = _outcome(lambda: discrete_spectra(params))
    _, loop_error, loop_caught = _outcome(
        lambda: [discrete_spectrum(p) for p in params])
    assert type(batch_error) is type(loop_error) is error
    assert str(batch_error) == str(loop_error)
    assert batch_caught == loop_caught
    assert [cat for cat, _ in loop_caught] == [DegenerateLeadCoupling] * 2


def test_random_spectra_completeness_and_pairing():
    rng = np.random.default_rng(100)
    for _ in range(50):
        p, s = random_tdot_params(rng)
        assert s.completeness_defect() < 1e-8, p
        complex_states = [st for st in s.states
                          if st.state_class in (StateClass.RESONANT,
                                                StateClass.ANTI_RESONANT)]
        assert len(complex_states) % 2 == 0


# ---------------------------------------------------------------------------
# classification


def test_classify_fig9_values(fig9_spectrum):
    res = fig9_spectrum.resonant()
    assert classify(res.lam, res.energy) is StateClass.RESONANT
    assert classify(np.conj(res.lam), np.conj(res.energy)) is StateClass.ANTI_RESONANT


def test_classify_real_roots():
    lam = 0.3
    energy = -1.0 * (lam + 1.0 / lam)
    assert classify(lam, energy) is StateClass.BOUND
    assert classify(1.0 / lam, energy) is StateClass.ANTI_BOUND


def test_classify_band_edge_raises():
    with pytest.raises(Unclassifiable):
        classify(1.0 + 5e-10, -2.0)


# ---------------------------------------------------------------------------
# exceptional point


def test_ep_locate_bracket_and_structure():
    star = ep_locate(FIG9_PARAMS, -3.0, 0.0)
    assert -3.0 < star < 0.0
    # discriminant flips sign across the EP
    left = ep_discriminant(TDotParams(1.0, star - 1e-6, 0.0, 0.4, 1.0, 1.0))
    right = ep_discriminant(TDotParams(1.0, star + 1e-6, 0.0, 0.4, 1.0, 1.0))
    assert np.sign(left) != np.sign(right)
    # class composition flips from two anti-bound to a resonant pair
    s_left = discrete_spectrum(TDotParams(1.0, star - 0.01, 0.0, 0.4, 1.0, 1.0))
    s_right = discrete_spectrum(TDotParams(1.0, star + 0.01, 0.0, 0.4, 1.0, 1.0))
    assert len(s_left.by_class(StateClass.ANTI_BOUND)) == 2
    assert len(s_left.by_class(StateClass.BOUND)) == 2
    assert len(s_right.by_class(StateClass.RESONANT)) == 1
    assert len(s_right.by_class(StateClass.ANTI_RESONANT)) == 1


def test_ep_root_collision_within_tolerance():
    star = ep_locate(FIG9_PARAMS, -3.0, 0.0)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = discrete_spectrum(TDotParams(1.0, star, 0.0, 0.4, 1.0, 1.0))
    lams = [st.lam for st in s.states]
    dmin = min(abs(lams[i] - lams[j])
               for i in range(len(lams)) for j in range(i + 1, len(lams)))
    assert dmin < 1e-4


def test_ep_is_at_the_near_degenerate_reference_point():
    # the ratio study's "near an exceptional point" parameter value
    star = ep_locate(FIG9_PARAMS, -3.0, 0.0)
    assert abs(star - (-2.347528)) < 1e-5


def test_ep_discriminant_matches_root_product():
    rng = np.random.default_rng(17)
    from resdyn.kernel import poly_roots
    for _ in range(10):
        p, _s = random_tdot_params(rng)
        coeffs = p4_coefficients(p)
        roots = poly_roots(coeffs)
        prod = np.prod([(roots[i] - roots[j]) ** 2
                        for i in range(4) for j in range(i + 1, 4)])
        from_roots = (coeffs[4] ** 6 * prod).real
        disc = ep_discriminant(p)
        assert abs(disc - from_roots) < 1e-6 * max(1.0, abs(disc))


def test_ep_no_sign_change_raises():
    with pytest.raises(NoSignChange):
        ep_locate(FIG9_PARAMS, -0.5, 0.0)  # both ends right of the EP


@pytest.mark.parametrize("params", [
    TDotParams(1e200, 0.2, 0.0, 0.4, 1.0, 1.0),  # nan coefficients
    TDotParams(1.0, 0.2, 1e100, 0.4, 1.0, 1.0),  # a power overflows
], ids=["b=1e200", "eps2=1e100"])
def test_ep_locate_rejects_a_discriminant_outside_the_float_range(params):
    with pytest.raises(DomainError, match="discriminant"):
        ep_locate(params, -3.0, 0.0)



# ---------------------------------------------------------------------------
# the root solve across the domain, quartic-to-cubic degeneracy included

def _backward_errors(coeffs, lams):
    """|P(lam)| / sum_k |c_k| |lam|^k by plain Horner."""
    out = []
    for lam in lams:
        num = den = 0.0
        for c in reversed(coeffs):
            num = num * lam + c
            den = den * abs(lam) + abs(c)
        out.append(abs(num) / den)
    return out


def _quartic_of(spectrum):
    # the coefficients that survive the spectrum's degree drop
    return p4_coefficients(spectrum.params)[:len(spectrum.states) + 1]


def _near_lead_degeneracy(b, delta, angle, eps1, eps2, g):
    """Parameters with lead coupling T = b(1 + delta)."""
    r = np.sqrt(b * b * (1.0 + delta))
    return TDotParams(b, eps1, eps2, g, r * np.cos(angle), r * np.sin(angle))


_NEAR_T_EQUALS_B = st.builds(
    _near_lead_degeneracy,
    st.floats(0.5, 2.0),
    st.builds(lambda sign, x: sign * 10.0 ** x,
              st.sampled_from((-1.0, 1.0)), st.floats(-12.0, -2.0)),
    st.floats(0.1, np.pi / 2 - 0.1),
    st.floats(-3.0, 3.0), st.floats(-1.5, 1.5), st.floats(0.15, 1.2))
_GENERIC_BOX = st.builds(
    TDotParams, st.just(1.0), st.floats(-3.0, 3.0), st.floats(-1.5, 1.5),
    st.floats(0.15, 1.2), st.floats(0.3, 1.4), st.floats(0.3, 1.4))


@given(st.one_of(_NEAR_T_EQUALS_B, _GENERIC_BOX))
# generic draws with T within 1.3% of b that an Aberth solve gave up on
@example(TDotParams(1.0, 1.25647409428993, -0.565023886643079,
                    0.522372443335455, 0.417504673375354, 0.9158850660824451))
@example(TDotParams(1.0, 1.5106104923107715, 0.9035456824467785,
                    0.2715906283706809, 0.7397139532518964, 0.6899239019843206))
@example(TDotParams(1.0, -0.4339297966245339, -0.8164524245826343,
                    1.0645380568627532, 0.740203440278933, 0.6611505672772962))
# 1e-9 below the fig9 EP, on the anti-bound side, where residues from the
# expanded f' lost digits
@example(TDotParams(1.0, -2.3475280645757373, 0.0, 0.4, 1.0, 1.0))
def test_spectrum_exists_across_the_domain(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = discrete_spectrum(params)
    lams = [state.lam for state in s.states]
    assert max(_backward_errors(_quartic_of(s), lams)) <= 1e-10
    for state in s.states:
        energy = -params.b * (state.lam + 1.0 / state.lam)
        assert abs(state.energy - energy) <= 1e-12 * max(1.0, abs(energy))
    assert s.completeness_defect() <= 1e-8
    for lam in lams:
        assert lam.imag == 0 or lam.conjugate() in lams


_FIG9_EPS1 = (0.2, 0.0, -1.0, -2.0, -4.0)  # fig5/6/9, and fig2's sweep
_DELTAS = (1e-3, -1e-6, 1e-9)


@pytest.mark.parametrize("params", [
    TDotParams(1.0, eps1, 0.0, 0.4, 1.0, 1.0) for eps1 in _FIG9_EPS1
] + [_near_lead_degeneracy(1.0, d, np.pi / 4, 0.2, 0.3, 0.4) for d in _DELTAS])
def test_roots_match_fifty_digit_polyroots(params):
    s = discrete_spectrum(params)
    coeffs = _quartic_of(s)
    with mpmath.workdps(50):
        ref = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                               maxsteps=200, extraprec=200)
        ref = [complex(r) for r in ref]
    assert len(ref) == len(s.states)
    for state in s.states:
        err = min(abs(state.lam - r) for r in ref)
        assert err <= 1e-15 * max(1.0, abs(state.lam)), (state.lam, err)
