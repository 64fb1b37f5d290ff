import numpy as np
import pytest
from numpy.polynomial.polynomial import polyfromroots, polyval

from resdyn.cli import load_config, recipe_text
from resdyn.errors import NonConvergence
from resdyn.kernel.roots import (
    BACKWARD_TOL,
    backward_errors,
    batch_roots,
    poly_roots,
)
from resdyn.lattice import TDotParams, discrete_spectra, p4_coefficients

from conftest import FIG9_PARAMS, LAM_R_REF
from _oracles import polished_roots


def test_roots_of_unity():
    roots = poly_roots([-1, 0, 0, 0, 1])
    expected = sorted([1, -1, 1j, -1j], key=lambda z: (z.real, z.imag))
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-12


def test_fig9_quartic_contains_resonant_root():
    roots = poly_roots(p4_coefficients(FIG9_PARAMS))
    assert min(abs(r - LAM_R_REF) for r in roots) < 1e-4


def test_real_polynomials_with_conjugate_pairs():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n_pairs = int(rng.integers(0, 4))
        n_real = int(rng.integers(0 if n_pairs else 1, 7 - 2 * n_pairs))
        pairs = rng.uniform(-2, 2, n_pairs) + 1j * rng.uniform(0.1, 2, n_pairs)
        true = np.concatenate([rng.uniform(-2, 2, n_real), pairs, pairs.conj()])
        coeffs = rng.uniform(0.5, 2.0) * polyfromroots(true)
        assert np.all(np.abs(coeffs.imag) < 1e-12)
        got = poly_roots(coeffs.real)
        assert len(got) == len(true)
        for r in true:
            assert min(abs(r - g) for g in got) < 1e-8
        assert sum(1 for g in got if g.imag == 0) == n_real
        for g in got:
            assert g.conjugate() in got


def test_real_coefficients_give_exact_conjugate_pairs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        coeffs = rng.uniform(-3, 3, 5)
        coeffs[4] = coeffs[4] if abs(coeffs[4]) > 0.2 else 1.0
        roots = poly_roots(coeffs)
        complexes = [r for r in roots if r.imag != 0]
        assert len(complexes) % 2 == 0
        for r in complexes:
            assert any(g == np.conj(r) for g in complexes)


def test_residual_post_condition():
    coeffs = np.array(p4_coefficients(FIG9_PARAMS))
    roots = np.array(poly_roots(coeffs))
    scale = max(1.0, np.max(np.abs(coeffs)))
    assert np.all(np.abs(polyval(roots, coeffs)) / scale <= 1e-12)
    assert np.all(backward_errors(coeffs, roots) <= 1e-15)


def test_multiplicity_is_preserved():
    roots = poly_roots(polyfromroots([0.5, 0.5, -1.0]))
    assert len(roots) == 3
    assert sum(1 for r in roots if abs(r - 0.5) < 1e-5) == 2


def test_nonconvergence_carries_best_iterate(monkeypatch):
    # two Newton steps cannot recover roots that start 0.1 off
    true = np.array([10.1, -9.3, 8.7, -7.7, 6.9, -5.3])
    monkeypatch.setattr("resdyn.kernel.roots.companion_eigvals",
                        lambda c: (true + 0.1)[None].astype(complex))
    with pytest.raises(NonConvergence) as err:
        poly_roots(polyfromroots(true))
    assert len(err.value.best) == len(true)
    assert err.value.residual > BACKWARD_TOL


def _fig2_params():
    return list(load_config(recipe_text("fig2")).sweep_params)


def _box_params():
    # the general box of the T-dot domain
    rng = np.random.default_rng(7)
    return [TDotParams(1.0, *rng.uniform(-2.5, 2.5, 2), rng.uniform(0.05, 1.5),
                       *rng.uniform(-1.6, 1.6, 2)) for _ in range(400)]


@pytest.mark.parametrize("params", [_fig2_params(), _box_params()],
                         ids=["fig2", "box"])
def test_batch_gives_the_bits_of_one_polynomial_at_a_time(params):
    rows = [p4_coefficients(p) for p in params]
    roots, worst = batch_roots(rows)
    assert np.all(worst <= BACKWARD_TOL)
    for row, got in zip(rows, roots):
        assert got.tobytes() == polished_roots(row).tobytes()
    for spectrum, got in zip(discrete_spectra(params), roots):
        lams = np.array(sorted((s.lam for s in spectrum.states),
                               key=lambda z: (z.real, z.imag)))
        assert lams.tobytes() == got.tobytes()
