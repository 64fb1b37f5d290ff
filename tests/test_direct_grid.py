"""Grid forms of the independent totals and the vector-valued kernel.

``survival_direct`` (the unit-circle contour) and ``a_cut_direct`` (the
Friedrichs branch cut) take a whole time grid and integrate each group of
times as one vector-valued quadrature; ``survival_total`` sums the poles on
the grid.  Their grid values must match one-time calls, and the kernel's
vector path must reproduce the scalar refinement exactly when it has one
column.
"""

import heapq
import json

import numpy as np
import pytest

from resdyn.cli import main
from resdyn.friedrichs import a_cut_direct, survival_total
from resdyn.kernel import piecewise_quad
from resdyn.kernel.quadrature import _gk15_batch
from resdyn.lattice import survival_direct

from conftest import FIG9_PARAMS, FIG11_PARAMS
from test_quadrature import CLOSED_FORMS

GRID_TOL = 1e-13
# scalar calls at every 4th grid time: on these grids that keeps t = 0 and
# every mirrored pair
STRIDE = 4


def _elementwise(fn, times):
    return np.array([fn(float(t)) for t in times])


@pytest.mark.parametrize("times", [
    np.linspace(-10.0, 10.0, 321),    # fig5: t = 0 and every mirror
    np.linspace(-4.0, 8.0, 481),      # fig9
    np.linspace(-1000.0, 1000.0, 41)[::-1],  # descending: any order works
    np.linspace(-12.0, -0.5, 24),     # negative only: no mirror on the grid
], ids=["fig5", "fig9", "pm1000", "negative"])
def test_survival_direct_grid_equals_scalar_calls(fig9_spectrum, times):
    def one(t):
        return survival_direct(FIG9_PARAMS, t, spectrum=fig9_spectrum)

    grid = survival_direct(FIG9_PARAMS, times, spectrum=fig9_spectrum)
    assert grid.shape == times.shape
    scalar = _elementwise(one, times[::STRIDE])
    assert np.max(np.abs(grid[::STRIDE] - scalar)) < GRID_TOL
    assert isinstance(one(times[0]), complex)


def test_a_cut_direct_grid_equals_scalar_calls(fig11_poles):
    times = np.linspace(-20.05, 39.95, 601)
    grid = a_cut_direct(FIG11_PARAMS, times, poles=fig11_poles)
    scalar = _elementwise(
        lambda t: a_cut_direct(FIG11_PARAMS, t, poles=fig11_poles),
        times[::STRIDE])
    assert np.max(np.abs(grid[::STRIDE] - scalar)) < GRID_TOL


def test_survival_total_grid_mixes_signs_and_zero(fig11_poles):
    times = np.array([-7.5, -3.0, -0.4, 0.0, 0.25, 0.4, 3.0, 9.0, 17.0])
    grid = survival_total(FIG11_PARAMS, times, poles=fig11_poles)
    scalar = _elementwise(
        lambda t: survival_total(FIG11_PARAMS, t, poles=fig11_poles), times)
    assert np.max(np.abs(grid - scalar)) < GRID_TOL
    assert abs(grid[3] - 1.0) < 1e-8


def _heap_refine(f, pts, abs_tol, rel_tol):
    """The one-panel-at-a-time, heap-ordered refinement the vector kernel
    must reproduce for a single column."""
    values, errors = _gk15_batch(f, pts[:-1], pts[1:])
    heap = [(-e, i, lo, hi, v, e) for i, (lo, hi, v, e)
            in enumerate(zip(pts[:-1], pts[1:], values, errors))]
    heapq.heapify(heap)
    seq = len(heap)
    value, err, n_eval = complex(values.sum()), float(errors.sum()), 15 * seq
    while err > max(abs_tol, rel_tol * abs(value)):
        _, _, sa, sb, sval, serr = heapq.heappop(heap)
        sm = 0.5 * (sa + sb)
        (v1, v2), (e1, e2) = _gk15_batch(f, np.array([sa, sm]),
                                         np.array([sm, sb]))
        n_eval += 30
        value += v1 + v2 - sval
        err += e1 + e2 - serr
        heapq.heappush(heap, (-e1, seq, sa, sm, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, sm, sb, v2, e2))
        seq += 2
    return value, err, n_eval


@pytest.mark.parametrize("tol", [(1e-10, 1e-9), (1e-13, 1e-12)])
def test_one_column_kernel_is_bit_identical_to_scalar(tol):
    for i, (f, a, b, _exact) in enumerate(CLOSED_FORMS):
        pts = np.linspace(a, b, 5)
        scalar = piecewise_quad(f, pts, abs_tol=tol[0], rel_tol=tol[1])
        column = piecewise_quad(lambda x: f(x)[:, None], pts,
                                abs_tol=tol[0], rel_tol=tol[1])
        reference = _heap_refine(f, pts, *tol)
        got = (scalar.value, scalar.abs_error_estimate, scalar.evaluations)
        assert got == reference, f"case {i}"
        assert (column.value[0], column.abs_error_estimate[0],
                column.evaluations) == got, f"case {i}"


def test_every_column_meets_its_own_gate():
    # an easy column of size ~1 and a hard, small one: a needle of width
    # 1e-3 scaled by 1e-6, so one gate on the summed columns would pass it
    # unrefined
    width = 1e-3

    def f(x):
        easy = np.cos(x)
        hard = 1e-6 * width / (width ** 2 + (x - 0.3) ** 2)
        return np.stack((easy, hard), axis=1).astype(complex)

    abs_tol, rel_tol = 1e-14, 1e-10
    res = piecewise_quad(f, np.array([0.0, 1.0]), abs_tol=abs_tol,
                         rel_tol=rel_tol)
    exact = np.array([np.sin(1.0),
                      1e-6 * (np.arctan(0.7 / width) + np.arctan(0.3 / width))])
    bound = np.maximum(abs_tol, rel_tol * np.abs(res.value))
    assert np.all(res.abs_error_estimate <= bound)
    assert np.all(np.abs(res.value - exact) <= bound)
    hard_alone = piecewise_quad(lambda x: f(x)[:, 1], np.array([0.0, 1.0]),
                                abs_tol=abs_tol, rel_tol=rel_tol)
    assert res.evaluations >= hard_alone.evaluations


# model -> (command, config); the Friedrichs cut is integrated only as the
# reference of oracle-check
FAILING_CONFIGS = {
    "survival": ("survival", """
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
t_min = -2.0
t_max = 2.0
n_points = 3

[tolerances]
abs_tol = 1e-300
rel_tol = 1e-300
"""),
    "friedrichs": ("oracle-check", """
[run]
schema_version = 1
model = friedrichs
command = oracle-check

[params]
omega1 = 1.0
beta = 0.5
g = 0.1

[time]
t_min = 0.5
t_max = 1.5
n_points = 3

[tolerances]
abs_tol = 1e-300
rel_tol = 1e-300
"""),
}


@pytest.mark.parametrize("model, series", [
    ("survival", "direct contour"), ("friedrichs", "Friedrichs cut main")])
def test_quadrature_failure_names_the_total(tmp_path, capsys, model, series):
    command, text = FAILING_CONFIGS[model]
    cfg = tmp_path / f"{model}.cfg"
    cfg.write_text(text)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("ToleranceNotMet", "MaxSubdivisions")
    assert series in err["message"]
    assert "t in [" in err["message"]
    assert "abs_tol 1e-300" in err["message"]
