"""Adaptive Gauss-Kronrod (G7/K15) integration for complex-valued integrands.

Integrands must be vectorized: they receive a float ndarray of abscissae and
return an ndarray of complex values.  Node placement never touches interval
endpoints, so integrable endpoint behavior is tolerated when the caller
declares it via ``open_interval``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError, MaxSubdivisions, ToleranceNotMet

# 15-point Kronrod nodes (positive half) and weights, with the embedded
# 7-point Gauss weights; standard QUADPACK values.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[-1:], _XGK[-2::-1]))
_WK = np.concatenate((_WGK[:-1], _WGK[-1:], _WGK[-2::-1]))
_WG_FULL = np.zeros(15)
_WG_FULL[1:-1:2] = np.concatenate((_WG[:-1], _WG[-1:], _WG[-2::-1]))

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureResult:
    """Value, conservative absolute-error estimate and evaluation count.

    ``panels`` holds the converged leaf panels as (lo, hi, value) arrays
    sorted by lo; their values add up to ``value`` up to rounding.
    """

    value: complex
    abs_error_estimate: float
    evaluations: int
    panels: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.abs_error_estimate < 0 or self.evaluations < 1:
            raise DomainError("malformed quadrature result")


def _gk15_batch(f, lo, hi):
    """G7/K15 on a batch of panels with one integrand call.

    Returns (values, errors) arrays; errors follow the QUADPACK rescaling,
    which is conservative on smooth integrands.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    fx = np.asarray(f(x), dtype=complex).reshape(len(lo), 15)
    # elementwise products, not `@`: these small BLAS calls keep the BLAS
    # thread pool spinning, costing CPU time for no measurable wall time
    resk = half * (fx * _WK).sum(axis=1)
    resg = half * (fx * _WG_FULL).sum(axis=1)
    resabs = np.abs(half) * (np.abs(fx) * _WK).sum(axis=1)
    mean = resk / (hi - lo)
    resasc = np.abs(half) * (np.abs(fx - mean[:, None]) * _WK).sum(axis=1)
    err = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(resasc > 0.0,
                          resasc * np.minimum(1.0, (200.0 * err
                                                    / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
                          err)
    err = np.where((resasc > 0.0) & (err > 0.0), scaled, err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err


def _refine(f, pts, abs_tol, rel_tol, max_subdivisions):
    """Global-error-driven refinement seeded with the given panel edges."""
    values, errors = _gk15_batch(f, pts[:-1], pts[1:])
    n_eval = 15 * (len(pts) - 1)
    heap = []
    seq = 0
    for lo, hi, v, e in zip(pts[:-1], pts[1:], values, errors):
        heapq.heappush(heap, (-e, seq, lo, hi, v, e))
        seq += 1
    total_value = complex(values.sum())
    total_err = float(errors.sum())
    splits = 0

    while total_err > max(abs_tol, rel_tol * abs(total_value)):
        if splits >= max_subdivisions:
            raise ToleranceNotMet(
                f"error estimate {total_err:.3e} above tolerance after "
                f"{splits} subdivisions",
                result=QuadratureResult(total_value, total_err, n_eval),
            )
        _, _, sa, sb, sval, serr = heapq.heappop(heap)
        sm = 0.5 * (sa + sb)
        if sm - sa <= abs(sm) * _EPS * 4 or sb - sm <= abs(sm) * _EPS * 4:
            raise MaxSubdivisions(
                "subinterval reached machine width",
                result=QuadratureResult(total_value, total_err, n_eval),
            )
        (v1, v2), (e1, e2) = _gk15_batch(f, np.array([sa, sm]),
                                         np.array([sm, sb]))
        n_eval += 30
        total_value += v1 + v2 - sval
        total_err += e1 + e2 - serr
        heapq.heappush(heap, (-e1, seq, sa, sm, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, sm, sb, v2, e2))
        seq += 2
        splits += 1

    heap.sort(key=lambda leaf: leaf[2])
    panels = tuple(np.array(col) for col in zip(*(leaf[2:5] for leaf in heap)))
    return QuadratureResult(total_value, total_err, n_eval, panels)


def adaptive_quad(f, a, b, abs_tol=1e-10, rel_tol=1e-8,
                  max_subdivisions=4000, open_interval=False):
    """Integrate ``f`` over [a, b] to max(abs_tol, rel_tol*|value|).

    Returns a QuadratureResult; raises ToleranceNotMet or MaxSubdivisions
    (both carrying the best result so far) when refinement stalls.
    ``open_interval`` documents that f may be singular-but-integrable at the
    endpoints; nodes are interior either way.
    """
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise DomainError("need finite a < b")
    if abs_tol <= 0 or rel_tol <= 0:
        raise DomainError("tolerances must be positive")
    return _refine(f, np.array([a, b]), abs_tol, rel_tol, max_subdivisions)


def piecewise_quad(f, breakpoints, abs_tol=1e-10, rel_tol=1e-8,
                   max_subdivisions=4000):
    """adaptive_quad seeded with caller-chosen panel edges.

    All first-pass panels are evaluated in a single vectorized integrand
    call; refinement then drives the summed error below
    max(abs_tol, rel_tol*|total|), so oscillatory cancellation between
    panels is accounted for globally.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or len(pts) < 2 or np.any(np.diff(pts) <= 0):
        raise DomainError("breakpoints must be strictly increasing, len >= 2")
    if not (np.isfinite(pts[0]) and np.isfinite(pts[-1])):
        raise DomainError("breakpoints must be finite")
    if abs_tol <= 0 or rel_tol <= 0:
        raise DomainError("tolerances must be positive")
    return _refine(f, pts, abs_tol, rel_tol, max_subdivisions)


def breakpoints_with_period(a, b, period, extra=()):
    """Panel edges for [a, b]: multiples of ``period`` plus caller extras."""
    if not (b > a) or period <= 0:
        raise DomainError("need b > a and period > 0")
    k_lo = int(np.ceil(a / period))
    k_hi = int(np.floor(b / period))
    pts = {a, b}
    pts.update(k * period for k in range(k_lo, k_hi + 1))
    pts.update(p for p in extra if a < p < b)
    out = np.array(sorted(pts))
    keep = np.concatenate(([True], np.diff(out) > 1e-14 * max(abs(a), abs(b), 1.0)))
    return out[keep]
