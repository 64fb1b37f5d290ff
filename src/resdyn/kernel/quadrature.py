"""Adaptive Gauss-Kronrod (G7/K15) integration for complex-valued integrands.

Integrands must be vectorized: they receive a float ndarray of abscissae and
return an ndarray of complex values, one per abscissa, or one row of m
values per abscissa for a vector-valued integrand (cf. QUADPACK, Piessens
et al. 1983, and ``scipy.integrate.quad_vec``).  Node placement never
touches interval endpoints, so integrable endpoint singularities are
tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    A vector-valued integrand (one returning an ``(n_nodes, m)`` array) gets
    length-m value and error arrays, one entry per column.  ``evaluations``
    counts abscissae, whatever m is.
    """

    value: complex
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if np.any(np.asarray(self.abs_error_estimate) < 0) or self.evaluations < 1:
            raise DomainError("malformed quadrature result")


def _gk15_batch(f, lo, hi):
    """G7/K15 on a batch of panels with one integrand call.

    Returns (values, errors) arrays of shape (n_panels,), or (m, n_panels)
    when ``f`` returns one row of m values per abscissa; errors follow the
    QUADPACK rescaling, which is conservative on smooth integrands.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    width = hi - lo
    half = 0.5 * width
    abs_half = np.abs(half)
    x = ((0.5 * (hi + lo))[:, None] + half[:, None] * _NODES).ravel()
    fx = np.asarray(f(x), dtype=complex)
    # panels x nodes, with one leading row of panels per column of a vector
    # integrand: each panel's 15 nodes stay contiguous, so every column is
    # summed exactly as the same scalar integrand would be
    fx = (fx.reshape(len(lo), 15) if fx.ndim == 1
          else fx.T.reshape(-1, len(lo), 15))
    # elementwise products, not `@`: these small BLAS calls keep the BLAS
    # thread pool spinning, costing CPU time for no measurable wall time
    add = np.add.reduce
    resk = half * add(fx * _WK, axis=-1)
    resg = half * add(fx * _WG_FULL, axis=-1)
    resabs = abs_half * add(np.abs(fx) * _WK, axis=-1)
    mean = resk / width
    resasc = abs_half * add(np.abs(fx - mean[..., None]) * _WK, axis=-1)
    err = np.abs(resk - resg)
    rescale = (resasc > 0.0) & (err > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(rescale,
                       resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5),
                       err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err


def _grown(a, cap):
    """``a`` copied into a buffer of ``cap`` entries along its last axis."""
    out = np.empty(a.shape[:-1] + (cap,), dtype=a.dtype)
    out[..., :a.shape[-1]] = a
    return out


def _refine(f, pts, abs_tol, rel_tol, max_subdivisions):
    """Global-error-driven refinement seeded with the given panel edges.

    Column j of a vector integrand is done once its summed error is at most
    max(abs_tol, rel_tol*|value_j|).  Each round splits the largest-error
    panel of every column not yet done, each panel once, so a scalar
    integrand is refined one panel at a time: largest error first, ties to
    the oldest panel.  ``max_subdivisions`` bounds the number of rounds.
    """
    first_values, first_errors = _gk15_batch(f, pts[:-1], pts[1:])
    scalar = first_values.ndim == 1
    n = len(pts) - 1
    lo, hi = pts[:-1].tolist(), pts[1:].tolist()
    # one row per column; a split panel's error becomes -inf
    values = _grown(first_values.reshape(-1, n), 2 * n + 64)
    live = _grown(first_errors.reshape(-1, n), 2 * n + 64)
    n_eval = 15 * n
    total_value = values[:, :n].sum(axis=1)
    total_err = live[:, :n].sum(axis=1)
    rounds = 0

    def result():
        if scalar:
            return QuadratureResult(complex(total_value[0]),
                                    float(total_err[0]), n_eval)
        return QuadratureResult(total_value.copy(), total_err.copy(), n_eval)

    while True:
        failing = total_err > np.maximum(abs_tol, rel_tol * np.abs(total_value))
        worst = live[failing, :n].argmax(axis=1)
        if not len(worst):
            break
        if rounds >= max_subdivisions:
            raise ToleranceNotMet(
                f"error estimate {total_err[failing].max():.3e} above "
                f"tolerance after {rounds} subdivisions", result=result())
        if len(worst) > 1:
            # distinct, ascending (np.unique imports numpy.ma on first use)
            worst = np.flatnonzero(np.bincount(worst))
        split = worst.tolist()
        mids = [0.5 * (lo[i] + hi[i]) for i in split]
        for i, sm in zip(split, mids):
            tiny = abs(sm) * _EPS * 4
            if sm - lo[i] <= tiny or hi[i] - sm <= tiny:
                raise MaxSubdivisions("subinterval reached machine width",
                                      result=result())
        # left halves, then right halves, each in split order
        new_lo = [lo[i] for i in split] + mids
        new_hi = mids + [hi[i] for i in split]
        k = len(split)
        v, e = _gk15_batch(f, new_lo, new_hi)
        n_eval += 30 * k
        total_value += np.add.reduce(v[..., :k] + v[..., k:] - values[:, worst],
                                     axis=1)
        total_err += np.add.reduce(e[..., :k] + e[..., k:] - live[:, worst],
                                   axis=1)
        live[:, worst] = -np.inf
        end = n + 2 * k
        if end > values.shape[1]:
            values, live = (_grown(a[:, :n], 2 * end) for a in (values, live))
        values[:, n:end], live[:, n:end] = v, e
        lo += new_lo
        hi += new_hi
        n = end
        rounds += 1
    return result()


def adaptive_quad(f, a, b, abs_tol=1e-10, rel_tol=1e-8,
                  max_subdivisions=4000):
    """Integrate ``f`` over [a, b] to max(abs_tol, rel_tol*|value|).

    Returns a QuadratureResult; raises ToleranceNotMet or MaxSubdivisions
    (both carrying the best result so far) when refinement stalls.
    """
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise DomainError("need finite a < b")
    if not (0 < abs_tol < np.inf and 0 < rel_tol < np.inf):
        raise DomainError("tolerances must be positive and finite")
    return _refine(f, np.array([a, b]), abs_tol, rel_tol, max_subdivisions)


def piecewise_quad(f, breakpoints, abs_tol=1e-10, rel_tol=1e-8,
                   max_subdivisions=4000):
    """adaptive_quad seeded with caller-chosen panel edges.

    All first-pass panels are evaluated in a single vectorized integrand
    call; refinement then drives the summed error below
    max(abs_tol, rel_tol*|total|), so oscillatory cancellation between
    panels is accounted for globally.  A vector-valued ``f`` is refined
    until every column meets that bound for its own total.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or len(pts) < 2 or np.any(np.diff(pts) <= 0):
        raise DomainError("breakpoints must be strictly increasing, len >= 2")
    if not (np.isfinite(pts[0]) and np.isfinite(pts[-1])):
        raise DomainError("breakpoints must be finite")
    if not (0 < abs_tol < np.inf and 0 < rel_tol < np.inf):
        raise DomainError("tolerances must be positive and finite")
    return _refine(f, pts, abs_tol, rel_tol, max_subdivisions)

