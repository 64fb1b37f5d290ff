"""Numeric kernel: real-polynomial roots (numpy companion matrix, Newton
polish, backward-error gate), adaptive quadrature, special functions
(Faddeeva on numpy alone)."""

from .quadrature import (
    QuadratureResult,
    adaptive_quad,
    piecewise_quad,
)
from .roots import poly_roots
from .specfun import bessel_j1, erfc_complex, faddeeva, upper_gamma_mhalf

__all__ = [
    "QuadratureResult",
    "adaptive_quad",
    "bessel_j1",
    "erfc_complex",
    "faddeeva",
    "piecewise_quad",
    "poly_roots",
    "upper_gamma_mhalf",
]
