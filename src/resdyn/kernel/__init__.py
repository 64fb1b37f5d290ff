"""Numeric kernel: real-polynomial roots (stacked companion matrices,
Newton polish, backward-error gate), adaptive quadrature, special functions
(Faddeeva on numpy alone)."""

from .quadrature import (
    QuadratureResult,
    adaptive_quad,
    piecewise_quad,
)
from .roots import accept_roots, batch_roots, poly_roots
from .specfun import bessel_j1, erfc_complex, faddeeva, upper_gamma_mhalf

__all__ = [
    "QuadratureResult",
    "accept_roots",
    "adaptive_quad",
    "batch_roots",
    "bessel_j1",
    "erfc_complex",
    "faddeeva",
    "piecewise_quad",
    "poly_roots",
    "upper_gamma_mhalf",
]
