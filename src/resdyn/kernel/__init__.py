"""Numeric kernel: polynomial roots, adaptive quadrature, special functions."""

from .quadrature import (
    QuadratureResult,
    adaptive_quad,
    piecewise_quad,
)
from .roots import Polynomial, poly_roots
from .specfun import bessel_j1, erfc_complex, sqrt_poscut, upper_gamma_mhalf

__all__ = [
    "Polynomial",
    "QuadratureResult",
    "adaptive_quad",
    "bessel_j1",
    "erfc_complex",
    "piecewise_quad",
    "poly_roots",
    "sqrt_poscut",
    "upper_gamma_mhalf",
]
