"""Discrete spectra and survival-amplitude dynamics of open quantum systems.

Two models are implemented end to end: a T-shaped quantum dot on a
tight-binding chain and the Friedrichs model of a level coupled to a
half-line continuum.  Both expose their discrete spectrum (bound,
anti-bound, resonant and anti-resonant states), a per-eigenstate
decomposition of the survival amplitude that makes the dynamical breaking
of resonance-antiresonance symmetry explicit, and a brute-force lattice
propagator that ground-truths everything.
"""

import os
import sys

# Every BLAS call of the package is tiny (4x4 companion eigenvalues), so an
# OpenBLAS thread pool buys nothing; its worker only spins, about 0.13 s of
# CPU right after numpy loads, which lands inside the first commands of a
# short-lived process.  When resdyn is the one to load numpy, the pool
# defaults to one thread; a value already in the environment wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .friedrichs import (  # noqa: E402
    FriedrichsParams,
    FriedrichsPoles,
    Pole,
    a_component,
    a_component_asymptotic,
    a_components,
    a_cut_direct,
    friedrichs_poles,
    green_function,
    survival_total,
)
from .lattice import (  # noqa: E402
    DiscreteState,
    Spectrum,
    StateClass,
    TDotParams,
    ThetaState,
    Tolerances,
    ZenoReport,
    amplitude_grid,
    classify,
    component_chi,
    discrete_spectra,
    discrete_spectrum,
    ep_locate,
    f_lambda,
    h_lambda,
    isolated_residue_amplitude,
    longtime_asymptotic,
    longtime_ratio,
    ratio_r,
    short_time_resonant_prob,
    survival_direct,
    theta_amplitude,
    theta_weights,
    zeno_time,
)
from .oracle import (  # noqa: E402
    PropagationResult,
    TruncatedLattice,
    build_hamiltonian,
    propagate,
)

__all__ = [
    "DiscreteState",
    "FriedrichsParams",
    "FriedrichsPoles",
    "Pole",
    "PropagationResult",
    "Spectrum",
    "StateClass",
    "TDotParams",
    "ThetaState",
    "Tolerances",
    "TruncatedLattice",
    "ZenoReport",
    "a_component",
    "a_component_asymptotic",
    "a_components",
    "a_cut_direct",
    "amplitude_grid",
    "build_hamiltonian",
    "classify",
    "component_chi",
    "discrete_spectra",
    "discrete_spectrum",
    "ep_locate",
    "f_lambda",
    "friedrichs_poles",
    "green_function",
    "h_lambda",
    "isolated_residue_amplitude",
    "longtime_asymptotic",
    "longtime_ratio",
    "propagate",
    "ratio_r",
    "short_time_resonant_prob",
    "survival_direct",
    "survival_total",
    "theta_amplitude",
    "theta_weights",
    "zeno_time",
]

__version__ = "0.1.0"
