"""Discrete spectra and survival-amplitude dynamics of open quantum systems.

Two models are implemented end to end: a T-shaped quantum dot on a
tight-binding chain and the Friedrichs model of a level coupled to a
half-line continuum.  Both expose their discrete spectrum (bound,
anti-bound, resonant and anti-resonant states), a per-eigenstate
decomposition of the survival amplitude that makes the dynamical breaking
of resonance-antiresonance symmetry explicit, and a brute-force lattice
propagator that ground-truths everything.
"""

from .friedrichs import (
    FriedrichsParams,
    FriedrichsPoles,
    Pole,
    a_component,
    a_component_asymptotic,
    a_cut_direct,
    friedrichs_poles,
    green_function,
    survival_total,
)
from .lattice import (
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
from .oracle import PropagationResult, TruncatedLattice, build_hamiltonian, propagate

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
    "a_cut_direct",
    "amplitude_grid",
    "build_hamiltonian",
    "classify",
    "component_chi",
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
