"""Exception and warning types shared across the package."""

from __future__ import annotations


class ResdynError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ResdynError):
    """Input lies outside the mathematical domain of the operation."""


class NonConvergence(ResdynError):
    """Iterative solver exhausted its iteration budget.

    Carries the best iterate and its residual so callers can decide
    whether the partial answer is still usable.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class QuadratureError(ResdynError):
    """Base for adaptive-integration failures; carries the best result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ToleranceNotMet(QuadratureError):
    """Subdivision budget exhausted before the error estimate met tolerance."""


class MaxSubdivisions(QuadratureError):
    """Subintervals shrank to machine width; further refinement is pointless."""


class Unclassifiable(ResdynError):
    """Eigenvalue sits on the unit circle within tolerance (band-edge degeneracy)."""


class NoResonance(ResdynError):
    """Operation requires a resonant state but the spectrum has none."""


class Underflow(ResdynError):
    """Computed amplitudes left the floating-point range (a non-finite value)."""


class NoSignChange(ResdynError):
    """Bisection bracket does not straddle a sign change."""


class PoleProximity(ResdynError):
    """Evaluation point is too close to a pole for a meaningful value."""


class ConfigError(ResdynError):
    """Run configuration is missing, malformed, or inconsistent."""


class ResdynWarning(UserWarning):
    """Base class for non-fatal diagnostics."""


class NearDegenerateSpectrum(ResdynWarning):
    """Two discrete eigenvalues nearly coincide (exceptional-point vicinity)."""


class DegenerateLeadCoupling(ResdynWarning):
    """Lead coupling lowers the quartic's degree, so fewer than 4 states."""


class AssumptionViolated(ResdynWarning):
    """A formula's validity assumption does not hold for these inputs."""


class ValidityWarning(ResdynWarning):
    """Asymptotic formula evaluated outside its recommended range."""


class ReflectionContamination(ResdynWarning):
    """Requested times exceed the reflection-free horizon of the truncated lattice."""
