import pytest
from hypothesis import settings

from resdyn.friedrichs import FriedrichsParams, friedrichs_poles
from resdyn.lattice import TDotParams, discrete_spectrum

FIG9_PARAMS = TDotParams(b=1.0, eps1=0.2, eps2=0.0, g=0.4, t2l=1.0, t2r=1.0)
FIG11_PARAMS = FriedrichsParams(omega1=1.0, beta=0.5, g=0.1)

# Fig. 9 caption values
E_R_REF = 0.199675 - 0.0803343j
LAM_R_REF = -0.103865 + 1.03599j
ABS_LAM_R_REF = 1.04118
# Fig. 11 caption values
FM_E_R_REF = 0.98 - 0.030j


@pytest.fixture(scope="session")
def fig9_spectrum():
    return discrete_spectrum(FIG9_PARAMS)


@pytest.fixture(scope="session")
def fig11_poles():
    return friedrichs_poles(FIG11_PARAMS)


def random_tdot_params(rng):
    """One random parameter draw with a clean (non-degenerate) spectrum."""
    while True:
        p = TDotParams(
            b=1.0,
            eps1=float(rng.uniform(-3.0, 3.0)),
            eps2=float(rng.uniform(-1.5, 1.5)),
            g=float(rng.uniform(0.15, 1.2)),
            t2l=float(rng.uniform(0.3, 1.4)),
            t2r=float(rng.uniform(0.3, 1.4)),
        )
        if abs(p.lead_coupling - p.b) < 0.05:
            continue
        try:
            s = discrete_spectrum(p)
        except Exception:
            continue
        lams = [st.lam for st in s.states]
        dmin = min(abs(lams[i] - lams[j])
                   for i in range(len(lams)) for j in range(i + 1, len(lams)))
        if dmin > 1e-3 and min(abs(abs(l) - 1.0) for l in lams) > 1e-3:
            return p, s


def assert_close(actual, expected, tol, label=""):
    err = abs(actual - expected)
    assert err <= tol, f"{label}: |{actual} - {expected}| = {err:.3e} > {tol:g}"


# deterministic property-based tests with a bounded cost in tier-1
settings.register_profile("resdyn", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("resdyn")
