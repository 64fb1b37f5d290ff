"""Independent reference computations the tests check production code against.

Everything here deliberately avoids the code paths it verifies: the series
oracle sums the defining power series term by term, the Bessel transforms
integrate scipy's J1 with scipy's quad, the contour oracles
quadrature the defining integrals directly, the root tracker continues
an eigenvalue branch step by step instead of using the closed forms, the
Friedrichs branch search picks the erfc square-root branches by comparison
with the defining integral, evaluating its candidates with scipy's wofz,
instead of the derived rule, the Friedrichs pole sum is redone at 40 or
more digits with mpmath's roots and erfc and a bisected bound state, the
truncated-lattice amplitudes come from scipy's expm_multiply instead of a
Chebyshev expansion (and, to pin the light cone bit for bit, from the
Chebyshev recurrence over the whole chain), and the polynomial roots are found one polynomial at a
time with numpy.polynomial instead of in a stacked batch.
"""

import math

import mpmath as mp
import numpy as np
from numpy.polynomial.polynomial import polyder, polyroots, polyval
from scipy import integrate, sparse, special
from scipy.sparse.linalg import expm_multiply

from resdyn.kernel import piecewise_quad
from resdyn.lattice import f_lambda, h_lambda
from resdyn.oracle import _chebyshev_order, _coefficients


def polished_roots(coefficients):
    """The roots of one real polynomial: numpy's polyroots, then two Newton
    steps with polyval, each kept where it lowers |p|; sorted by (Re, Im)."""
    c = np.asarray(coefficients, dtype=float)
    dc = polyder(c)
    z = polyroots(c).astype(complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            trial = z - polyval(z, c) / polyval(z, dc)
            better = np.abs(polyval(trial, c)) < np.abs(polyval(z, c))
            z = np.where(better, trial, z)
    return z[np.lexsort((z.imag, z.real))]


def j1_power_series(x, terms=80):
    """Sum_m (-1)^m (x/2)^{2m+1} / (m! (m+1)!), summed directly."""
    half = 0.5 * x
    total = 0.0
    term = half
    for m in range(terms):
        total += term
        term = -term * half * half / ((m + 1) * (m + 2))
    return total


def j1_over_t(b, t):
    """J1(2bt)/t at a scalar t from scipy's J1, with its limit b at t = 0."""
    return b if t == 0.0 else special.j1(2.0 * b * t) / t


def cquad(f, lo, hi):
    """integral_lo^hi of a complex scalar function by scipy's quad, the real
    and imaginary parts apart (hi may be inf)."""
    def part(fn):
        return integrate.quad(lambda u: fn(f(u)), lo, hi, limit=4000,
                              epsabs=1e-14, epsrel=1e-12)[0]
    return part(np.real) + 1j * part(np.imag)


def j1_transform(b, energy):
    """integral_0^inf e^{-iEt} J1(2bt)/t dt by scipy's quad and J1.

    For Im E < 0 the real axis is cut where the envelope e^{Im E t} is
    below 1e-12 e^-8.  For real E outside the band [-2b, 2b] the real axis
    runs to T = 150/b and the rest is the ray from T into the half-plane
    where e^{-iEt} J1(2bt) decays as e^{-(|E| - 2b)|Im t|} (up for E < -2b,
    down for E > 2b), with J1 of complex argument from the scaled ``jve``.
    """
    energy = complex(energy)

    def real_axis(u):
        return np.exp(-1j * energy * u) * j1_over_t(b, u)

    if energy.imag < 0:
        return cquad(real_axis, 0.0, (np.log(1e12) + 8.0) / -energy.imag)
    if abs(energy.imag) > 0 or abs(energy.real) <= 2.0 * b:
        raise ValueError("need Im E < 0, or a real E outside the band")
    t_far = 150.0 / b
    up = -np.sign(energy.real)

    def ray(y):
        z = t_far + 1j * up * y
        # jve(1, w) = J1(w) e^{-|Im w|}, and |Im 2bz| = 2by
        return (1j * up * special.jve(1, 2.0 * b * z)
                * np.exp(2.0 * b * y - 1j * energy.real * z) / z)

    return cquad(real_axis, 0.0, t_far) + cquad(ray, 0.0, np.inf)


def lattice_matrix(params, n):
    """The truncated tight-binding Hamiltonian with n sites per lead, as a
    sparse matrix on the sites [d1, d2, L_1..L_n, R_1..R_n]."""
    p = params
    dim = 2 + 2 * n
    lead = np.arange(n - 1)
    i = np.concatenate([[0, 1, 1], 2 + lead, 2 + n + lead])
    j = np.concatenate([[1, 2, 2 + n], 3 + lead, 3 + n + lead])
    hops = np.concatenate([[-p.g, -p.t2l, -p.t2r], np.full(2 * (n - 1), -p.b)])
    upper = sparse.coo_matrix((hops, (i, j)), shape=(dim, dim))
    onsite = np.zeros(dim)
    onsite[:2] = p.eps1, p.eps2
    return (sparse.diags(onsite) + upper + upper.T).tocsr()


def expm_rows(lattice, times):
    """<d1|e^{-iHt}|d1> and <d2|e^{-iHt}|d1> on a truncated lattice, one
    expm_multiply per time on the matrix of ``lattice_matrix``."""
    h = lattice_matrix(lattice.params, lattice.n_sites_per_lead).astype(complex)
    v = np.zeros(h.shape[0], dtype=complex)
    v[0] = 1.0
    rows = np.array([expm_multiply(-1j * t * h, v)[:2] for t in times])
    return rows[:, 0], rows[:, 1]


def full_chain_rows(lattice, times):
    """propagate's d1 and d2 rows with every Chebyshev step run over the
    whole chain [d1, d2, c_1 .. c_N] (min(N, order) + 3 entries) rather
    than over its light cone; the order and the coefficients are
    propagate's own, so the two agree bit for bit."""
    times = np.asarray(times, dtype=float)
    mags, inverse = np.unique(np.abs(times), return_inverse=True)
    p, n, scale = lattice.params, lattice.n_sites_per_lead, lattice.scale
    order = _chebyshev_order(scale * float(mags[-1]))
    coeff = _coefficients(scale * mags, order)

    e1, e2, g = p.eps1 / scale, p.eps2 / scale, -p.g / scale
    tau, hop = -math.hypot(p.t2l, p.t2r) / scale, -p.b / scale
    vecs = np.zeros((2, min(n, order) + 3))  # T_k|d1> lives in vecs[k % 2]
    vecs[0, 0], vecs[1, 0], vecs[1, 1] = 1.0, e1, g
    new = np.empty(vecs.shape[1] - 4)
    views = [(v[2:-2], v[4:], u[3:-1], v[:4], u[:3])
             for v, u in zip(vecs[::-1], vecs)]  # by parity of k
    rows = np.empty((2, order + 1))  # d1 and d2 entries of T_k(H~)|d1>
    rows[:, 0], rows[:, 1] = (1.0, 0.0), (e1, g)
    for k in range(2, order + 1):
        left, right, back, near, edge = views[k % 2]
        (x0, x1, x2, x3), (p0, p1, p2) = near.tolist(), edge.tolist()
        d1 = 2.0 * (e1 * x0 + g * x1) - p0
        d2 = 2.0 * (g * x0 + e2 * x1 + tau * x2) - p1
        np.add(left, right, out=new)
        new *= 2.0 * hop
        np.subtract(new, back, out=back)
        edge[0], edge[1], edge[2] = d1, d2, 2.0 * (tau * x1 + hop * x3) - p2
        rows[0, k], rows[1, k] = d1, d2

    real = np.einsum("tk,sk->ts", coeff[:, 0::2], rows[:, 0::2])
    imag = np.einsum("tk,sk->ts", coeff[:, 1::2], rows[:, 1::2])
    sign = np.where(times < 0, -1.0, 1.0)
    return tuple(real[inverse, i] + 1j * sign * imag[inverse, i]
                 for i in range(2))

def xin_circle_component(b, weight, lam_n, t, abs_tol=1e-12):
    """Clockwise unit-circle part of the defining component integral.

    For poles outside the unit circle (resonant/anti-resonant states) this
    is the whole component; bound states would add their pole residue.
    """
    def integrand(k):
        lam = np.exp(1j * k)
        return (-(1.0 - lam ** 2) * np.exp(2j * b * t * np.cos(k))
                * weight / (lam - lam_n)) / (2.0 * np.pi)

    n_panels = max(16, int(4 * b * abs(t)) + 1)
    pts = np.linspace(-np.pi, np.pi, n_panels + 1)
    return piecewise_quad(integrand, pts, abs_tol=abs_tol, rel_tol=1e-11).value


def residue_by_small_circle(params, lam_n, radius=1e-3, n_panels=8):
    """(1/2pi i) contour integral of the survival-amplitude integrand at
    t = 0 around one pole; equals the eigenstate dyad <d1|phi_n><phi_n~|d1>.
    """
    b, g = params.b, params.g

    def integrand(phi):
        lam = lam_n + radius * np.exp(1j * phi)
        vals = np.empty_like(lam)
        for i, l in enumerate(lam):
            vals[i] = (1.0 / l) * (-l + 1.0 / l) * b * g * g \
                / (h_lambda(params, l) * f_lambda(params, l))
        return radius * np.exp(1j * phi) * vals / (2.0 * np.pi)

    pts = np.linspace(0.0, 2.0 * np.pi, n_panels + 1)
    return piecewise_quad(integrand, pts, abs_tol=1e-13, rel_tol=1e-12).value


def inside_lambda_root(b, energy):
    """The root of b lam^2 + E lam + b = 0 with |lam| < 1."""
    disc = np.sqrt(energy * energy - 4.0 * b * b + 0j)
    r1 = (-energy + disc) / (2.0 * b)
    r2 = (-energy - disc) / (2.0 * b)
    return r1 if abs(r1) < abs(r2) else r2


def track_lambda_root(b, e_start, e_end, lam_start, n_steps=4000):
    """Continue a root of b lam^2 + E lam + b = 0 along a straight E path,
    picking the nearer branch at every step (crosses the band cut smoothly
    onto the second sheet)."""
    lam = lam_start
    for s in np.linspace(0.0, 1.0, n_steps + 1)[1:]:
        e = e_start + (e_end - e_start) * s
        disc = np.sqrt(e * e - 4.0 * b * b + 0j)
        cands = ((-e + disc) / (2.0 * b), (-e - disc) / (2.0 * b))
        lam = min(cands, key=lambda c: abs(c - lam))
    return lam


def band_integral_of_pole_kernel(b, energy, abs_tol=1e-12):
    """(b/pi) integral over the band of sin^2 k * i/(E - 2b cos k) dk;
    equals the convergent Bessel-integral transform for Im E > 0."""
    def integrand(k):
        return (b / np.pi) * np.sin(k) ** 2 * 1j / (energy - 2.0 * b * np.cos(k))

    pts = np.linspace(-np.pi, np.pi, 33)
    return piecewise_quad(integrand, pts, abs_tol=abs_tol, rel_tol=1e-11).value


def friedrichs_component_quad(params, energy, weight, t, tol):
    """weight * integral_0^inf sqrt(beta E) e^{-iEt} / (E - energy) dE, the
    defining single-pole cut integral, by quadrature (t != 0): the cut is
    turned by -phi sign(t) about E = 0 onto a ray on which e^{-iEt} decays,
    phi = pi/2 or pi/4, whichever lies farther in angle from the pole, and
    a pole inside the turn adds -+2 pi i weight sqrt(beta E) e^{-iEt}."""
    beta, t = params.beta, float(t)
    sign = 1.0 if t > 0 else -1.0
    phi = max((np.pi / 2, np.pi / 4),
              key=lambda a: abs(np.angle(energy * np.exp(1j * a * sign))))
    ray = np.exp(-1j * phi * sign)
    sigma2 = 1.0 / (abs(t) + 1.0 / max(abs(energy), beta))

    def integrand(x):
        r = x / (1.0 - x)
        e = sigma2 * r * r * ray
        de = 2.0 * sigma2 * r / (1.0 - x) ** 2 * ray
        return np.sqrt(beta * e) * np.exp(-1j * e * t) / (e - energy) * de

    value = piecewise_quad(integrand, [0.0, 1.0], abs_tol=tol.abs_tol,
                           rel_tol=tol.rel_tol).value
    if 0.0 < -sign * np.angle(energy) < phi:
        value -= (sign * 2j * np.pi * np.sqrt(beta * energy)
                  * np.exp(-1j * energy * t))
    return weight * value


def friedrichs_branch_value(beta, weight, energy, t, sa, sb):
    """The erfc closed form of one cut component with the sign pair
    (sa, sb), by scipy's wofz: w sqrt(beta) sqrt(pi/(it)) - i pi sqrt(beta)
    w sa sqrt(E) e^{-iEt} erfc(sb z), z = i sqrt(iEt), where
    e^{-iEt} erfc(sb z) = wofz(i sb z)."""
    z = 1j * np.sqrt(1j * energy * t)
    return (weight * np.sqrt(beta) * np.sqrt(np.pi / (1j * t))
            - 1j * np.pi * np.sqrt(beta) * weight * sa * np.sqrt(energy)
            * special.wofz(1j * sb * z))


def friedrichs_branch_search(params, energy, weight, t_sign, tol):
    """(sa, sb, mismatch): of the four erfc sign pairs of the closed form,
    the one closest to the defining integral at two small times of sign
    t_sign, with its worst relative mismatch there."""
    scale = max(abs(energy), params.beta)
    refs = {}
    best = None
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            worst = 0.0
            for tau in (0.31, 0.79):
                t = t_sign * tau / scale
                if t not in refs:
                    refs[t] = friedrichs_component_quad(params, energy, weight,
                                                        t, tol)
                ref = refs[t]
                val = friedrichs_branch_value(params.beta, weight, energy, t,
                                              sa, sb)
                worst = max(worst, abs(val - ref) / max(abs(ref), 1e-300))
            if best is None or worst < best[2]:
                best = (sa, sb, worst)
    return best


def friedrichs_total_mp(params, times, dps=None):
    """The Friedrichs survival amplitude as the sum over the cubic's roots,
    at ``dps`` digits: the quartic built from its definition and deflated
    by E = -beta, roots by ``mp.polyroots``, weights 2 g^2 / C'(E_n), and
    e^{-iEt} erfc(sb zeta) from ``mp.erfc``.  The bound state, which exists
    when omega1 < 2 pi g^2, is the zero of the first-sheet level-shift
    function eta_1 found by bisection, as eta_1 rises monotonically on
    E < 0, and its residue is 1/eta_1' from ``mp.diff``.

    The resonance pair is O(g^2) apart, and rounding the cubic's
    coefficients to dps digits moves it by 10^-dps / g^4 relative; so dps
    defaults to 40, raised by 4 per decade of g below 1e-4."""
    if dps is None:
        dps = max(40, 24 + 4 * round(-math.log10(abs(params.g))))
    with mp.workdps(dps):
        w1, beta, g = (mp.mpf(x) for x in (params.omega1, params.beta, params.g))
        tpg = 2 * mp.pi * g ** 2
        # N = E^2 + (beta - w1) E + beta (tpg - w1); Q = N^2 + tpg^2 beta E
        n = [mp.mpf(1), beta - w1, beta * (tpg - w1)]  # descending
        q = [n[0] ** 2, 2 * n[0] * n[1], n[1] ** 2 + 2 * n[0] * n[2],
             2 * n[1] * n[2] + tpg ** 2 * beta, n[2] ** 2]
        cubic = [q[0]]
        for k in range(1, 4):
            cubic.append(q[k] - beta * cubic[-1])
        roots = [mp.mpc(mp.re(r), 0) if abs(mp.im(r)) < mp.mpf(10) ** (5 - dps)
                 else mp.mpc(r)
                 for r in mp.polyroots(cubic, maxsteps=200, extraprec=2 * dps)]

        def eta_first(e):
            return e - w1 + tpg * beta / (beta + mp.sqrt(-beta * e))

        bound = []
        if w1 < tpg:
            # eta_1 < 0 at w1 - tpg, as beta/(beta + u) < 1 there
            lo, hi = w1 - tpg, mp.mpf(0)
            mid = (lo + hi) / 2
            while mid not in (lo, hi):
                if eta_first(mid) < 0:
                    lo = mid
                else:
                    hi = mid
                mid = (lo + hi) / 2
            bound.append((lo, 1 / mp.diff(eta_first, lo)))
        out = []
        for t in times:
            t = mp.mpf(float(t))
            total = sum((res * mp.exp(-1j * e * t) for e, res in bound),
                        mp.mpc(0))
            for i, r in enumerate(roots):
                cprime = mp.fprod(r - s for j, s in enumerate(roots) if j != i)
                root = mp.sqrt(r)
                sa = -1 if mp.im(root) > 0 else 1
                ts = 1 if t >= 0 else -1
                kappa = mp.re(mp.sqrt(1j * ts) * root / mp.sqrt(1j * r * ts))
                sb = sa if kappa > 0 else -sa
                zeta = 1j * mp.sqrt(1j * r * t)
                total += (-1j * mp.pi * mp.sqrt(beta) * (2 * g ** 2 / cprime)
                          * sa * root * mp.exp(-1j * r * t) * mp.erfc(sb * zeta))
            out.append(complex(total))
    return np.array(out)
