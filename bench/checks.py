"""Output checks, run outside the timed region.

Every check compares a CLI output against a computation made apart from
resdyn (a dense or sparse lattice Hamiltonian assembled here, the secular
equation written out here, Bessel integrals by scipy) or against a property
the method must have.  A failed check raises CheckFailed; it fails the run
and is never counted as a failed operation.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
from functools import lru_cache

import numpy as np
from scipy import integrate, sparse, special
from scipy.sparse.linalg import expm_multiply

# CSV cells carry 12 significant digits and the recipes ask quadrature for
# abs_tol 1e-10 per integral; the tolerances below leave room for both.
TOL_TOTAL = 1e-8     # printed A(t) against the exact truncated-lattice A(t)
TOL_SUM = 1e-8       # components summed against the printed total
TOL_SYMMETRY = 1e-9  # mirror identities between printed cells
TOL_ROUND = 1e-10    # one cell recomputed from other cells of its row
DENSE_SITES = 200    # sites per lead of the dense check lattice


class CheckFailed(Exception):
    """An output disagrees with its independent check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# input parsing


def read_config(text):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(text)
    return cp


def tdot_params(cp):
    return {k: cp.getfloat("params", k)
            for k in ("b", "eps1", "eps2", "g", "t2l", "t2r")}


def read_csv(text):
    """Header and rows of a CLI CSV; numbers as floats, others as str."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(len(rows) >= 2, "CSV has no data rows")
    header = rows[0]
    data = []
    for row in rows[1:]:
        _require(len(row) == len(header), f"ragged CSV row {row!r}")
        cells = []
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        data.append(cells)
    return header, data


def _groups(header, data, cp):
    """Split sweep output into (parameter value or None, columns) groups."""
    sweep = cp.get("sweep", "parameter", fallback=None)
    if sweep is None:
        return [(None, _columns(header, data))]
    _require(header[0] == sweep, f"first column {header[0]!r} is not {sweep!r}")
    values = sorted({row[0] for row in data})
    return [(v, _columns(header[1:], [r[1:] for r in data if r[0] == v]))
            for v in values]


def _columns(header, data):
    return {name: [row[i] for row in data] for i, name in enumerate(header)}


def _complex(cols, stem):
    return np.array(cols["re_" + stem]) + 1j * np.array(cols["im_" + stem])


def _mirror_pairs(times):
    """Index pairs (i, j) with t_j = -t_i > 0 on the grid."""
    index = {round(t, 9): i for i, t in enumerate(times)}
    return [(index[round(-t, 9)], i) for i, t in enumerate(times)
            if t > 0 and round(-t, 9) in index]


# ---------------------------------------------------------------------------
# T-shaped dot, computed apart from resdyn


def secular_polynomial(p):
    """lambda^2 f(lambda) in ascending coefficients.

    With lead wave functions c lambda^n the lead equations give E =
    -b(lambda + 1/lambda) and a self-energy lambda T on d2, T = (t2L^2 +
    t2R^2)/b; eliminating d2 leaves (E - eps1)(E - eps2 + lambda T) = g^2.
    Multiplied by lambda^2, with lambda E = -b(lambda^2 + 1):
    """
    poly = np.polynomial.Polynomial
    b, t = p["b"], (p["t2l"] ** 2 + p["t2r"] ** 2) / p["b"]
    lam_e = poly([-b, 0.0, -b])
    left = lam_e - poly([0.0, p["eps1"]])
    right = lam_e - poly([0.0, p["eps2"]]) + poly([0.0, 0.0, t])
    return left * right - poly([0.0, 0.0, p["g"] ** 2])


def resonant_pole(p):
    """(lambda_R, E_R): the one non-real root whose energy has Im E < 0."""
    roots = secular_polynomial(p).roots()
    cands = []
    for lam in roots:
        energy = -p["b"] * (lam + 1.0 / lam)
        if abs(lam.imag) > 1e-9 and energy.imag < 0:
            cands.append((lam, energy))
    _require(len(cands) == 1, f"expected one resonant root, got {len(cands)}")
    return cands[0]


@lru_cache(maxsize=4)
def _dense_eigensystem(params_key, n_sites):
    p = dict(params_key)
    dim = 2 + 2 * n_sites
    h = np.zeros((dim, dim))
    h[0, 0], h[1, 1] = p["eps1"], p["eps2"]
    h[0, 1] = h[1, 0] = -p["g"]
    left, right = 2, 2 + n_sites
    h[1, left] = h[left, 1] = -p["t2l"]
    h[1, right] = h[right, 1] = -p["t2r"]
    for start in (left, right):
        idx = np.arange(start, start + n_sites - 1)
        h[idx, idx + 1] = h[idx + 1, idx] = -p["b"]
    return np.linalg.eigh(h)


def exact_amplitude(p, times, theta=None):
    """<d1|e^{-iHt}|init> on a truncated lattice, from a dense eigh.

    Exact up to boundary reflections, which need |t| > N/(2b).
    """
    energies, vecs = _dense_eigensystem(tuple(sorted(p.items())), DENSE_SITES)
    horizon = DENSE_SITES / (2.0 * p["b"])
    _require(np.max(np.abs(times)) < 0.5 * horizon,
             "time grid too long for the dense check lattice")
    if theta is None:
        overlap = vecs[0] * vecs[0]
    else:
        init = (vecs[0] + np.exp(1j * theta) * vecs[1]) / np.sqrt(2.0)
        overlap = vecs[0] * init
    return np.exp(-1j * np.outer(times, energies)) @ overlap


def _j1_over_t(b, tp):
    return b if tp == 0.0 else special.j1(2.0 * b * tp) / tp


def _bessel_integral(b, energy, t):
    """integral_0^t e^{i E t'} J1(2 b t')/t' dt' by scipy quad."""
    def part(fn):
        return integrate.quad(lambda s: fn(np.exp(1j * energy * s))
                              * _j1_over_t(b, s), 0.0, t, limit=2000,
                              epsabs=1e-13, epsrel=1e-11)[0]
    return part(np.real) + 1j * part(np.imag)


def reference_ratio(p, t):
    """r(t) = |chi_R(t)/chi_R(-t)|^2 from the defining Bessel integrals.

    chi_R(t) = w e^{-iEt} [1/lambda - i I(t)] with I(t) = int_0^t e^{iEt'}
    J1(2bt')/t' dt'.  For -t the bracket cancels to i times the tail
    int_t^inf e^{-iEt'} J1(2bt')/t' dt', which is the Laplace transform
    (sqrt(s^2 + a^2) - s)/a of J1(at)/t at s = iE, a = 2b, minus its part
    up to t.  The weight w cancels in the ratio.
    """
    lam, energy = resonant_pole(p)
    b = p["b"]
    s, a = 1j * energy, 2.0 * b
    laplace = (np.sqrt(s * s + a * a) - s) / a
    forward = 1.0 / lam - 1j * _bessel_integral(b, energy, t)
    tail = laplace - _bessel_integral(b, -energy, t)
    return float(abs(np.exp(-1j * energy * t) * forward) ** 2
                 / abs(np.exp(1j * energy * t) * tail) ** 2)


# ---------------------------------------------------------------------------
# per-output checks


def check_tdot_survival(text, cp, label):
    theta_raw = cp.get("survival", "theta", fallback="none").strip()
    theta = None if theta_raw == "none" else float(theta_raw)
    base = tdot_params(cp)
    header, data = read_csv(text)
    for value, cols in _groups(header, data, cp):
        p = dict(base)
        if value is not None:
            p[cp.get("sweep", "parameter")] = value
        where = f"{label}" + ("" if value is None else f" at {value:g}")
        t = np.array(cols["t"])
        a = _complex(cols, "a")
        _require(np.max(np.abs(np.array(cols["abs2_a"]) - np.abs(a) ** 2))
                 <= TOL_ROUND, f"{where}: abs2_a is not |a|^2")
        dev = np.max(np.abs(a - exact_amplitude(p, t, theta)))
        _require(dev <= TOL_TOTAL,
                 f"{where}: A(t) differs from the dense lattice by {dev:.2e}")
        comps = [c[3:] for c in cols if c.startswith("re_chi_")]
        if comps:
            total = sum(_complex(cols, c) for c in comps)
            dev = np.max(np.abs(total - a))
            _require(dev <= TOL_SUM,
                     f"{where}: components miss the total by {dev:.2e}")
        if theta is not None:
            continue
        pairs = _mirror_pairs(t)
        if 0.0 in t:
            _require(abs(a[list(t).index(0.0)] - 1.0) <= TOL_SYMMETRY,
                     f"{where}: A(0) != 1")
        for neg, pos in pairs:
            _require(abs(a[neg] - np.conj(a[pos])) <= TOL_SYMMETRY,
                     f"{where}: A(-t) != conj A(t) at t = {t[pos]:g}")
        if "chi_resonant" in comps and "chi_anti_resonant" in comps:
            r = _complex(cols, "chi_resonant")
            ar = _complex(cols, "chi_anti_resonant")
            for neg, pos in pairs:
                for i, j in ((pos, neg), (neg, pos)):
                    _require(abs(ar[i] - np.conj(r[j])) <= TOL_SYMMETRY,
                             f"{where}: AR(t) != conj R(-t) at t = {t[i]:g}")


def check_ratio(text, cp, sidecar_text, label, spot_times=3):
    p = tdot_params(cp)
    header, data = read_csv(text)
    cols = _columns(header, data)
    t = np.array(cols["t"])
    r = np.array(cols["r"])
    _require(np.all(r > 0), f"{label}: r(t) <= 0")
    dev = np.abs(np.array(cols["log10_r"]) - np.log10(r))
    _require(np.all(dev <= TOL_ROUND * np.maximum(1.0, np.abs(np.log10(r)))),
             f"{label}: log10_r disagrees with r")
    if 0.0 in t:
        _require(abs(r[list(t).index(0.0)] - 1.0) <= TOL_ROUND,
                 f"{label}: r(0) != 1")
    # resonant dominance for t > t0, the paper's claim, on fig8a's short
    # times; fig8b's long times restore r -> 1 and may dip below it
    if label == "fig8a":
        t0 = json.loads(sidecar_text)["t0"]
        _require(np.all(r[t > t0] > 1.0),
                 f"{label}: r(t) <= 1 somewhere beyond t0 = {t0:g}")
    # spot checks where the tail integral has not yet decayed below the
    # quadrature's reach: |e^{Im E t}| >= e^-3
    _lam, energy = resonant_pole(p)
    reach = min(t.max(), 3.0 / max(-energy.imag, 1e-12))
    cand = np.flatnonzero((t > 0) & (t <= reach))
    _require(cand.size > 0, f"{label}: no time for the r(t) spot check")
    for i in cand[np.linspace(0, cand.size - 1, spot_times).astype(int)]:
        ref = reference_ratio(p, t[i])
        _require(abs(r[i] - ref) <= 1e-7 * ref,
                 f"{label}: r({t[i]:g}) = {r[i]:.12g}, Bessel integral "
                 f"gives {ref:.12g}")


def check_spectrum(text, cp, label):
    base = tdot_params(cp)
    header, data = read_csv(text)
    for value, cols in _groups(header, data, cp):
        p = dict(base)
        if value is not None:
            p[cp.get("sweep", "parameter")] = value
        where = f"{label}" + ("" if value is None else f" at {value:g}")
        lam = _complex(cols, "lambda")
        energy = _complex(cols, "e")
        w = _complex(cols, "w")
        _require(len(lam) in (3, 4), f"{where}: {len(lam)} states")
        poly = secular_polynomial(p)
        scale = np.polynomial.Polynomial(np.abs(poly.coef))
        backward = np.abs(poly(lam)) / scale(np.abs(lam))
        _require(np.max(backward) <= 1e-9,
                 f"{where}: lambda misses the secular equation "
                 f"(backward error {np.max(backward):.2e})")
        de = np.abs(energy + p["b"] * (lam + 1.0 / lam))
        _require(np.max(de) <= 1e-9 * max(1.0, np.max(np.abs(energy))),
                 f"{where}: E != -b(lambda + 1/lambda)")
        defect = abs(np.sum(w / lam) - 1.0)
        _require(defect <= 1e-8, f"{where}: sum w/lambda - 1 = {defect:.2e}")


def check_friedrichs(text, cp, label):
    header, data = read_csv(text)
    for value, cols in _groups(header, data, cp):
        where = f"{label}" + ("" if value is None else f" at {value:g}")
        t = np.array(cols["t"])
        a = _complex(cols, "a")
        _require(np.max(np.abs(np.array(cols["abs2_a"]) - np.abs(a) ** 2))
                 <= TOL_ROUND, f"{where}: abs2_a is not |a|^2")
        _require(np.all(np.abs(a) ** 2 <= 1.0 + TOL_ROUND),
                 f"{where}: |A|^2 > 1")
        pairs = _mirror_pairs(t)
        for neg, pos in pairs:
            _require(abs(a[neg] - np.conj(a[pos])) <= TOL_SYMMETRY,
                     f"{where}: A(-t) != conj A(t) at t = {t[pos]:g}")
        if "re_a_B" in cols:
            cut = sum(_complex(cols, f"a_{n}") for n in ("B", "R", "AR"))
            bound = np.abs(a - cut)
            spread = bound.max() - bound.min()
            _require(spread <= TOL_SUM,
                     f"{where}: A - (B + R + AR) changes modulus by "
                     f"{spread:.2e}")


def sparse_hamiltonian(p, n_sites):
    """The truncated T-dot lattice as a sparse matrix, [d1, d2, L, R]."""
    dim = 2 + 2 * n_sites
    h = sparse.lil_matrix((dim, dim))
    h[0, 0], h[1, 1] = p["eps1"], p["eps2"]
    h[0, 1] = h[1, 0] = -p["g"]
    left, right = 2, 2 + n_sites
    h[1, left] = h[left, 1] = -p["t2l"]
    h[1, right] = h[right, 1] = -p["t2r"]
    for start in (left, right):
        for x in range(start, start + n_sites - 1):
            h[x, x + 1] = h[x + 1, x] = -p["b"]
    return h.tocsr()


def check_oracle(text, cp, label, fractions=(-0.97, 0.05, 0.55)):
    import resdyn

    report = json.loads(text)
    _require(report.get("pass") is True, f"{label}: oracle report fails")
    _require(report["max_deviation"] <= report["tolerance"],
             f"{label}: deviation above the report's tolerance")
    p = tdot_params(cp)
    n_sites = cp.getint("oracle", "n_sites")
    t_max = cp.getfloat("time", "t_max")
    h = sparse_hamiltonian(p, n_sites)
    e1 = np.zeros(h.shape[0], dtype=complex)
    e1[0] = 1.0
    params = resdyn.TDotParams(**p)
    for t in t_max * np.array(fractions):
        exact = expm_multiply(-1j * t * h, e1)[0]
        direct = resdyn.survival_direct(params, float(t))
        _require(abs(exact - direct) <= TOL_TOTAL,
                 f"{label}: survival_direct({t:g}) misses expm_multiply by "
                 f"{abs(exact - direct):.2e}")


def check_output(op, out_dir, work_dir, recipe_dir):
    """Check one successful operation's output files."""
    name, kind = op["name"], op["kind"]
    if "--recipe" in op["argv"]:
        cfg_path = f"{recipe_dir}/{name}.cfg"
    else:
        cfg_path = f"{work_dir}/{name}.cfg"
    with open(cfg_path) as fh:
        cp = read_config(fh.read())
    out_path = f"{out_dir}/{op['out']}"
    with open(out_path) as fh:
        text = fh.read()
    command = cp.get("run", "command").strip()
    if kind == "oracle":
        check_oracle(text, cp, name)
    elif command == "spectrum":
        check_spectrum(text, cp, name)
    elif command == "ratio":
        with open(out_path + ".zeno.json") as fh:
            check_ratio(text, cp, fh.read(), name)
    elif command == "friedrichs":
        check_friedrichs(text, cp, name)
    elif command == "survival":
        check_tdot_survival(text, cp, name)
    else:
        raise CheckFailed(f"{name}: no check for command {command!r}")
