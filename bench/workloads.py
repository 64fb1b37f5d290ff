"""The benchmark's workloads: which resdyn CLI operations a pass runs.

An operation is one ``resdyn.cli.main`` call.  ``make_ops`` returns the
operations of one round; every pass of a run attempts the same round, so
the share of failed operations is the same in every run.  Config files are
written into the run's work directory; the program only ever sees those
generated inputs, never the seed.
"""

from __future__ import annotations

import math
import os

import numpy as np

RECIPES = ("fig2", "fig5", "fig6a", "fig6b", "fig6c", "fig8a", "fig8b",
           "fig8c", "fig9", "fig11")
RECIPE_COMMANDS = {"fig2": "spectrum", "fig8a": "ratio", "fig8b": "ratio",
                   "fig8c": "ratio", "fig11": "friedrichs"}

WORKLOADS = ("recipes", "sweep", "oracle")

# Lead couplings T = b(1 + delta) just off the quartic-to-cubic degeneracy:
# the quartic's root solve raises NonConvergence there (exit 3).
NEAR_DEGENERATE_DELTAS = (1e-3, -1e-6, 1e-9)
# Friedrichs parameters (omega1, beta, g) whose cubic has three real roots:
# friedrichs_poles raises UnexpectedRootPattern there (exit 4).
THREE_REAL_ROOT_PARAMS = ((-0.5, 0.05, 0.05), (-0.3, 0.05, 0.05))

# Sizes per workload: "full" is the benchmark, "tiny" the smoke test.
SIZES = {
    "full": {"tdot_sweeps": 8, "tdot_values": 3, "tdot_points": 21,
             "fried_sweeps": 6, "fried_values": 4, "fried_points": 12,
             "oracle_sites": 2000, "oracle_points": 41},
    "tiny": {"tdot_sweeps": 1, "tdot_values": 2, "tdot_points": 5,
             "fried_sweeps": 1, "fried_values": 2, "fried_points": 4,
             "oracle_sites": 200, "oracle_points": 5},
}
TINY_RECIPES = ("fig2", "fig8b", "fig11")


def _config(sections):
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
    return "\n".join(lines) + "\n"


def _tdot_params(rng):
    return {"b": 1.0,
            "eps1": round(float(rng.uniform(0.05, 0.4)), 6),
            "eps2": round(float(rng.uniform(-0.2, 0.2)), 6),
            "g": round(float(rng.uniform(0.3, 0.5)), 6),
            "t2l": round(float(rng.uniform(0.8, 1.1)), 6),
            "t2r": round(float(rng.uniform(0.8, 1.1)), 6)}


def _tdot_sweep(rng, size):
    params = _tdot_params(rng)
    lo = params["eps1"]
    t_max = round(float(rng.uniform(2.0, 5.0)), 3)
    return _config({
        "run": {"schema_version": 1, "model": "tdot", "command": "survival"},
        "params": params,
        "time": {"t_min": -t_max, "t_max": t_max,
                 "n_points": size["tdot_points"]},
        "survival": {"components": "true"},
        "sweep": {"parameter": "eps1", "lo": lo, "hi": round(lo + 0.1, 6),
                  "n": size["tdot_values"]},
    })


def _friedrichs_sweep(rng, size):
    omega1 = round(float(rng.uniform(0.8, 1.5)), 6)
    beta = round(float(rng.uniform(0.3, 0.8)), 6)
    g = round(float(rng.uniform(0.05, 0.1)), 6)
    t_max = round(float(rng.uniform(3.0, 8.0)), 3)
    return _config({
        "run": {"schema_version": 1, "model": "friedrichs",
                "command": "friedrichs"},
        "params": {"omega1": omega1, "beta": beta, "g": g},
        # an even point count on a symmetric grid mirrors every time and
        # avoids t = 0, where single cut components diverge
        "time": {"t_min": -t_max, "t_max": t_max,
                 "n_points": size["fried_points"]},
        "survival": {"components": "true"},
        "sweep": {"parameter": "g", "lo": g, "hi": round(g + 0.05, 6),
                  "n": size["fried_values"]},
    })


def _near_degenerate_spectrum(delta):
    t2 = math.sqrt((1.0 + delta) / 2.0)
    return _config({
        "run": {"schema_version": 1, "model": "tdot", "command": "spectrum"},
        "params": {"b": 1.0, "eps1": 0.2, "eps2": 0.3, "g": 0.4,
                   "t2l": repr(t2), "t2r": repr(t2)},
    })


def _three_real_roots(omega1, beta, g):
    return _config({
        "run": {"schema_version": 1, "model": "friedrichs",
                "command": "friedrichs"},
        "params": {"omega1": omega1, "beta": beta, "g": g},
        "time": {"t_min": -1.0, "t_max": 1.0, "n_points": 2},
    })


def _oracle(rng, size):
    n_sites = size["oracle_sites"]
    horizon = n_sites / 2.0  # reflection-free horizon N/(2b) at b = 1
    return _config({
        "run": {"schema_version": 1, "model": "tdot",
                "command": "oracle-check"},
        "params": {"b": 1.0,
                   "eps1": round(0.2 + float(rng.uniform(-0.05, 0.05)), 6),
                   "eps2": 0.0,
                   "g": round(0.4 + float(rng.uniform(-0.03, 0.03)), 6),
                   "t2l": 1.0, "t2r": 1.0},
        "time": {"t_min": -horizon, "t_max": horizon,
                 "n_points": size["oracle_points"]},
        "oracle": {"n_sites": n_sites, "tolerance": 1e-4,
                   "thetas": "0.0, 1.5707963267948966"},
    })


def make_ops(workload, seed, work_dir, size="full"):
    """Write the round's configs into ``work_dir`` and return its operations.

    Each operation is a dict with ``name``, ``argv`` (without ``--out``),
    ``out`` (file name of its output), ``kind`` (what the checks expect),
    ``sweep`` (whether it sweeps a parameter) and ``expect`` (None, or the
    error name that a known fault raises).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    sz = SIZES[size]
    ops = []

    def add(name, command, text=None, kind=None, expect=None, threads=None):
        if text is None:
            argv = [command, "--recipe", name]
        else:
            path = os.path.join(work_dir, f"{name}.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            argv = [command, "--config", path]
        if threads is not None:
            argv += ["--threads", str(threads)]
        ext = "json" if command == "oracle-check" else "csv"
        ops.append({"name": name, "argv": argv, "out": f"{name}.{ext}",
                    "kind": kind or name, "expect": expect,
                    "sweep": name == "fig2" or "[sweep]" in (text or "")})

    if workload == "recipes":
        names = list(RECIPES if size == "full" else TINY_RECIPES)
        rng.shuffle(names)
        for name in names:
            add(name, RECIPE_COMMANDS.get(name, "survival"))
    elif workload == "sweep":
        for i in range(sz["tdot_sweeps"]):
            add(f"tdot{i}", "survival", _tdot_sweep(rng, sz),
                kind="tdot-survival", threads=2)
        for i in range(sz["fried_sweeps"]):
            add(f"friedrichs{i}", "friedrichs", _friedrichs_sweep(rng, sz),
                kind="friedrichs", threads=2)
        for i, delta in enumerate(NEAR_DEGENERATE_DELTAS):
            add(f"near_degenerate{i}", "spectrum",
                _near_degenerate_spectrum(delta), kind="spectrum",
                expect="NonConvergence", threads=2)
        for i, p in enumerate(THREE_REAL_ROOT_PARAMS):
            add(f"three_real_roots{i}", "friedrichs", _three_real_roots(*p),
                kind="friedrichs", expect="UnexpectedRootPattern", threads=2)
    else:
        add("oracle", "oracle-check", _oracle(rng, sz), kind="oracle")
    return ops
