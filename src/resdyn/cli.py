"""Command-line front end: config parsing, sweeps, figure recipes, CSV/JSON.

Configs are flat key = value files with INI section headers and a
schema_version key under [run].  Exit codes: 0 ok, 2 config error,
3 numeric failure, 4 regime error (e.g. no resonant pair); failures emit a
machine-readable JSON line on stderr.  CSV output is deterministic: header
row, 12 significant digits, '.' decimal separator, '\n' line endings,
complex values split into re/im column pairs.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import friedrichs as fm
from . import lattice as lat
from . import oracle as orc
from .errors import (
    BranchCheckFailed,
    ConfigError,
    NoResonance,
    NoSignChange,
    ResdynError,
    Unclassifiable,
    UnexpectedRootPattern,
)

SCHEMA_VERSION = 1

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_REGIME = 4


def fmt(x):
    """Fixed 12-significant-digit decimal rendering used in all CSV cells."""
    return f"{float(x) + 0.0:.12g}"  # + 0.0 normalizes negative zero


@dataclass(frozen=True)
class TimeGrid:
    t_min: float
    t_max: float
    n_points: int

    def values(self):
        if self.n_points == 1:
            return np.array([self.t_min])
        return np.linspace(self.t_min, self.t_max, self.n_points)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    lo: float
    hi: float
    n: int

    def values(self):
        if self.n == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class RunConfig:
    model: str
    command: str
    params: object
    time_grid: TimeGrid
    tolerances: lat.Tolerances
    out_format: str
    sweep: SweepSpec | None
    options: dict


def _get(cp, section, key, cast, default=None, required=False):
    try:
        raw = cp.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def load_config(text):
    """Parse and validate a config document into a RunConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    version = _get(cp, "run", "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version {version} unsupported "
                          f"(expected {SCHEMA_VERSION})")
    model = _get(cp, "run", "model", str, required=True).strip()
    command = _get(cp, "run", "command", str, required=True).strip()
    if model not in ("tdot", "friedrichs"):
        raise ConfigError(f"unknown model {model!r}")

    try:
        if model == "tdot":
            params = lat.TDotParams(
                b=_get(cp, "params", "b", float, required=True),
                eps1=_get(cp, "params", "eps1", float, required=True),
                eps2=_get(cp, "params", "eps2", float, required=True),
                g=_get(cp, "params", "g", float, required=True),
                t2l=_get(cp, "params", "t2l", float, required=True),
                t2r=_get(cp, "params", "t2r", float, required=True),
            )
        else:
            params = fm.FriedrichsParams(
                omega1=_get(cp, "params", "omega1", float, required=True),
                beta=_get(cp, "params", "beta", float, required=True),
                g=_get(cp, "params", "g", float, required=True),
            )
    except ResdynError as exc:
        raise ConfigError(str(exc)) from exc

    t_min = _get(cp, "time", "t_min", float, default=0.0)
    t_max = _get(cp, "time", "t_max", float, default=t_min)
    n_points = _get(cp, "time", "n_points", int, default=1)
    if n_points < 1:
        raise ConfigError("n_points must be >= 1")
    if n_points == 1:
        if t_min != t_max:
            raise ConfigError("single-point grid needs t_min == t_max")
    elif not t_min < t_max:
        raise ConfigError("need t_min < t_max")
    grid = TimeGrid(t_min, t_max, n_points)

    tol = lat.Tolerances(
        abs_tol=_get(cp, "tolerances", "abs_tol", float, default=1e-10),
        rel_tol=_get(cp, "tolerances", "rel_tol", float, default=1e-8),
    )

    default_fmt = "json" if command in ("zeno", "ep-locate", "oracle-check") \
        else "csv"
    out_format = _get(cp, "output", "format", str, default=default_fmt).strip()
    if out_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {out_format!r}")

    sweep = None
    if cp.has_section("sweep"):
        sweep = SweepSpec(
            parameter=_get(cp, "sweep", "parameter", str, required=True).strip(),
            lo=_get(cp, "sweep", "lo", float, required=True),
            hi=_get(cp, "sweep", "hi", float, required=True),
            n=_get(cp, "sweep", "n", int, required=True),
        )
        if sweep.n < 1 or (sweep.n > 1 and not sweep.lo < sweep.hi):
            raise ConfigError("sweep bounds must be ordered with n >= 1")
        valid = ("b", "eps1", "eps2", "g", "t2l", "t2r") if model == "tdot" \
            else ("omega1", "beta", "g")
        if sweep.parameter not in valid:
            raise ConfigError(f"cannot sweep {sweep.parameter!r} for {model}")

    options = {
        "components": _get(cp, "survival", "components", _parse_bool, default=False),
        "isolated_residue": _get(cp, "survival", "isolated_residue", _parse_bool,
                                 default=False),
        "short_time": _get(cp, "survival", "short_time", _parse_bool, default=False),
        "theta": _get(cp, "survival", "theta", str, default="none").strip(),
        "oracle_n_sites": _get(cp, "oracle", "n_sites", int, default=800),
        "oracle_tolerance": _get(cp, "oracle", "tolerance", float, default=1e-4),
        "oracle_thetas": _get(cp, "oracle", "thetas", str, default="").strip(),
        "ep_lo": _get(cp, "ep", "eps1_lo", float, default=None),
        "ep_hi": _get(cp, "ep", "eps1_hi", float, default=None),
    }
    return RunConfig(model, command, params, grid, tol, out_format, sweep, options)


def _replace_param(params, name, value):
    fields = {k: getattr(params, k) for k in params.__dataclass_fields__}
    fields[name] = value
    return type(params)(**fields)


def _thread_count(args):
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("RESDYN_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"bad RESDYN_THREADS value {env!r}") from exc
    return 1


def _sweep_map(func, values, n_threads):
    if n_threads <= 1 or len(values) <= 1:
        return [func(v) for v in values]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(func, values))


def _write_text(out_path, text):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _csv_document(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_document(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _state_record(state):
    return {
        "class": state.state_class.value,
        "re_lambda": state.lam.real,
        "im_lambda": state.lam.imag,
        "re_e": state.energy.real,
        "im_e": state.energy.imag,
        "re_w": state.weight_w.real,
        "im_w": state.weight_w.imag,
    }


_SPECTRUM_COLUMNS = ("class", "re_lambda", "im_lambda", "re_e", "im_e",
                     "re_w", "im_w")


def cmd_spectrum(config, args):
    if config.model != "tdot":
        raise ConfigError("spectrum requires model = tdot")
    sweep_values = config.sweep.values() if config.sweep else [None]

    def one(value):
        params = config.params if value is None else \
            _replace_param(config.params, config.sweep.parameter, float(value))
        spectrum = lat.discrete_spectrum(params)
        recs = [_state_record(s) for s in spectrum.states]
        return value, recs, spectrum.flags

    results = _sweep_map(one, sweep_values, _thread_count(args))
    if config.out_format == "json":
        payload = []
        for value, recs, flags in results:
            entry = {"states": recs, "flags": list(flags)}
            if value is not None:
                entry[config.sweep.parameter] = float(value)
            payload.append(entry)
        _write_text(args.out, _json_document(
            {"model": "tdot", "records": payload}))
        return _EXIT_OK
    header = ((config.sweep.parameter,) if config.sweep else ()) + _SPECTRUM_COLUMNS
    rows = []
    for value, recs, _flags in results:
        for rec in recs:
            prefix = (fmt(value),) if value is not None else ()
            rows.append(prefix + (rec["class"],)
                        + tuple(fmt(rec[c]) for c in _SPECTRUM_COLUMNS[1:]))
    _write_text(args.out, _csv_document(header, rows))
    return _EXIT_OK


def _component_labels(spectrum):
    bases = [s.state_class.value.replace("-", "_") for s in spectrum.states]
    seen = {}
    labels = []
    for base in bases:
        if bases.count(base) > 1:
            seen[base] = seen.get(base, 0) + 1
            labels.append(f"{base}{seen[base]}")
        else:
            labels.append(base)
    return labels


def _tdot_series(config, times):
    """The T-dot total amplitude and the named series its options ask for."""
    spectrum = lat.discrete_spectrum(config.params)
    tol = config.tolerances
    theta_raw = config.options["theta"]
    theta = None if theta_raw == "none" else lat.ThetaState(float(theta_raw))
    weights = None if theta is None else lat.theta_weights(spectrum, theta)
    chi = ()
    if theta is not None or config.options["components"]:
        chi = lat.amplitude_grid(spectrum, times, weights, tol=tol)
    if theta is None:
        total = lat.AmplitudeSeries(
            times, lat.survival_direct(config.params, times, tol=tol,
                                       spectrum=spectrum),
            lat.Representation.DIRECT_CONTOUR)
    else:
        total = lat.AmplitudeSeries(times, sum(chi),
                                    lat.Representation.BESSEL_COMPONENT_SUM)
    series = []
    if config.options["components"]:
        for row, name in zip(chi, _component_labels(spectrum)):
            series.append(lat.AmplitudeSeries(
                times, row, lat.Representation.BESSEL_COMPONENT_SUM,
                component="chi_" + name))
    if config.options["isolated_residue"]:
        series.append(lat.AmplitudeSeries(
            times, lat.isolated_residue_amplitude(spectrum, times),
            lat.Representation.ISOLATED_RESIDUE, component="xi_res"))
    real = {}
    if config.options["short_time"]:
        real["p_short"] = lat.short_time_resonant_prob(spectrum, times)
    return total, series, real


def _friedrichs_series(config, times):
    """The Friedrichs total amplitude and, on request, its cut components."""
    poles = fm.friedrichs_poles(config.params)
    total = fm.survival_total(config.params, times, tol=config.tolerances,
                              poles=poles)
    series = []
    if config.options["components"]:
        parts = {n: fm.a_component(config.params, n, times, poles=poles)
                 for n in ("B", "R", "AR")}
        _check_component_sum(config, poles, times, total, list(parts.values()))
        series = [lat.AmplitudeSeries(times, values,
                                      lat.Representation.BESSEL_COMPONENT_SUM,
                                      component="a_" + name)
                  for name, values in parts.items()]
    total = lat.AmplitudeSeries(times, total, lat.Representation.DIRECT_CONTOUR)
    return total, series, {}


def _check_component_sum(config, poles, times, total, parts):
    """Raise BranchCheckFailed unless A_cut = A_B + A_R + A_AR on the grid.

    The partial-fraction identity is exact, so the residual is the cut
    quadrature's error (main and tail, each within tolerance; 10x margin)
    plus the closed forms' own error (below 1e-11 of sum |A_n| with poles
    solved to 1e-12).  A wrong square-root branch moves a component by
    0.05 or more.
    """
    cut = total - poles.bound_residue * np.exp(-1j * poles.e_bound * times)
    residual = np.abs(cut - sum(parts))
    tol = config.tolerances
    allowed = (10.0 * (tol.abs_tol + tol.rel_tol * np.abs(cut))
               + 1e-10 * sum(np.abs(p) for p in parts))
    worst = int(np.argmax(residual - allowed))
    if residual[worst] > allowed[worst]:
        raise BranchCheckFailed(
            f"components a_B + a_R + a_AR differ from the branch-cut integral "
            f"by {residual[worst]:.3e} at t = {times[worst]:g} (allowed "
            f"{allowed[worst]:.3e}) for {config.params}")


def _survival_rows(config, times):
    """Header and rows of a survival table: t, the total amplitude and
    |A|^2, a re/im column pair per named series, then the real columns."""
    model_series = (_friedrichs_series if config.model == "friedrichs"
                    else _tdot_series)
    total, series, real = model_series(config, times)
    header = ["t", "re_a", "im_a", "abs2_a"]
    for s in series:
        header += [f"re_{s.component}", f"im_{s.component}"]
    header += list(real)
    rows = []
    for i, t in enumerate(times):
        a = total.values[i]
        row = [fmt(t), fmt(a.real), fmt(a.imag), fmt(abs(a) ** 2)]
        for s in series:
            row += [fmt(s.values[i].real), fmt(s.values[i].imag)]
        row += [fmt(col[i]) for col in real.values()]
        rows.append(tuple(row))
    return header, rows


def cmd_survival(config, args):
    times = config.time_grid.values()
    if config.sweep is None:
        header, rows = _survival_rows(config, times)
        _write_text(args.out, _csv_document(header, rows))
        return _EXIT_OK

    def one(value):
        params = _replace_param(config.params, config.sweep.parameter, float(value))
        sub = RunConfig(config.model, config.command, params, config.time_grid,
                        config.tolerances, config.out_format, None, config.options)
        return _survival_rows(sub, times)

    results = _sweep_map(one, config.sweep.values(), _thread_count(args))
    header = (config.sweep.parameter,) + tuple(results[0][0])
    rows = []
    for value, (_h, sub_rows) in zip(config.sweep.values(), results):
        rows.extend((fmt(value),) + r for r in sub_rows)
    _write_text(args.out, _csv_document(header, rows))
    return _EXIT_OK


def _ep_hint(params):
    grid = params.eps1 + np.arange(-6.0, 6.5, 0.5)
    discs = [lat.ep_discriminant(_replace_param(params, "eps1", float(e)))
             for e in grid]
    for lo, hi, d_lo, d_hi in zip(grid[:-1], grid[1:], discs[:-1], discs[1:]):
        if np.sign(d_lo) != np.sign(d_hi):
            try:
                return lat.ep_locate(params, float(lo), float(hi))
            except ResdynError:
                continue
    return None


def cmd_ratio(config, args):
    if config.model != "tdot":
        raise ConfigError("ratio requires model = tdot")
    spectrum = lat.discrete_spectrum(config.params)
    try:
        spectrum.resonant()
    except NoResonance:
        ep = _ep_hint(config.params)
        hint = (f"; the exceptional point sits near eps1 = {ep:.9g}"
                if ep is not None else "")
        raise NoResonance(
            f"no resonant pair at eps1 = {config.params.eps1:g}{hint}")
    header = ["t", "r", "log10_r"]
    times = config.time_grid.values()
    ratios = lat.ratio_r(spectrum, times, tol=config.tolerances)
    rows = [(fmt(t), fmt(r), fmt(np.log10(r))) for t, r in zip(times, ratios)]
    _write_text(args.out, _csv_document(header, rows))
    report = lat.zeno_time(spectrum)
    sidecar = _json_document({"t0": report.t0, "tz": report.tz,
                              "imag_fraction": report.imag_fraction})
    if args.out is not None:
        with open(args.out + ".zeno.json", "w", newline="") as fh:
            fh.write(sidecar)
    else:
        sys.stderr.write(sidecar)
    return _EXIT_OK


def cmd_zeno(config, args):
    if config.model != "tdot":
        raise ConfigError("zeno requires model = tdot")
    spectrum = lat.discrete_spectrum(config.params)
    report = lat.zeno_time(spectrum)
    _write_text(args.out, _json_document(
        {"t0": report.t0, "tz": report.tz,
         "imag_fraction": report.imag_fraction}))
    return _EXIT_OK


def cmd_friedrichs(config, args):
    if config.model != "friedrichs":
        raise ConfigError("friedrichs command requires model = friedrichs")
    return cmd_survival(config, args)


def cmd_ep_locate(config, args):
    if config.model != "tdot":
        raise ConfigError("ep-locate requires model = tdot")
    lo, hi = config.options["ep_lo"], config.options["ep_hi"]
    if lo is None or hi is None:
        raise ConfigError("ep-locate needs [ep] eps1_lo and eps1_hi")
    star = lat.ep_locate(config.params, lo, hi)
    _write_text(args.out, _json_document(
        {"eps1_star": star, "bracket": [lo, hi]}))
    return _EXIT_OK


def cmd_oracle_check(config, args):
    if config.model != "tdot":
        raise ConfigError("oracle-check requires model = tdot")
    times = config.time_grid.values()
    spectrum = lat.discrete_spectrum(config.params)
    lattice = orc.build_hamiltonian(config.params, config.options["oracle_n_sites"])
    tolerance = config.options["oracle_tolerance"]

    report = {"n_sites": config.options["oracle_n_sites"],
              "tolerance": tolerance, "deviations": {}}
    # H is real symmetric, so <d1|e^{-iHt}|d2> = <d2|e^{-iHt}|d1>: one
    # propagation from d1 serves every theta superposition
    prop = orc.propagate(lattice, "d1", times, want_d2=True)
    a11 = np.array(prop.amplitudes["d1"])
    a21 = np.array(prop.amplitudes["d2"])
    direct = lat.survival_direct(config.params, times, tol=config.tolerances,
                                 spectrum=spectrum)
    report["deviations"]["d1"] = float(np.max(np.abs(direct - a11)))
    raw = config.options["oracle_thetas"]
    for tok in filter(None, (s.strip() for s in raw.split(","))):
        theta = lat.ThetaState(float(tok))
        exact = (a11 + np.exp(1j * theta.theta) * a21) / np.sqrt(2.0)
        total = sum(lat.amplitude_grid(spectrum, times,
                                       lat.theta_weights(spectrum, theta),
                                       tol=config.tolerances))
        report["deviations"][f"theta_{tok}"] = float(np.max(np.abs(total - exact)))
    worst = max(report["deviations"].values())
    report["max_deviation"] = worst
    report["pass"] = bool(worst <= tolerance)
    _write_text(args.out, _json_document(report))
    if not report["pass"]:
        raise ResdynError(
            f"oracle deviation {worst:.3e} exceeds tolerance {tolerance:g}")
    return _EXIT_OK


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "survival": cmd_survival,
    "ratio": cmd_ratio,
    "zeno": cmd_zeno,
    "friedrichs": cmd_friedrichs,
    "ep-locate": cmd_ep_locate,
    "oracle-check": cmd_oracle_check,
}

# time-series commands are CSV contracts; report commands are JSON
_FORMAT_CONSTRAINTS = {
    "survival": ("csv",),
    "friedrichs": ("csv",),
    "ratio": ("csv",),
    "zeno": ("json",),
    "ep-locate": ("json",),
    "oracle-check": ("json",),
    "spectrum": ("csv", "json"),
}

RECIPE_NAMES = ("fig2", "fig5", "fig6a", "fig6b", "fig6c", "fig8a", "fig8b",
                "fig8c", "fig9", "fig11")


def recipe_text(name):
    if name not in RECIPE_NAMES:
        raise ConfigError(f"unknown recipe {name!r}; available: "
                          + ", ".join(RECIPE_NAMES))
    return (resources.files("resdyn") / "recipes" / f"{name}.cfg").read_text()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resdyn",
        description="Discrete spectra and survival-amplitude dynamics of the "
                    "T-shaped dot and Friedrichs models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="path to a run-config file")
        src.add_argument("--recipe", choices=RECIPE_NAMES,
                         help="bundled figure recipe")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="override the config's output format")
        p.add_argument("--threads", type=int,
                       help="sweep worker count (default: RESDYN_THREADS or 1)")
    return parser


def _fail(exc, code):
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.recipe:
            text = recipe_text(args.recipe)
        else:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        config = load_config(text)
        if config.command != args.command:
            raise ConfigError(
                f"config declares command = {config.command!r}, "
                f"invoked as {args.command!r}")
        if args.format:
            config = RunConfig(config.model, config.command, config.params,
                               config.time_grid, config.tolerances,
                               args.format, config.sweep, config.options)
        allowed = _FORMAT_CONSTRAINTS[args.command]
        if config.out_format not in allowed:
            raise ConfigError(
                f"{args.command} emits {' or '.join(allowed)}, "
                f"not {config.out_format}")
        return _DISPATCH[args.command](config, args)
    except ConfigError as exc:
        return _fail(exc, _EXIT_CONFIG)
    except (NoResonance, NoSignChange, Unclassifiable,
            UnexpectedRootPattern) as exc:
        return _fail(exc, _EXIT_REGIME)
    except ResdynError as exc:
        return _fail(exc, _EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
