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
import dataclasses
import json
import sys
from importlib import resources

import numpy as np

from . import friedrichs as fm
from . import lattice as lat
from . import oracle as orc
from .errors import (
    ConfigError,
    DomainError,
    NoResonance,
    NoSignChange,
    ResdynError,
    Unclassifiable,
)

SCHEMA_VERSION = 1

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_REGIME = 4


@dataclasses.dataclass(frozen=True)
class RunConfig:
    model: str
    command: str
    params: object
    times: np.ndarray
    tolerances: lat.Tolerances
    out_format: str
    sweep_parameter: str | None
    sweep_params: tuple | None  # the parameter set of every sweep value
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


def _finite(raw):
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(raw)
    return value


def _positive(raw):
    value = _finite(raw)
    if value <= 0:
        raise ValueError(raw)
    return value


def _parse_theta(raw):
    raw = raw.strip()
    return None if raw == "none" else lat.ThetaState(_finite(raw))


def _parse_thetas(raw):
    """{token: ThetaState} for a comma-separated list of angles; the tokens,
    as written, name the oracle report's keys."""
    return {tok: lat.ThetaState(_finite(tok))
            for tok in (s.strip() for s in raw.split(",")) if tok}


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
    if model not in _MODELS:
        raise ConfigError(f"unknown model {model!r}")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")

    params_class = _MODELS[model][0]
    names = [f.name for f in dataclasses.fields(params_class)]
    try:
        params = params_class(**{name: _get(cp, "params", name, float,
                                            required=True) for name in names})
    except ResdynError as exc:
        raise ConfigError(str(exc)) from exc

    t_min = _get(cp, "time", "t_min", _finite, default=0.0)
    t_max = _get(cp, "time", "t_max", _finite, default=t_min)
    n_points = _get(cp, "time", "n_points", int, default=1)
    if n_points < 1:
        raise ConfigError("n_points must be >= 1")
    if n_points == 1:
        if t_min != t_max:
            raise ConfigError("single-point grid needs t_min == t_max")
    elif not t_min < t_max:
        raise ConfigError("need t_min < t_max")

    tol = lat.Tolerances(
        abs_tol=_get(cp, "tolerances", "abs_tol", _positive, default=1e-10),
        rel_tol=_get(cp, "tolerances", "rel_tol", _positive, default=1e-8),
    )

    default_format = _COMMANDS[command][1][0]
    out_format = _get(cp, "output", "format", str, default=default_format).strip()

    sweep_parameter = sweep_values = sweep_params = None
    if cp.has_section("sweep"):
        if not _COMMANDS[command][3]:
            raise ConfigError(f"{command} takes no [sweep] section")
        sweep_parameter = _get(cp, "sweep", "parameter", str, required=True).strip()
        lo = _get(cp, "sweep", "lo", _finite, required=True)
        hi = _get(cp, "sweep", "hi", _finite, required=True)
        n = _get(cp, "sweep", "n", int, required=True)
        if n < 1 or (n > 1 and not lo < hi):
            raise ConfigError("sweep bounds must be ordered with n >= 1")
        if sweep_parameter not in names:
            raise ConfigError(f"cannot sweep {sweep_parameter!r} for {model}")
        sweep_values = np.linspace(lo, hi, n)

    n_sites = _get(cp, "oracle", "n_sites", int, default=800)
    if n_sites < orc.MIN_SITES_PER_LEAD:
        raise ConfigError(
            f"[oracle] n_sites must be >= {orc.MIN_SITES_PER_LEAD}")
    options = {
        "components": _get(cp, "survival", "components", _parse_bool, default=False),
        "isolated_residue": _get(cp, "survival", "isolated_residue", _parse_bool,
                                 default=False),
        "short_time": _get(cp, "survival", "short_time", _parse_bool, default=False),
        "theta": _get(cp, "survival", "theta", _parse_theta, default=None),
        "oracle_n_sites": n_sites,
        "oracle_tolerance": _get(cp, "oracle", "tolerance", _positive,
                                 default=1e-4),
        "oracle_thetas": _get(cp, "oracle", "thetas", _parse_thetas,
                              default={}),
        "ep_lo": _get(cp, "ep", "eps1_lo", _finite, default=None),
        "ep_hi": _get(cp, "ep", "eps1_hi", _finite, default=None),
    }
    if sweep_values is not None:
        # every sweep value must lie in the model's domain, as [params] must
        sweep_params = []
        for value in sweep_values:
            try:
                sweep_params.append(dataclasses.replace(
                    params, **{sweep_parameter: float(value)}))
            except ResdynError as exc:
                raise ConfigError(
                    f"[sweep] {sweep_parameter} = {value:.12g}: {exc}") from exc
        sweep_params = tuple(sweep_params)
    return RunConfig(model, command, params,
                     np.linspace(t_min, t_max, n_points), tol, out_format,
                     sweep_parameter, sweep_params, options)


def _write_text(out_path, text):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _csv_document(columns, keys):
    """CSV text of named columns, in order: numeric arrays, or lists of
    strings for labels.

    Every numeric cell must be finite, else DomainError names the column and
    the first such row by its ``keys`` columns.  Numbers are rendered with
    12 significant digits, negative zero as 0.
    """
    for name, col in columns.items():
        if isinstance(col, np.ndarray) and not np.all(np.isfinite(col)):
            i = int(np.argmin(np.isfinite(col)))
            where = ", ".join(f"{k} = {columns[k][i]:.12g}" for k in keys)
            raise DomainError(f"column {name} is not finite at "
                              + (where or f"row {i + 1}"))
    cells = [col if isinstance(col, list)
             else [f"{v:.12g}" for v in (col + 0.0).tolist()]
             for col in columns.values()]
    lines = [",".join(columns)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def _json_document(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands


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


def cmd_spectrum(config, args):
    swept = config.sweep_params is not None
    sets = config.sweep_params if swept else (config.params,)
    results = [([_state_record(s) for s in spectrum.states], spectrum.flags)
               for spectrum in lat.discrete_spectra(sets)]
    if config.out_format == "json":
        payload = []
        for params, (recs, flags) in zip(sets, results):
            entry = {"states": recs, "flags": list(flags)}
            if swept:
                entry[config.sweep_parameter] = getattr(
                    params, config.sweep_parameter)
            payload.append(entry)
        _write_text(args.out, _json_document(
            {"model": "tdot", "records": payload}))
        return _EXIT_OK
    recs = [rec for rec_list, _flags in results for rec in rec_list]
    columns = {}
    keys = ()
    if swept:
        columns[config.sweep_parameter] = np.repeat(
            [getattr(p, config.sweep_parameter) for p in sets],
            [len(rec_list) for rec_list, _flags in results])
        keys = (config.sweep_parameter,)
    columns["class"] = [rec["class"] for rec in recs]
    for name in ("re_lambda", "im_lambda", "re_e", "im_e", "re_w", "im_w"):
        columns[name] = np.array([rec[name] for rec in recs], dtype=float)
    _write_text(args.out, _csv_document(columns, keys))
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


def _check_component_sum(total, chi, times, tol):
    """The direct contour and the component sum are computed independently;
    raise DomainError, naming the worst time, where they differ by more than
    ten times the quadrature allowance abs_tol + rel_tol sum_n |chi_n|."""
    allowance = 10.0 * (tol.abs_tol + tol.rel_tol * np.abs(chi).sum(axis=0))
    miss = np.abs(total - chi.sum(axis=0)) / allowance
    worst = int(np.argmax(miss))
    if miss[worst] > 1.0:
        raise DomainError(
            f"survival amplitude and its component sum differ by "
            f"{miss[worst]:.3g} times the allowance {allowance[worst]:.3g} "
            f"at t = {times[worst]:.12g}")


def _tdot_series(config, params):
    """The T-dot total amplitude at ``params``, its per-state components
    (label, values) on request, the other named series its options ask for
    and its real columns."""
    spectrum = lat.discrete_spectrum(params)
    times, tol = config.times, config.tolerances
    theta = config.options["theta"]
    weights = None if theta is None else lat.theta_weights(spectrum, theta)
    chi = ()
    if theta is not None or config.options["components"]:
        chi = lat.amplitude_grid(spectrum, times, weights)
    if theta is None:
        total = lat.survival_direct(params, times, tol=tol, spectrum=spectrum)
    else:
        total = sum(chi)
    components = []
    if config.options["components"]:
        components = list(zip(_component_labels(spectrum), chi))
        if theta is None:
            _check_component_sum(total, chi, times, tol)
    series = []
    if config.options["isolated_residue"]:
        series.append(("xi_res",
                       lat.isolated_residue_amplitude(spectrum, times)))
    real = {}
    if config.options["short_time"]:
        real["p_short"] = lat.short_time_resonant_prob(spectrum, times)
    return total, components, series, real


def _friedrichs_series(config, params):
    """The Friedrichs total amplitude at ``params`` and, on request, its cut
    components."""
    times = config.times
    poles = fm.friedrichs_poles(params)
    total = fm.survival_total(params, times, poles=poles)
    components = []
    if config.options["components"]:
        values = fm.a_components(params, times, poles=poles)
        components = [(pole.label, row) for pole, row in zip(poles.roots, values)]
    return total, components, [], {}


# model -> (parameter class, whose fields are its [params] keys and
# sweepable names; survival series function; stem of its component columns)
_MODELS = {"tdot": (lat.TDotParams, _tdot_series, "chi"),
           "friedrichs": (fm.FriedrichsParams, _friedrichs_series, "a")}


def _survival_columns(config, parts, by_position=False):
    """Columns of a survival table: t, the total amplitude and |A|^2, a
    re/im column pair per component and per named series, then the real
    columns.  Components are named by their label, or by their 1-based
    position with ``by_position``."""
    total, components, series, real = parts
    stem = _MODELS[config.model][2]
    # Python's abs per value: numpy's vectorised complex abs can differ from
    # it in the last bit, which can move the 12th printed digit
    columns = {"t": config.times, "re_a": total.real, "im_a": total.imag,
               "abs2_a": np.array([abs(a) ** 2 for a in total.tolist()])}
    named = [(f"{stem}_{i + 1 if by_position else label}", values)
             for i, (label, values) in enumerate(components)]
    for label, values in named + series:
        columns[f"re_{label}"] = values.real
        columns[f"im_{label}"] = values.imag
    columns.update(real)
    return columns


def cmd_survival(config, args):
    model_series = _MODELS[config.model][1]
    if config.sweep_params is None:
        _write_text(args.out, _csv_document(
            _survival_columns(config, model_series(config, config.params)),
            ("t",)))
        return _EXIT_OK
    parts = [model_series(config, params) for params in config.sweep_params]
    # the state classes and their number can change along the sweep; the
    # columns are joined by position, so then the components are named by
    # position too, and a state missing at a sweep value contributes 0
    width = max(len(components) for _, components, _, _ in parts)
    missing = (None, np.zeros(len(config.times), dtype=complex))
    parts = [(total, components + [missing] * (width - len(components)),
              series, real) for total, components, series, real in parts]
    by_position = len({tuple(label for label, _ in components)
                        for _, components, _, _ in parts}) > 1
    tables = [_survival_columns(config, p, by_position) for p in parts]
    columns = {config.sweep_parameter: np.repeat(
        [getattr(p, config.sweep_parameter) for p in config.sweep_params],
        len(config.times))}
    for name, *cols in zip(tables[0], *(table.values() for table in tables)):
        columns[name] = np.concatenate(cols)
    _write_text(args.out, _csv_document(columns, (config.sweep_parameter, "t")))
    return _EXIT_OK


def _ep_hint(params):
    grid = params.eps1 + np.arange(-6.0, 6.5, 0.5)
    try:
        discs = [lat.ep_discriminant(dataclasses.replace(params, eps1=float(e)))
                 for e in grid]
    except DomainError:  # the discriminant leaves the float range
        return None
    for lo, hi, d_lo, d_hi in zip(grid[:-1], grid[1:], discs[:-1], discs[1:]):
        if np.sign(d_lo) != np.sign(d_hi):
            try:
                return lat.ep_locate(params, float(lo), float(hi))
            except ResdynError:
                continue
    return None


def _zeno_document(spectrum):
    report = lat.zeno_time(spectrum)
    return _json_document({"t0": report.t0, "tz": report.tz,
                           "imag_fraction": report.imag_fraction})


def cmd_ratio(config, args):
    spectrum = lat.discrete_spectrum(config.params)
    try:
        spectrum.resonant()
    except NoResonance:
        ep = _ep_hint(config.params)
        hint = (f"; the exceptional point sits near eps1 = {ep:.9g}"
                if ep is not None else "")
        raise NoResonance(
            f"no resonant pair at eps1 = {config.params.eps1:g}{hint}")
    ratios = lat.ratio_r(spectrum, config.times)
    columns = {"t": config.times, "r": ratios, "log10_r": np.log10(ratios)}
    _write_text(args.out, _csv_document(columns, ("t",)))
    sidecar = _zeno_document(spectrum)
    if args.out is not None:
        with open(args.out + ".zeno.json", "w", newline="") as fh:
            fh.write(sidecar)
    else:
        sys.stderr.write(sidecar)
    return _EXIT_OK


def cmd_zeno(config, args):
    _write_text(args.out, _zeno_document(lat.discrete_spectrum(config.params)))
    return _EXIT_OK


def cmd_ep_locate(config, args):
    lo, hi = config.options["ep_lo"], config.options["ep_hi"]
    if lo is None or hi is None:
        raise ConfigError("ep-locate needs [ep] eps1_lo and eps1_hi")
    star = lat.ep_locate(config.params, lo, hi)
    _write_text(args.out, _json_document(
        {"eps1_star": star, "bracket": [lo, hi]}))
    return _EXIT_OK


def _lattice_deviations(config):
    """Deviations of the contour amplitudes from Chebyshev propagation."""
    times = config.times
    spectrum = lat.discrete_spectrum(config.params)
    lattice = orc.build_hamiltonian(config.params, config.options["oracle_n_sites"])
    # H is real symmetric, so <d1|e^{-iHt}|d2> = <d2|e^{-iHt}|d1>: one
    # propagation from d1 serves every theta superposition
    prop = orc.propagate(lattice, times)
    a11, a21 = prop.amplitudes["d1"], prop.amplitudes["d2"]
    direct = lat.survival_direct(config.params, times, tol=config.tolerances,
                                 spectrum=spectrum)
    deviations = {"d1": float(np.max(np.abs(direct - a11)))}
    thetas = config.options["oracle_thetas"]
    if thetas:
        # the weights only scale each state's row, so one grid at unit
        # weights serves every theta
        units = lat.amplitude_grid(spectrum, times,
                                   np.ones(len(spectrum.states)))
    for tok, theta in thetas.items():
        exact = (a11 + np.exp(1j * theta.theta) * a21) / np.sqrt(2.0)
        total = sum(lat.theta_weights(spectrum, theta)[:, None] * units)
        deviations[f"theta_{tok}"] = float(np.max(np.abs(total - exact)))
    return deviations


def _cut_deviations(config):
    """Deviation of the Friedrichs pole sum from the bound term plus the
    branch-cut quadrature, which shares no code with it."""
    times = config.times
    poles = fm.friedrichs_poles(config.params)
    total = fm.survival_total(config.params, times, poles=poles)
    reference = (poles.bound_residue
                 * np.exp(-1j * poles["B"].energy.real * times)
                 + fm.a_cut_direct(config.params, times, tol=config.tolerances,
                                   poles=poles))
    return {"total": float(np.max(np.abs(total - reference)))}


def cmd_oracle_check(config, args):
    tolerance = config.options["oracle_tolerance"]
    report = {"tolerance": tolerance}
    if config.model == "tdot":
        report["n_sites"] = config.options["oracle_n_sites"]
        report["deviations"] = _lattice_deviations(config)
    else:
        report["deviations"] = _cut_deviations(config)
    worst = max(report["deviations"].values())
    report["max_deviation"] = worst
    report["pass"] = bool(worst <= tolerance)
    _write_text(args.out, _json_document(report))
    if not report["pass"]:
        raise ResdynError(
            f"oracle deviation {worst:.3e} exceeds tolerance {tolerance:g}")
    return _EXIT_OK


# command -> (function, output formats with the default first, models,
# whether it takes a [sweep]); time-series commands are CSV contracts,
# report commands JSON
_COMMANDS = {
    "spectrum": (cmd_spectrum, ("csv", "json"), ("tdot",), True),
    "survival": (cmd_survival, ("csv",), ("tdot", "friedrichs"), True),
    "ratio": (cmd_ratio, ("csv",), ("tdot",), False),
    "zeno": (cmd_zeno, ("json",), ("tdot",), False),
    "friedrichs": (cmd_survival, ("csv",), ("friedrichs",), True),
    "ep-locate": (cmd_ep_locate, ("json",), ("tdot",), False),
    "oracle-check": (cmd_oracle_check, ("json",), ("tdot", "friedrichs"),
                     False),
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
    parser.add_argument("command", choices=_COMMANDS)
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a run-config file")
    src.add_argument("--recipe", choices=RECIPE_NAMES,
                     help="bundled figure recipe")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="override the config's output format")
    parser.add_argument("--threads", type=int, default=1,
                        help="no effect; sweeps run on the calling thread")
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
            config = dataclasses.replace(config, out_format=args.format)
        func, formats, models, _sweeps = _COMMANDS[args.command]
        if config.model not in models:
            raise ConfigError(
                f"{args.command} requires model = {' or '.join(models)}")
        if config.out_format not in formats:
            raise ConfigError(
                f"{args.command} emits {' or '.join(formats)}, "
                f"not {config.out_format}")
        return func(config, args)
    except ConfigError as exc:
        return _fail(exc, _EXIT_CONFIG)
    except (NoResonance, NoSignChange, Unclassifiable) as exc:
        return _fail(exc, _EXIT_REGIME)
    except ResdynError as exc:
        return _fail(exc, _EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
