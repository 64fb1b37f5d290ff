import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from resdyn import cli
from resdyn import lattice as lat
from resdyn.cli import RECIPE_NAMES, _csv_document, load_config, main, recipe_text
from resdyn.errors import ConfigError, DegenerateLeadCoupling

BASE_TDOT = """
[run]
schema_version = 1
model = tdot
command = {command}

[params]
b = 1.0
eps1 = {eps1}
eps2 = 0.0
g = 0.4
t2l = 1.0
t2r = 1.0
{extra}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) for r in rows]


def cell(x):
    """The CSV cell rule, one value at a time: 12 significant digits and
    negative zero printed as 0."""
    return f"{float(x) + 0.0:.12g}"


def test_fmt_is_twelve_digits_and_normalizes_zero():
    values = [-0.0, 1.0 / 3.0, 1234.5]
    assert [cell(v) for v in values] == ["0", "0.333333333333", "1234.5"]
    assert _csv_document({"x": np.array(values)}, ()) == \
        "x\n" + "".join(cell(v) + "\n" for v in values)


def test_fig6b_total_renders_by_the_cell_rule(tmp_path):
    config = load_config(recipe_text("fig6b"))
    spectrum = lat.discrete_spectrum(config.params)
    weights = lat.theta_weights(spectrum, config.options["theta"])
    total = sum(lat.amplitude_grid(spectrum, config.times, weights))
    # |A|^2 from Python's abs per value: np.abs on the whole array is one ulp
    # off at rows 180 and 220, which moves the 12th digit there
    expected = ["t,re_a,im_a,abs2_a"] + [
        ",".join((cell(t), cell(a.real), cell(a.imag), cell(abs(a) ** 2)))
        for t, a in zip(config.times.tolist(), total.tolist())]
    out = tmp_path / "fig6b.csv"
    assert main(["survival", "--recipe", "fig6b", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [",".join(line.split(",")[:4]) for line in lines] == expected


def test_config_round_trip_and_validation(tmp_path):
    cfg = BASE_TDOT.format(command="zeno", eps1="0.2", extra="")
    config = load_config(cfg)
    assert config.model == "tdot"
    assert config.params.eps1 == 0.2
    with pytest.raises(ConfigError):
        load_config(cfg.replace("schema_version = 1", "schema_version = 9"))
    with pytest.raises(ConfigError):
        load_config(cfg.replace("model = tdot", "model = hubbard"))
    with pytest.raises(ConfigError):
        load_config(cfg.replace("eps1 = 0.2", "eps1 = lots"))
    with pytest.raises(ConfigError):
        load_config(cfg.replace("[params]", "[params]\nbogus junk line"))


def test_single_point_grid_rules():
    cfg = BASE_TDOT.format(command="survival", eps1="0.2",
                           extra="[time]\nt_min = 0.0\nt_max = 0.0\nn_points = 1")
    assert load_config(cfg).times.tolist() == [0.0]
    bad = cfg.replace("n_points = 1", "n_points = 2")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_survival_single_point_is_unity(tmp_path, capsys):
    cfg = BASE_TDOT.format(command="survival", eps1="0.2",
                           extra="[time]\nt_min = 0.0\nt_max = 0.0\nn_points = 1")
    out = str(tmp_path / "one.csv")
    rc = main(["survival", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    assert abs(column(header, rows, "abs2_a")[0] - 1.0) < 1e-8


def test_exit_code_2_on_malformed_config(tmp_path, capsys):
    path = write_cfg(tmp_path, "not a config at all\n= 3")
    rc = main(["zeno", "--config", path])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("command, section, key, value", [
    ("survival", "survival", "theta", "pi/2"),
    ("survival", "survival", "theta", "nan"),
    ("oracle-check", "oracle", "thetas", "0.0, half-pi"),
    ("oracle-check", "oracle", "thetas", "0.0, inf"),
])
def test_exit_code_2_on_malformed_theta(tmp_path, capsys, command, section,
                                        key, value):
    cfg = BASE_TDOT.format(command=command, eps1="0.2",
                           extra=f"[{section}]\n{key} = {value}")
    rc = main([command, "--config", write_cfg(tmp_path, cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "theta" in err["message"]


@pytest.mark.parametrize("command", ["survival", "oracle-check"])
@pytest.mark.parametrize("t_min, t_max, key", [
    ("0.0", "inf", "t_max"),
    ("0.0", "1e400", "t_max"),
    ("-inf", "1.0", "t_min"),
])
def test_exit_code_2_on_non_finite_time_bound(tmp_path, capsys, command, t_min,
                                              t_max, key):
    cfg = BASE_TDOT.format(
        command=command, eps1="0.2",
        extra=f"[time]\nt_min = {t_min}\nt_max = {t_max}\nn_points = 5")
    rc = main([command, "--config", write_cfg(tmp_path, cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"[time] {key}" in err["message"]


@pytest.mark.parametrize("command, section, key, value", [
    ("survival", "tolerances", "abs_tol", "-1"),
    ("survival", "tolerances", "abs_tol", "nan"),
    ("survival", "tolerances", "rel_tol", "inf"),
    ("oracle-check", "tolerances", "rel_tol", "0"),
    ("oracle-check", "oracle", "tolerance", "inf"),
    ("oracle-check", "oracle", "tolerance", "nan"),
    ("oracle-check", "oracle", "tolerance", "-1e-4"),
    ("oracle-check", "oracle", "n_sites", "10"),
])
def test_exit_code_2_on_bad_tolerance_or_lattice_size(tmp_path, capsys,
                                                     command, section, key,
                                                     value):
    cfg = BASE_TDOT.format(
        command=command, eps1="0.2",
        extra=f"[time]\nt_min = 0.0\nt_max = 5.0\nn_points = 3\n"
              f"[{section}]\n{key} = {value}")
    rc = main([command, "--config", write_cfg(tmp_path, cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"[{section}] {key}" in err["message"]


@pytest.mark.parametrize("command, section, key, body", [
    ("spectrum", "sweep", "lo", "parameter = eps1\nlo = -inf\nhi = 0.3\nn = 3"),
    ("spectrum", "sweep", "hi", "parameter = eps1\nlo = 0.1\nhi = inf\nn = 3"),
    ("ep-locate", "ep", "eps1_lo", "eps1_lo = nan\neps1_hi = 0.0"),
    ("ep-locate", "ep", "eps1_hi", "eps1_lo = -2.0\neps1_hi = -inf"),
], ids=["sweep-lo", "sweep-hi", "ep-eps1_lo", "ep-eps1_hi"])
def test_exit_code_2_on_non_finite_sweep_or_ep_bound(tmp_path, capsys, command,
                                                     section, key, body):
    cfg = BASE_TDOT.format(command=command, eps1="0.2",
                           extra=f"[{section}]\n{body}")
    rc = main([command, "--config", write_cfg(tmp_path, cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"[{section}] {key}" in err["message"]


@pytest.mark.parametrize("command", ["ratio", "zeno", "ep-locate",
                                     "oracle-check"])
def test_exit_code_2_on_sweep_for_a_command_that_does_not_sweep(
        tmp_path, capsys, command):
    cfg = BASE_TDOT.format(
        command=command, eps1="0.2",
        extra="[time]\nt_min = 0.0\nt_max = 5.0\nn_points = 3\n"
              "[ep]\neps1_lo = -2.0\neps1_hi = 0.0\n"
              "[sweep]\nparameter = eps1\nlo = 0.1\nhi = 0.3\nn = 3")
    rc = main([command, "--config", write_cfg(tmp_path, cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "[sweep]" in err["message"]


def test_exit_code_2_on_missing_file(capsys):
    rc = main(["zeno", "--config", "/no/such/file.cfg"])
    assert rc == 2


def test_exit_code_2_on_command_mismatch(tmp_path, capsys):
    cfg = BASE_TDOT.format(command="zeno", eps1="0.2", extra="")
    rc = main(["ratio", "--config", write_cfg(tmp_path, cfg)])
    assert rc == 2


def test_exit_code_4_when_no_resonance(tmp_path, capsys):
    cfg = BASE_TDOT.format(command="ratio", eps1="-3.0",
                           extra="[time]\nt_min = 0.0\nt_max = 2.0\nn_points = 5")
    rc = main(["ratio", "--config", write_cfg(tmp_path, cfg)])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoResonance"
    # the message names where the exceptional point sits
    assert "exceptional point" in err["message"]
    assert "-2.34752" in err["message"]


def test_exit_code_4_without_a_hint_when_the_discriminant_overflows(
        tmp_path, capsys):
    # eps2 = 1e60 keeps the quartic finite (a cubic at this scale), but not
    # its discriminant
    cfg = BASE_TDOT.format(command="ratio", eps1="-3.0",
                           extra="[time]\nt_min = 0.0\nt_max = 2.0\nn_points = 5")
    cfg = cfg.replace("eps2 = 0.0", "eps2 = 1e60")
    with pytest.warns(DegenerateLeadCoupling):
        rc = main(["ratio", "--config", write_cfg(tmp_path, cfg)])
    assert rc == 4
    assert json.loads(capsys.readouterr().err) == {
        "error": "NoResonance", "message": "no resonant pair at eps1 = -3"}


def test_exit_code_3_on_numeric_failure(tmp_path, capsys):
    # the direct contour meets the oracle to about 8e-16 here; a tolerance
    # below the rounding of either side cannot be met
    cfg = BASE_TDOT.format(command="oracle-check", eps1="0.2", extra="""
[time]
t_min = 0.0
t_max = 10.0
n_points = 5

[oracle]
n_sites = 60
tolerance = 1e-17
""")
    out = str(tmp_path / "oracle.json")
    rc = main(["oracle-check", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == 3
    report = json.loads(open(out).read())
    assert report["pass"] is False


def test_oracle_check_passes_at_spec_tolerance(tmp_path):
    cfg = BASE_TDOT.format(command="oracle-check", eps1="0.2", extra="""
[time]
t_min = 0.0
t_max = 20.0
n_points = 6

[oracle]
n_sites = 200
tolerance = 1e-4
thetas = 0.0, 1.5707963267948966
""")
    out = str(tmp_path / "oracle.json")
    rc = main(["oracle-check", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == 0
    report = json.loads(open(out).read())
    assert report["pass"] is True
    assert set(report["deviations"]) == {"d1", "theta_0.0",
                                         "theta_1.5707963267948966"}


def test_spectrum_json_contains_caption_values(tmp_path):
    cfg = BASE_TDOT.format(command="spectrum", eps1="0.2", extra="")
    out = str(tmp_path / "spec.json")
    rc = main(["spectrum", "--config", write_cfg(tmp_path, cfg),
               "--format", "json", "--out", out])
    assert rc == 0
    data = json.loads(open(out).read())
    res = [s for s in data["records"][0]["states"] if s["class"] == "resonant"][0]
    assert f"{res['re_e']:.6g}" == "0.199675"
    assert f"{res['im_e']:.6g}" == "-0.0803343"


def test_spectrum_sweep_single_value(tmp_path):
    cfg = BASE_TDOT.format(command="spectrum", eps1="0.2", extra="""
[sweep]
parameter = eps1
lo = 0.2
hi = 0.2
n = 1
""")
    out = str(tmp_path / "single.csv")
    rc = main(["spectrum", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == 0
    header, rows = read_csv(out)
    assert len({r[0] for r in rows}) == 1  # exactly one sweep record


def test_ep_locate_command(tmp_path):
    cfg = BASE_TDOT.format(command="ep-locate", eps1="0.2", extra="""
[ep]
eps1_lo = -3.0
eps1_hi = 0.0
""")
    out = str(tmp_path / "ep.json")
    rc = main(["ep-locate", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == 0
    data = json.loads(open(out).read())
    assert abs(data["eps1_star"] - (-2.347528)) < 1e-5


def test_zeno_sidecar_written_next_to_ratio_output(tmp_path):
    cfg = BASE_TDOT.format(command="ratio", eps1="0.2", extra="""
[time]
t_min = 0.0
t_max = 2.0
n_points = 9
""")
    out = str(tmp_path / "ratio.csv")
    rc = main(["ratio", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t", "r", "log10_r"]
    assert column(header, rows, "r")[0] == 1.0
    sidecar = json.loads(open(out + ".zeno.json").read())
    assert abs(sidecar["t0"] - 1.0014) < 1e-3


FRIEDRICHS_SWEEP = """
[run]
schema_version = 1
model = friedrichs
command = friedrichs

[params]
omega1 = 1.0
beta = 0.5
g = 0.08

[time]
t_min = -6.0
t_max = 6.0
n_points = 12

[survival]
components = true

[sweep]
parameter = g
lo = 0.08
hi = 0.12
n = 3
"""


SWEEPS = {
    "spectrum": BASE_TDOT.format(command="spectrum", eps1="0.2", extra="""
[sweep]
parameter = eps1
lo = -1.0
hi = 0.0
n = 11
"""),
    "survival": BASE_TDOT.format(command="survival", eps1="0.2", extra="""
[time]
t_min = -5.0
t_max = 5.0
n_points = 21

[survival]
components = true

[sweep]
parameter = eps1
lo = 0.2
hi = 0.3
n = 3
"""),
    "friedrichs": FRIEDRICHS_SWEEP,
}


def test_threads_do_not_change_sweep_output(tmp_path):
    for command, cfg in SWEEPS.items():
        path = write_cfg(tmp_path, cfg, name=f"{command}.cfg")
        out1 = str(tmp_path / f"{command}1.csv")
        out4 = str(tmp_path / f"{command}4.csv")
        assert main([command, "--config", path, "--out", out1,
                     "--threads", "1"]) == 0
        assert main([command, "--config", path, "--out", out4,
                     "--threads", "4"]) == 0
        assert open(out1, "rb").read() == open(out4, "rb").read(), command


def test_sweep_values_run_on_the_calling_thread(tmp_path, monkeypatch):
    """--threads is accepted but starts no thread."""
    def refuse(self):
        raise AssertionError("a sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    path = write_cfg(tmp_path, SWEEPS["survival"])
    assert main(["survival", "--config", path, "--out",
                 str(tmp_path / "out.csv"), "--threads", "4"]) == 0
    assert len(read_csv(tmp_path / "out.csv")[1]) == 3 * 21


@pytest.mark.parametrize("command, cfg, name, value", [
    ("survival", SWEEPS["survival"].replace(
        "parameter = eps1\nlo = 0.2\nhi = 0.3",
        "parameter = b\nlo = -1.0\nhi = 1.0"), "b", "-1"),
    ("friedrichs", FRIEDRICHS_SWEEP.replace(
        "parameter = g\nlo = 0.08\nhi = 0.12",
        "parameter = beta\nlo = -0.5\nhi = 0.5"), "beta", "-0.5"),
], ids=["tdot", "friedrichs"])
def test_exit_code_2_on_sweep_value_outside_the_domain(tmp_path, capsys,
                                                       command, cfg, name,
                                                       value):
    """A sweep value that [params] would reject is a config error too; the
    message names [sweep] and the first such value."""
    assert f"parameter = {name}" in cfg
    rc = main([command, "--config", write_cfg(tmp_path, cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == (f"[sweep] {name} = {value}: "
                              f"{name} must be positive")


@pytest.mark.parametrize("text, message", [
    (FRIEDRICHS_SWEEP.replace("beta = 0.5\n", ""), "missing [params] beta"),
    (SWEEPS["survival"].replace("parameter = eps1", "parameter = omega1"),
     "cannot sweep 'omega1' for tdot"),
    (SWEEPS["survival"].replace("model = tdot", "model = hubbard"),
     "unknown model 'hubbard'"),
], ids=["missing-key", "foreign-sweep", "unknown-model"])
def test_config_errors_name_the_model_and_its_parameters(text, message):
    """A model's [params] keys and sweepable names are the fields of its
    parameter class."""
    with pytest.raises(ConfigError) as err:
        load_config(text)
    assert str(err.value) == message


def test_exit_code_3_when_the_quartic_leaves_the_float_range(tmp_path, capsys):
    cfg = BASE_TDOT.format(command="spectrum", eps1="0.2", extra="").replace(
        "\nb = 1.0\n", "\nb = 1e200\n")
    rc = main(["spectrum", "--config", write_cfg(tmp_path, cfg)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "DomainError",
        "message": "quartic coefficients leave the float range: "
                   "c0, c1, c2, c3, c4"}


def test_exit_code_3_when_friedrichs_g_leaves_the_float_range(tmp_path, capsys):
    cfg = FRIEDRICHS_SWEEP.split("[sweep]")[0].replace("g = 0.08", "g = 1e100")
    rc = main(["friedrichs", "--config", write_cfg(tmp_path, cfg)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "DomainError",
        "message": "g = 1e+100 leaves the float range: (2 pi g^2)^2 needs "
                   "1e-77 <= |g| <= 1e+76"}


# ---------------------------------------------------------------------------
# recipe behavior (datasets' qualitative structure)


def test_every_recipe_is_bundled_and_parses():
    for name in RECIPE_NAMES:
        load_config(recipe_text(name))
    with pytest.raises(ConfigError):
        recipe_text("fig99")


def test_fig2_recipe_imaginary_parts_split_at_ep(tmp_path):
    out = str(tmp_path / "fig2.csv")
    assert main(["spectrum", "--recipe", "fig2", "--out", out]) == 0
    header, rows = read_csv(out)
    eps = column(header, rows, "eps1")
    im_e = column(header, rows, "im_e")
    star = -2.347528
    for e1, im in zip(eps, im_e):
        if e1 < star - 1e-6:
            assert im == 0.0, f"real eigenvalue expected at eps1={e1}"
    right = [abs(im) for e1, im in zip(eps, im_e) if e1 > star + 0.05]
    assert max(right) > 1e-3  # a genuine conjugate pair appears
    # pairs come in +/-
    by_eps = {}
    for e1, im in zip(eps, im_e):
        by_eps.setdefault(e1, []).append(im)
    for e1, ims in by_eps.items():
        assert abs(sum(ims)) < 1e-9


def test_fig5_recipe_isolated_residue_grows_into_the_past(tmp_path):
    out = str(tmp_path / "fig5.csv")
    assert main(["survival", "--recipe", "fig5", "--out", out]) == 0
    header, rows = read_csv(out)
    ts = column(header, rows, "t")
    xi2 = [re * re + im * im for re, im in zip(column(header, rows, "re_xi_res"),
                                               column(header, rows, "im_xi_res"))]
    seq = [p for t, p in zip(ts, xi2) if t <= 0.0]
    # envelope grows monotonically toward t = -10 (pure exponential here)
    assert all(a > b for a, b in zip(seq[:-1], seq[1:]))


def test_fig6a_recipe_component_structure(tmp_path):
    out = str(tmp_path / "fig6a.csv")
    assert main(["survival", "--recipe", "fig6a", "--out", out]) == 0
    header, rows = read_csv(out)
    ts = np.array(column(header, rows, "t"))
    a2 = np.array(column(header, rows, "abs2_a"))
    # total survival probability is even in t
    sym = {round(t, 9): p for t, p in zip(ts, a2)}
    for t in (2.5, 5.0, 7.5):
        assert abs(sym[t] - sym[-t]) < 1e-6
    res2 = (np.array(column(header, rows, "re_chi_resonant")) ** 2
            + np.array(column(header, rows, "im_chi_resonant")) ** 2)
    ares2 = (np.array(column(header, rows, "re_chi_anti_resonant")) ** 2
             + np.array(column(header, rows, "im_chi_anti_resonant")) ** 2)
    assert ts[int(np.argmax(res2))] > 0.0
    assert ts[int(np.argmax(ares2))] < 0.0


def test_fig8a_recipe_ratio_escapes_quickly(tmp_path):
    out = str(tmp_path / "fig8a.csv")
    assert main(["ratio", "--recipe", "fig8a", "--out", out]) == 0
    header, rows = read_csv(out)
    ts = column(header, rows, "t")
    log_r = column(header, rows, "log10_r")
    assert column(header, rows, "r")[0] == 1.0
    t0 = json.loads(open(out + ".zeno.json").read())["t0"]
    escaped = [t for t, lr in zip(ts, log_r) if abs(lr) > 0.5]
    assert escaped and min(escaped) < 5.0 * t0


def test_fig11_recipe_total_even_and_components_split(tmp_path):
    out = str(tmp_path / "fig11.csv")
    assert main(["friedrichs", "--recipe", "fig11", "--out", out]) == 0
    header, rows = read_csv(out)
    ts = np.array(column(header, rows, "t"))
    a2 = np.array(column(header, rows, "abs2_a"))
    sym = {round(t, 6): p for t, p in zip(ts, a2)}
    for t in (5.05, 10.05, 19.95):
        assert abs(sym[t] - sym[-t]) < 1e-6
    r2 = (np.array(column(header, rows, "re_a_R")) ** 2
          + np.array(column(header, rows, "im_a_R")) ** 2)
    mask_pos, mask_neg = ts > 1.0, ts < -1.0
    assert r2[mask_pos].max() > 100.0 * r2[mask_neg].max()


def test_non_finite_series_exits_3_naming_it(tmp_path, capsys, monkeypatch):
    from resdyn import friedrichs as fm
    components = fm.a_components

    def broken(params, t, poles=None):
        values = components(params, t, poles=poles)
        values[[pole.label for pole in poles.roots].index("R"), 4] = np.nan
        return values

    monkeypatch.setattr(fm, "a_components", broken)
    cfg = write_cfg(tmp_path, """
[run]
schema_version = 1
model = friedrichs
command = friedrichs

[params]
omega1 = 1.0
beta = 0.5
g = 0.1

[time]
t_min = -6.05
t_max = 5.95
n_points = 13

[survival]
components = true
""")
    out = tmp_path / "o.csv"
    assert main(["friedrichs", "--config", cfg, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "a_R" in err["message"] and "t = -2.05" in err["message"]
    assert not out.exists()


def test_component_sum_mismatch_exits_3_naming_the_worst_time(
        tmp_path, capsys, monkeypatch):
    amplitude_grid = lat.amplitude_grid
    seen = {}

    def off(spectrum, times, weights=None):
        chi = amplitude_grid(spectrum, times, weights)
        tol = lat.DEFAULT_TOLERANCES  # the config's, which sets the allowance
        n = spectrum.states.index(spectrum.resonant())
        miss = 1e-6 * np.abs(chi[n]) / (tol.abs_tol
                                        + tol.rel_tol * np.abs(chi).sum(axis=0))
        seen["t"] = times[np.argmax(miss)]
        chi[n] *= 1.0 + 1e-6
        return chi

    monkeypatch.setattr(lat, "amplitude_grid", off)
    out = tmp_path / "o.csv"
    assert main(["survival", "--config", _fig9_on(-4.0, 8.0, tmp_path),
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "component sum" in err["message"]
    assert f"t = {seen['t']:.12g}" in err["message"]
    assert not out.exists()


def test_component_sum_check_leaves_fig5_unchanged(tmp_path, monkeypatch):
    checked = tmp_path / "checked.csv"
    assert main(["survival", "--recipe", "fig5", "--out", str(checked)]) == 0
    monkeypatch.setattr(cli, "_check_component_sum", lambda *args: None)
    unchecked = tmp_path / "unchecked.csv"
    assert main(["survival", "--recipe", "fig5", "--out", str(unchecked)]) == 0
    assert checked.read_bytes() == unchecked.read_bytes()


def _fig9_on(t_min, t_max, tmp_path):
    text = recipe_text("fig9")
    i, j = text.index("[time]"), text.index("[survival]")
    return write_cfg(tmp_path, text[:i] + f"""[time]
t_min = {t_min}
t_max = {t_max}
n_points = 5

""" + text[j:])


def test_p_short_tends_to_its_long_time_limit(tmp_path):
    config = load_config(recipe_text("fig9"))
    spectrum = lat.discrete_spectrum(config.params)
    res = spectrum.resonant()
    # |psi b lam/E|^2 with psi = w/lam
    limit = abs(res.weight_w * config.params.b / res.energy) ** 2
    assert lat.short_time_resonant_prob(spectrum, 1e4) == \
        pytest.approx(limit, rel=1e-12, abs=0.0)
    out = str(tmp_path / "long.csv")
    assert main(["survival", "--config", _fig9_on(0.0, 1e4, tmp_path),
                 "--out", out]) == 0
    header, rows = read_csv(out)
    assert column(header, rows, "p_short", cast=str)[-1] == cell(limit)


def test_p_short_overflow_exits_3_naming_it(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["survival", "--config", _fig9_on(-1e4, 1e4, tmp_path),
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "p_short" in err["message"] and "t = -10000" in err["message"]
    assert not out.exists()


def test_zeno_command_success(tmp_path):
    cfg = BASE_TDOT.format(command="zeno", eps1="0.2", extra="")
    out = str(tmp_path / "zeno.json")
    rc = main(["zeno", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == 0
    report = json.loads(open(out).read())
    assert abs(report["t0"] - 1.0014) < 1e-3
    assert abs(report["tz"] - 5.0081) < 1e-3
    assert 0.0 < report["imag_fraction"] < 0.01


def test_survival_sweep_ordering(tmp_path):
    cfg = BASE_TDOT.format(command="survival", eps1="0.2", extra="""
[time]
t_min = 0.0
t_max = 1.0
n_points = 3

[sweep]
parameter = g
lo = 0.3
hi = 0.5
n = 2
""")
    out = str(tmp_path / "sweep.csv")
    rc = main(["survival", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == 0
    header, rows = read_csv(out)
    assert header[0] == "g"
    keys = [(float(r[0]), float(r[1])) for r in rows]
    assert keys == sorted(keys)  # sorted by sweep value then t


def test_survival_sweep_names_components_by_position_when_classes_change(
        tmp_path):
    # the second state is anti-bound at eps1 = 0.187069 and bound at the
    # other two values, so no class label fits a whole column
    params = """
[run]
schema_version = 1
model = tdot
command = survival

[params]
b = 1.0
eps1 = {eps1!r}
eps2 = -0.125099
g = 0.369192
t2l = 0.95332
t2r = 1.067363

[time]
t_min = -2.0
t_max = 2.0
n_points = 5

[survival]
components = true
"""
    sweep = params.format(eps1=0.187069) + """
[sweep]
parameter = eps1
lo = 0.187069
hi = 0.287069
n = 3
"""
    out = str(tmp_path / "sweep.csv")
    assert main(["survival", "--config", write_cfg(tmp_path, sweep),
                 "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[5:] == [f"{part}_chi_{i}" for i in range(1, 5)
                          for part in ("re", "im")]
    single_headers = set()
    for k, eps1 in enumerate(np.linspace(0.187069, 0.287069, 3)):
        one = str(tmp_path / f"one{k}.csv")
        assert main(["survival", "--config",
                     write_cfg(tmp_path, params.format(eps1=float(eps1)),
                               f"one{k}.cfg"), "--out", one]) == 0
        one_header, one_rows = read_csv(one)
        single_headers.add(tuple(one_header))
        assert [r[1:] for r in rows[5 * k:5 * k + 5]] == one_rows
    assert len(single_headers) > 1


def test_survival_sweep_pads_a_missing_state_with_zero(tmp_path):
    # at t2r = 0.8 the lead coupling is T = b, where the quartic is a cubic:
    # 3 states there and 4 at the other two sweep values
    cfg = """
[run]
schema_version = 1
model = tdot
command = survival

[params]
b = 1.0
eps1 = 0.2
eps2 = 0.1
g = 0.4
t2l = 0.6
t2r = 0.7

[time]
t_min = -2.0
t_max = 2.0
n_points = 5

[survival]
components = true

[sweep]
parameter = t2r
lo = 0.7
hi = 0.8
n = 3
"""
    out = str(tmp_path / "sweep.csv")
    with pytest.warns(DegenerateLeadCoupling):
        assert main(["survival", "--config", write_cfg(tmp_path, cfg),
                     "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[5:] == [f"{part}_chi_{i}" for i in range(1, 5)
                          for part in ("re", "im")]
    values = np.array(rows, dtype=float)
    t2r, re_chi, im_chi = values[:, 0], values[:, 5::2], values[:, 6::2]
    assert np.all(re_chi[t2r == 0.8, 3] == 0.0)
    assert np.all(im_chi[t2r == 0.8, 3] == 0.0)
    assert np.all(re_chi[t2r < 0.8, 3] != 0.0)
    np.testing.assert_allclose(re_chi.sum(axis=1), values[:, 2], rtol=0,
                               atol=1e-8)
    np.testing.assert_allclose(im_chi.sum(axis=1), values[:, 3], rtol=0,
                               atol=1e-8)


def test_format_constraints(tmp_path, capsys):
    cfg = BASE_TDOT.format(command="zeno", eps1="0.2", extra="")
    path = write_cfg(tmp_path, cfg)
    assert main(["zeno", "--config", path, "--format", "csv"]) == 2
    surv = BASE_TDOT.format(command="survival", eps1="0.2",
                            extra="[time]\nt_min = 0.0\nt_max = 0.0\nn_points = 1")
    path2 = write_cfg(tmp_path, surv, "surv.cfg")
    assert main(["survival", "--config", path2, "--format", "json"]) == 2
    capsys.readouterr()


NO_SCIPY_RUN = """
import os
import sys
import resdyn
import resdyn.cli as cli
out, cfg, friedrichs_cfg = sys.argv[1:]
runs = [["friedrichs", "--recipe", "fig11"], ["survival", "--recipe", "fig6a"],
        ["ratio", "--recipe", "fig8b"], ["spectrum", "--recipe", "fig2"],
        ["oracle-check", "--config", cfg],
        ["oracle-check", "--config", friedrichs_cfg]]
codes = [cli.main(argv + ["--out", f"{out}/{i}"]) for i, argv in enumerate(runs)]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
      sorted(m for m in sys.modules if m.startswith("numpy.polynomial")),
      os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.parametrize("blas_threads", [None, "2"])
def test_cli_runs_on_numpy_alone(tmp_path, monkeypatch, blas_threads):
    """Importing the package and running every model's commands, the oracle
    and the Friedrichs cut quadrature (t = 0 included) too, loads no scipy
    module and no numpy.polynomial module (the roots of fig2's quartics and
    fig11's cubic come from stacked companion matrices); the package,
    loading numpy, defaults OpenBLAS to one thread unless the environment
    sets it."""
    import resdyn

    if blas_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)

    cfg = BASE_TDOT.format(
        command="oracle-check", eps1="0.2",
        extra="[time]\nt_min = -20.0\nt_max = 20.0\nn_points = 5\n"
              "[oracle]\nn_sites = 50")
    # the cut quadrature is the package's only GK15 caller; t = 0 lies on
    # this grid, so its group of one runs too
    friedrichs_cfg = """
[run]
schema_version = 1
model = friedrichs
command = oracle-check

[params]
omega1 = 1.0
beta = 0.5
g = 0.08

[time]
t_min = -6.0
t_max = 6.0
n_points = 13
"""
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path),
         write_cfg(tmp_path, cfg),
         write_cfg(tmp_path, friedrichs_cfg, "friedrichs.cfg")],
        capture_output=True, text=True, check=True,
        cwd=str(Path(resdyn.__file__).parents[1]))
    assert out.stdout.strip() == \
        f"[0, 0, 0, 0, 0, 0] [] [] {blas_threads or 1}"
