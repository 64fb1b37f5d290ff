"""Acceptance suite: one test per numbered criterion, each at its stated
tolerance, printing one pass line per criterion (run with -s to see them).
"""

import numpy as np

from resdyn import cli
from resdyn import friedrichs as fm
from resdyn import lattice as lat
from resdyn import oracle as orc

from conftest import (
    ABS_LAM_R_REF,
    E_R_REF,
    FIG9_PARAMS,
    FIG11_PARAMS,
    FM_E_R_REF,
    random_tdot_params,
)
from _oracles import (
    expm_rows,
    inside_lambda_root,
    j1_transform,
    track_lambda_root,
)

TIGHT = lat.Tolerances(abs_tol=1e-12, rel_tol=1e-11)


def _report(number, text):
    print(f"[criterion {number:2d}] PASS - {text}")


def test_c01_spectrum_golden_values(fig9_spectrum):
    res = fig9_spectrum.resonant()
    assert abs(res.energy - E_R_REF) <= 1e-4
    assert abs(abs(res.lam) - ABS_LAM_R_REF) <= 1e-4
    _report(1, "lattice E_R and |lambda_R| match published values to 1e-4")


def test_c02_friedrichs_golden_values(fig11_poles):
    assert abs(fig11_poles["R"].energy - FM_E_R_REF) <= 5e-3
    assert abs(1.0 / abs(fig11_poles["R"].energy) - 1.02) <= 0.01 * 1.02
    _report(2, "Friedrichs E_R within 5e-3 and 1/|E_R| = 1.02 within 1%")


def test_c03_completeness_sum_rules(fig11_poles):
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        _p, s = random_tdot_params(rng)
        if not s.by_class(lat.StateClass.RESONANT):
            continue  # criterion samples the regime right of the EP
        assert s.completeness_defect() <= 1e-8
        checked += 1
    a_cut0 = fm.a_cut_direct(FIG11_PARAMS, 0.0, tol=TIGHT, poles=fig11_poles)
    assert abs(fig11_poles.bound_residue + a_cut0 - 1.0) <= 1e-6
    _report(3, "lattice completeness to 1e-8 on 50 draws; "
               "Friedrichs sum rule to 1e-6")


def test_c04_representation_cross_agreement(fig9_spectrum, fig11_poles):
    ts = np.linspace(-20.0, 20.0, 200)
    direct = lat.survival_direct(FIG9_PARAMS, ts, spectrum=fig9_spectrum)
    total = lat.amplitude_grid(fig9_spectrum, ts).sum(axis=0)
    worst = np.max(np.abs(direct - total))
    assert worst <= 1e-6
    ts = np.concatenate([np.linspace(-50, -2, 9), (-0.5, 0.5),
                         np.linspace(2, 50, 9)])
    total = sum(fm.a_component(FIG11_PARAMS, n, ts, poles=fig11_poles)
                for n in ("B", "R", "AR"))
    direct = fm.a_cut_direct(FIG11_PARAMS, ts, poles=fig11_poles)
    worst_fm = np.max(np.abs(total - direct))
    assert worst_fm <= 1e-6
    _report(4, f"contour vs component sums: lattice {worst:.1e}, "
               f"Friedrichs {worst_fm:.1e} (tolerance 1e-6)")


def test_c05_oracle_equivalence(fig9_spectrum):
    lattice = orc.build_hamiltonian(FIG9_PARAMS, 800)
    times = np.linspace(0.0, 50.0, 26)
    prop = orc.propagate(lattice, times)
    dev_d1 = np.max(np.abs(
        lat.survival_direct(FIG9_PARAMS, prop.times, spectrum=fig9_spectrum)
        - prop.amplitudes["d1"]))
    assert dev_d1 <= 1e-4
    devs = {"d1": dev_d1}
    for theta in (0.0, np.pi / 2):
        # H is real symmetric: <d1|e^{-iHt}|d2> = <d2|e^{-iHt}|d1>
        exact = (prop.amplitudes["d1"]
                 + np.exp(1j * theta) * prop.amplitudes["d2"]) / np.sqrt(2.0)
        weights = lat.theta_weights(fig9_spectrum, lat.ThetaState(theta))
        total = lat.amplitude_grid(fig9_spectrum, prop.times, weights).sum(axis=0)
        dev = np.max(np.abs(total - exact))
        assert dev <= 1e-4
        devs[f"theta={theta:.3f}"] = dev
    _report(5, "contour amplitudes match N=800 Chebyshev propagation to 1e-4 "
               f"({max(devs.values()):.1e} worst)")


def test_c06_time_reversal_suite(fig9_spectrum, fig11_poles):
    # survival_direct gives A(-t) as conj A(t), so -t is checked against
    # the truncated lattice inside its horizon of 50
    times = np.array([-1.0, -5.0, -10.0])
    exact, _ = expm_rows(orc.build_hamiltonian(FIG9_PARAMS, 100), times)
    am = lat.survival_direct(FIG9_PARAMS, times, tol=TIGHT, spectrum=fig9_spectrum)
    assert np.max(np.abs(am - exact)) <= 1e-8
    for t in (1.0, 5.0, 10.0):
        fp = fm.survival_total(FIG11_PARAMS, t, poles=fig11_poles)
        fmn = fm.survival_total(FIG11_PARAMS, -t, poles=fig11_poles)
        assert abs(abs(fp) - abs(fmn)) <= 1e-8
    r_idx = fig9_spectrum.states.index(fig9_spectrum.resonant())
    ar_idx = fig9_spectrum.states.index(
        fig9_spectrum.by_class(lat.StateClass.ANTI_RESONANT)[0])
    for t in (0.5, 3.0, -7.0):
        lhs = lat.component_chi(fig9_spectrum, ar_idx, t)
        rhs = np.conj(lat.component_chi(fig9_spectrum, r_idx, -t))
        assert abs(lhs - rhs) <= 1e-10
    for theta, t in ((0.9, 2.0), (np.pi / 2, 4.0), (-1.3, -1.5)):
        lhs = lat.theta_amplitude(fig9_spectrum, lat.ThetaState(theta), "total", t)
        rhs = np.conj(lat.theta_amplitude(fig9_spectrum, lat.ThetaState(-theta),
                                          "total", -t))
        assert abs(lhs - rhs) <= 1e-6
    _report(6, "T-symmetry: A(-t) matches the lattice (1e-8), Friedrichs |A| "
               "even (1e-8), anti-resonant conjugate "
               "reflection (1e-10), theta reflection (1e-6)")


def test_c07_symmetry_breaking_dynamics(fig9_spectrum):
    assert lat.ratio_r(fig9_spectrum, 0.0) == 1.0
    report = lat.zeno_time(fig9_spectrum)
    assert abs(report.t0 - 1.0) <= 0.01
    p_minus = lat.short_time_resonant_prob(fig9_spectrum, -report.t0)
    p_plus = lat.short_time_resonant_prob(fig9_spectrum, report.t0)
    assert p_minus < 0.01 * p_plus
    _report(7, f"r(0) = 1 exactly; t0 = {report.t0:.4f} (1.00 +/- 0.01); "
               f"P_R(-t0)/P_R(+t0) = {p_minus / p_plus:.1e} < 1%")


def test_c08_long_time_laws(fig9_spectrum, fig11_poles):
    # lattice: |A_R|^2 envelope of the closed-form asymptotic falls as t^-3
    ts = np.linspace(100.0, 400.0, 1201)
    vals = np.array([abs(lat.longtime_asymptotic(fig9_spectrum, float(t), +1)) ** 2
                     for t in ts])
    period = np.pi / (2.0 * FIG9_PARAMS.b)
    edges = np.arange(100.0, 400.0 + period, period)
    idx = np.searchsorted(ts, edges)
    tt, vv = [], []
    for a, b in zip(idx[:-1], idx[1:]):
        if b - a > 2:
            k = a + int(np.argmax(vals[a:b]))
            tt.append(ts[k])
            vv.append(vals[k])
    slope = np.polyfit(np.log(tt), np.log(vv), 1)[0]
    assert abs(slope + 3.0) <= 0.15
    # ratio at bt = 500 against the closed form
    r_exact = lat.ratio_r(fig9_spectrum, 500.0)
    r_closed = lat.longtime_ratio(fig9_spectrum, 500.0)
    assert abs(r_exact - r_closed) <= 0.20 * r_closed
    # Friedrichs negative-time resonant power law
    er = abs(fig11_poles["R"].energy)
    tsf = -np.linspace(40.0, 160.0, 25) / er
    valsf = [abs(fm.a_component(FIG11_PARAMS, "R", float(t), poles=fig11_poles))
             for t in tsf]
    slope_f = np.polyfit(np.log(-tsf), np.log(valsf), 1)[0]
    assert abs(slope_f + 1.5) <= 0.075
    _report(8, f"power laws: lattice envelope slope {slope:.3f} (-3 +/- 5%), "
               f"r(500) within {abs(r_exact - r_closed) / r_closed:.1%}, "
               f"Friedrichs slope {slope_f:.3f} (-3/2 +/- 5%)")


def test_c09_analytic_identities(fig9_spectrum, fig11_poles):
    b = FIG9_PARAMS.b
    res = fig9_spectrum.resonant()
    # the resonant identity is a second-sheet continuation: verify the
    # first-sheet closed form by quadrature where the integral converges,
    # then continue the inside root across the band cut by tracking
    e_up = np.conj(res.energy)
    direct = j1_transform(b, -e_up)  # the e^{+iEt'} transform
    assert abs(direct - (-1j) * inside_lambda_root(b, e_up)) <= 1e-7
    lam_tracked = track_lambda_root(b, e_up, res.energy,
                                    inside_lambda_root(b, e_up))
    assert abs((-1j) * lam_tracked - (-1j) * res.lam) <= 1e-6
    # bound-state version converges classically
    for s in fig9_spectrum.by_class(lat.StateClass.BOUND):
        value = j1_transform(b, s.energy)
        assert abs(value - 1j * s.lam) <= 1e-6
    # Friedrichs pointwise integrand identity
    es = np.linspace(1e-3, 10.0, 100)
    rational = fm.cut_integrand_rational(FIG11_PARAMS, es)
    poles_sum = sum(pole.weight / (es - pole.energy)
                    for pole in fig11_poles.roots)
    assert np.max(np.abs(rational - poles_sum)) <= 1e-10
    _report(9, "Bessel-transform identities (resonant via continuation, "
               "bound direct) to 1e-6; cut-integrand identity to 1e-10")


def test_c10_exceptional_point_structure():
    star = lat.ep_locate(FIG9_PARAMS, -3.0, 0.0)
    assert -3.0 < star < 0.0
    left = lat.discrete_spectrum(
        lat.TDotParams(1.0, star - 0.01, 0.0, 0.4, 1.0, 1.0))
    right = lat.discrete_spectrum(
        lat.TDotParams(1.0, star + 0.01, 0.0, 0.4, 1.0, 1.0))
    assert len(left.by_class(lat.StateClass.BOUND)) == 2
    assert len(left.by_class(lat.StateClass.ANTI_BOUND)) == 2
    assert len(right.by_class(lat.StateClass.BOUND)) == 2
    assert len(right.by_class(lat.StateClass.RESONANT)) == 1
    assert len(right.by_class(lat.StateClass.ANTI_RESONANT)) == 1
    near_ep = lat.discrete_spectrum(
        lat.TDotParams(1.0, -2.347528, 0.0, 0.4, 1.0, 1.0))
    far = lat.discrete_spectrum(FIG9_PARAMS)
    ts = np.linspace(0.25, 20.0, 80)
    max_far = max(abs(np.log10(lat.ratio_r(far, float(t)))) for t in ts)
    max_near = max(abs(np.log10(lat.ratio_r(near_ep, float(t)))) for t in ts)
    assert max_far >= 5.0 * max_near
    _report(10, f"EP at eps1* = {star:.6f}; class composition flips; "
                f"near-EP ratio {max_far / max_near:.0f}x flatter")


def test_c11_determinism_and_interface(tmp_path, capsys):
    recipe_commands = {
        "fig2": "spectrum", "fig5": "survival", "fig6a": "survival",
        "fig6b": "survival", "fig6c": "survival", "fig8a": "ratio",
        "fig8b": "ratio", "fig8c": "ratio", "fig9": "survival",
        "fig11": "friedrichs",
    }
    for name, command in recipe_commands.items():
        out1 = str(tmp_path / f"{name}_1.csv")
        out2 = str(tmp_path / f"{name}_2.csv")
        assert cli.main([command, "--recipe", name, "--out", out1]) == 0
        assert cli.main([command, "--recipe", name, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read(), name
    # exit-code contract
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not : a config %%\n][")
    assert cli.main(["zeno", "--config", str(bad)]) == 2
    no_res = tmp_path / "nores.cfg"
    no_res.write_text("""
[run]
schema_version = 1
model = tdot
command = ratio
[params]
b = 1.0
eps1 = -3.0
eps2 = 0.0
g = 0.4
t2l = 1.0
t2r = 1.0
[time]
t_min = 0.0
t_max = 1.0
n_points = 3
""")
    assert cli.main(["ratio", "--config", str(no_res)]) == 4
    capsys.readouterr()
    _report(11, "all 10 recipes regenerate byte-identically; exit codes "
                "2 (config) and 4 (no resonance) honored")
