"""Acceptance suite: every criterion at its stated tolerance.

Each test emits one ACCEPTANCE line directly to the terminal.  The two
benchmark-comparison trajectories integrate 30k periods each and dominate
the runtime (several seconds with the compiled integrator, about half a
minute without it).
"""

import importlib.resources
import math

import numpy as np
import pytest

from fd_oracle import fd_derivative
from liees import analysis, chenfliess, cli, costs, lie, verify
from liees.analysis import closeness, envelope, fit_rate
from liees.chenfliess import compute_signature
from liees.dither import make_design
from liees.sim import IntegratorConfig, build_mixed, build_two_input, integrate, integrate_lbs

QUARTIC = costs.make_power_cost(1.0, 1.0, 4)


def _bundled_config(name):
    ref = importlib.resources.files("liees") / "configs" / name
    return cli.load_config(str(ref))


@pytest.fixture(scope="module")
def fig1_runs(tmp_path_factory):
    """Both benchmark systems: quartic cost, x0 = 0, eps = 1e-4, kappa = 1.

    The criterion's decay dichotomy is only expressible once the gradient
    flow (1 + 8t)^(-1/2) has entered its scaling regime, so the bundled
    configs integrate to t = 3.0 rather than 0.02.
    """
    out = tmp_path_factory.mktemp("fig1")
    runs = {}
    for name in ("fig1_we", "fig1_durr"):
        cfg = _bundled_config(f"{name}.json")
        assert cfg["epsilon"] == 1e-4 and cfg["x0"] == 0.0 and cfg["xstar"] == 1.0
        runs[name] = cli.run_experiment(cfg, str(out))
    return runs


def test_criterion_1_fig1_reproduction(fig1_runs, capsys):
    we, we_traj = fig1_runs["fig1_we"]
    durr, durr_traj = fig1_runs["fig1_durr"]

    assert we["rate"]["rate_class"] == "exponential"
    assert we["rate"]["r_squared"] >= 0.95
    assert durr["rate"]["rate_class"] == "polynomial"
    assert durr["rate"]["power_exponent"] == pytest.approx(-0.5, abs=0.1)
    assert durr["rate"]["r_squared"] >= 0.95

    ttb_we = analysis.time_to_band(we_traj, 1.0, 0.05)
    ttb_durr = analysis.time_to_band(durr_traj, 1.0, 0.05)
    assert ttb_we <= 0.5 * ttb_durr

    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: we exponential (lambda={we['rate']['lambda']:.2f}, "
              f"r2={we['rate']['r_squared']:.4f}), durr polynomial "
              f"(p={durr['rate']['power_exponent']:.3f}, r2={durr['rate']['r_squared']:.4f}), "
              f"band times {ttb_we:.3f} vs {ttb_durr}")


def test_criterion_2_excitation_verification(capsys):
    # the checks of `liees verify excitation`; the line reports the
    # two-channel designs and the classic pair
    checks = verify.excitation()
    assert all(c.ok for c in checks), checks
    first12, second122, third1222, _, classic = checks
    details = [f"{c.label.split()[1]}:{c.values[0]:.4f}" for c in (first12, second122, third1222)]
    with capsys.disabled():
        print(f"\nACCEPTANCE 2 PASS: excitation ok ({', '.join(details)}); "
              f"classic I12={classic.values[0]:.8f}")


def test_criterion_3_remainder_scaling(capsys):
    x0 = 0.6
    eps_list = [1e-2, 3e-3, 1e-3, 3e-4]
    remainders = []
    for eps in eps_list:
        system = build_two_input(QUARTIC, 4, 1, eps, 1.0)
        cfg = IntegratorConfig(total_time=eps, steps_per_period=16384, decimation=16384)
        got = integrate(system, x0, cfg).states[-1]
        pred = chenfliess.endpoint_prediction(system, x0, order=4)
        remainders.append(abs(got - pred))
    slope = np.polyfit(np.log(eps_list), np.log(remainders), 1)[0]
    assert slope >= 1.10
    with capsys.disabled():
        print(f"\nACCEPTANCE 3 PASS: remainder slope {slope:.3f} >= 1.10 "
              f"(|R| = {', '.join(f'{r:.2e}' for r in remainders)})")


def test_criterion_4_lemma3_identity(capsys):
    checks = verify.lemma3()
    assert all(c.ok for c in checks), checks
    worst_overall = max(c.values[0] for c in checks)
    with capsys.disabled():
        print(f"\nACCEPTANCE 4 PASS: lemma-3 identity residual {worst_overall:.2e} <= 1e-6")


def test_criterion_5_stall_and_rescue(capsys):
    quad = costs.make_power_cost(1.0, 0.0, 2)

    # pure third-order design cannot move a quadratic cost: 100-period envelope
    stall_sys = build_two_input(quad, 4, 1, 1e-4, 1.0)
    traj = integrate(stall_sys, 1.0, IntegratorConfig(total_time=100 * 1e-4,
                                                      steps_per_period=512,
                                                      decimation=512))
    est_stall = fit_rate(envelope(traj, 0.0))
    assert est_stall.rate_class == "stalled"

    # the mixed design restores exponential convergence on the same cost
    mixed_quad = build_mixed(quad, 5, 1, 1.0, 1.0, 1e-3)
    traj = integrate(mixed_quad, 1.0, IntegratorConfig(total_time=1.5,
                                                       steps_per_period=512,
                                                       decimation=512))
    est_qd = fit_rate(envelope(traj, 0.0))
    assert est_qd.rate_class == "exponential"

    # and stays exponential on the quartic (m = 4)
    mixed_quart = build_mixed(QUARTIC, 5, 1, 1.0, 1.0, 1e-3)
    traj = integrate(mixed_quart, 0.0, IntegratorConfig(total_time=0.5,
                                                        steps_per_period=512,
                                                        decimation=512))
    est_qt = fit_rate(envelope(traj, 1.0))
    assert est_qt.rate_class == "exponential"
    with capsys.disabled():
        print(f"\nACCEPTANCE 5 PASS: stalled; mixed quadratic exponential "
              f"(lambda={est_qd.lam:.2f}); mixed quartic exponential (lambda={est_qt.lam:.2f})")


def test_criterion_6_averaged_flow_oracles(capsys):
    cost = costs.make_power_cost(0.5, 0.0, 2)
    traj = integrate_lbs(cost, [(1, 1.0)], 1.0, 5.0, 5000)
    err_exp = float(np.max(np.abs(traj.states - np.exp(-traj.times))))
    assert err_exp <= 1e-8

    cost = costs.make_power_cost(0.25, 0.0, 4)
    traj = integrate_lbs(cost, [(1, 1.0)], 1.0, 10.0, 10000)
    err_poly = float(np.max(np.abs(traj.states - (1 + 2 * traj.times) ** -0.5)))
    assert err_poly <= 1e-6
    with capsys.disabled():
        print(f"\nACCEPTANCE 6 PASS: closed-form flows (exp err {err_exp:.1e} <= 1e-8, "
              f"cubic err {err_poly:.1e} <= 1e-6)")


def test_criterion_7_property_suites(capsys):
    # antisymmetry / Jacobi / Wronskian residual / excitation / assumptions
    assert cli.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out

    # signature shuffle identities
    sig = compute_signature(make_design("third1222", 1.0), depth=4)
    assert chenfliess.shuffle_residual(sig) <= 1e-6

    # log/exp round trip
    std = [None] + [v.reshape((2,) * k).T.ravel() for k, v in enumerate(sig.levels[1:], start=1)]
    back = chenfliess.tensor_exp(chenfliess.tensor_log(std, 4), 4)
    scale = max(float(np.abs(v).max()) for v in std[1:])
    worst = max(float(np.abs(back[k] - std[k]).max()) for k in range(1, 5))
    assert worst <= 1e-9 * max(scale, 1.0)

    # RK4 order on the linear averaged system
    cost = costs.make_power_cost(0.5, 0.0, 2)
    errs = [abs(integrate_lbs(cost, [(1, 1.0)], 1.0, 1.0, s).states[-1] - math.exp(-1.0))
            for s in (8, 16, 32, 64)]
    slope = np.polyfit(np.log([8, 16, 32, 64]), np.log(errs), 1)[0]
    assert abs(slope + 4.0) <= 0.3

    # Wronskian defining relation
    g1, g2 = lie.make_wronskian_pair((0.0, 1.0))
    for z in np.linspace(-1.5, 1.5, 9):
        d2 = fd_derivative(g2, z, 1)
        d1 = fd_derivative(g1, z, 1)
        assert abs(g1(z) * d2 - d1 * g2(z) + z) <= 1e-8
    with capsys.disabled():
        print(f"\nACCEPTANCE 7 PASS: verify all green; shuffle {chenfliess.shuffle_residual(sig):.1e}; "
              f"RK4 slope {slope:.2f}")


def test_criterion_8_closeness_monotonicity(capsys):
    # first-order ES system versus its gradient-flow average
    total_time = 0.5
    lbs = integrate_lbs(QUARTIC, [(1, 1.0)], 0.0, total_time, 20000)
    values = []
    for eps in (1e-2, 1e-3, 1e-4):
        system = build_two_input(QUARTIC, 2, 1, eps, 1.0, kind="classic")
        cfg = IntegratorConfig(total_time=total_time, steps_per_period=512,
                               decimation=512)
        traj = integrate(system, 0.0, cfg)
        values.append(closeness(traj, lbs))
    assert values[0] > values[1] > values[2], values
    with capsys.disabled():
        print(f"\nACCEPTANCE 8 PASS: closeness strictly decreasing: "
              f"{values[0]:.4f} > {values[1]:.4f} > {values[2]:.4f}")
