"""Command-line interface: experiment runs, comparisons, coefficient tables,
rate fits, and the bundled verification suites.

Subcommands: run, compare, coeffs, rate, verify.  Exit codes: 0 success,
2 configuration, validation or I/O error, 3 numeric failure (verify: 1 on
any failed check).  The environment variable LIEES_QUAD_STEPS overrides the
signature quadrature resolution.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import analysis, chenfliess, costs, dither, lie, sim
from .errors import (
    ConstructionError,
    DivergenceError,
    InvalidDomainError,
    InvalidParameterError,
    LieesError,
    NumericFailureError,
    ResolutionError,
)

BUILDERS = ("two_input", "three_input", "mixed", "classic_durr", "fourth_order_we")


class ConfigError(Exception):
    """Carries the list of field-level validation messages."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _field(cfg: dict, path: str, typ, problems: list[str], required=True, default=None,
           check=None, describe=""):
    node = cfg
    parts = path.split(".")
    for p in parts[:-1]:
        node = node.get(p, {}) if isinstance(node, dict) else {}
    if not isinstance(node, dict) or parts[-1] not in node:
        if required:
            problems.append(f"missing field {path!r}")
        return default
    val = node[parts[-1]]
    if isinstance(val, bool) and typ is not bool:
        problems.append(f"field {path!r} must be {typ.__name__}, got bool")
        return default
    if typ is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, typ):
        problems.append(f"field {path!r} must be {typ.__name__}, got {type(val).__name__}")
        return default
    if typ is float and not math.isfinite(val):
        problems.append(f"field {path!r} must be finite, got {val}")
        return default
    if check is not None and not check(val):
        problems.append(f"field {path!r} out of range: {val} ({describe})")
        return default
    return val


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"])

    problems: list[str] = []
    out = {}
    out["cost_name"] = _field(cfg, "cost.name", str, problems,
                              check=lambda v: v == "power", describe="only 'power' is supported")
    out["alpha"] = _field(cfg, "cost.alpha", float, problems, check=lambda v: v > 0,
                          describe="must be positive")
    out["xstar"] = _field(cfg, "cost.xstar", float, problems)
    out["m"] = _field(cfg, "cost.m", int, problems, check=lambda v: v >= 2,
                      describe="must be an integer >= 2")
    builder = _field(cfg, "system.builder", str, problems,
                     check=lambda v: v in BUILDERS, describe=f"one of {BUILDERS}")
    out["builder"] = builder
    if builder == "two_input":
        out["N"] = _field(cfg, "system.N", int, problems, check=lambda v: v in (2, 3, 4),
                          describe="must be 2, 3 or 4")
        out["kappa"] = _field(cfg, "system.kappa", int, problems, required=False, default=1,
                              check=lambda v: v >= 1, describe="must be >= 1")
        out["gain"] = _field(cfg, "system.gain", float, problems, required=False, default=1.0,
                             check=lambda v: v > 0, describe="must be positive")
    elif builder == "three_input":
        out["phi2"] = _field(cfg, "system.phi2", float, problems,
                             check=lambda v: v != 0, describe="must be nonzero")
        out["kappa"] = _field(cfg, "system.kappa", int, problems, required=False, default=1,
                              check=lambda v: v >= 1, describe="must be >= 1")
    elif builder == "mixed":
        out["kappa12"] = _field(cfg, "system.kappa12", int, problems, check=lambda v: v >= 1,
                                describe="must be >= 1")
        out["kappa1222"] = _field(cfg, "system.kappa1222", int, problems, check=lambda v: v >= 1,
                                  describe="must be >= 1")
        out["gamma1"] = _field(cfg, "system.gamma1", float, problems, check=lambda v: v >= 0,
                               describe="must be nonnegative")
        out["gamma3"] = _field(cfg, "system.gamma3", float, problems, check=lambda v: v >= 0,
                               describe="must be nonnegative")
    out["epsilon"] = _field(cfg, "integrator.epsilon", float, problems,
                            check=lambda v: 0 < v <= 1, describe="must be in (0, 1]")
    out["steps_per_period"] = _field(cfg, "integrator.steps_per_period", int, problems,
                                     required=False, default=4096,
                                     check=lambda v: v >= 16, describe="must be >= 16")
    out["total_time"] = _field(cfg, "integrator.total_time", float, problems,
                               check=lambda v: v > 0, describe="must be positive")
    out["x0"] = _field(cfg, "integrator.x0", float, problems, required=False, default=0.0)
    out["fit"] = _field(cfg, "analysis.fit", bool, problems, required=False, default=True)
    out["lbs_compare"] = _field(cfg, "analysis.lbs_compare", bool, problems,
                                required=False, default=False)
    out["trajectory_csv"] = _field(cfg, "output.trajectory_csv", str, problems,
                                   required=False, default=None)
    out["summary_json"] = _field(cfg, "output.summary_json", str, problems,
                                 required=False, default=None)
    out["decimation"] = _field(cfg, "output.decimation", int, problems, required=False,
                               default=0, check=lambda v: v >= 0,
                               describe="must be >= 0 (0 = once per period)")
    if problems:
        raise ConfigError(problems)
    return out


def build_from_config(cfg: dict) -> sim.ESSystem:
    cost = costs.make_power_cost(cfg["alpha"], cfg["xstar"], cfg["m"])
    b = cfg["builder"]
    if b == "classic_durr":
        return sim.build_two_input(cost, 2, 1, cfg["epsilon"], 1.0, kind="classic")
    if b == "fourth_order_we":
        return sim.build_two_input(cost, 4, 1, cfg["epsilon"], 1.0)
    if b == "two_input":
        return sim.build_two_input(cost, cfg["N"], cfg["kappa"], cfg["epsilon"], cfg["gain"])
    if b == "three_input":
        return sim.build_three_input(cost, cfg["phi2"], cfg["epsilon"], cfg["kappa"])
    return sim.build_mixed(cost, cfg["kappa12"], cfg["kappa1222"],
                           cfg["gamma1"], cfg["gamma3"], cfg["epsilon"])


def _lbs_terms(cfg: dict) -> list[tuple[int, float]]:
    b = cfg["builder"]
    if b == "classic_durr":
        return [(1, 1.0)]
    if b == "fourth_order_we":
        return [(3, 1.0)]
    if b == "two_input":
        return [(cfg["N"] - 1, cfg["gain"])]
    if b == "three_input":
        return [(2, cfg["phi2"] ** 2)]
    return [(1, cfg["gamma1"]), (3, cfg["gamma3"])]


def run_experiment(cfg: dict, out_dir: str = ".") -> tuple[dict, sim.Trajectory]:
    """Build, integrate, optionally fit; returns the summary dict and the trajectory."""
    system = build_from_config(cfg)
    dec = cfg["decimation"] or cfg["steps_per_period"]
    config = sim.IntegratorConfig(total_time=cfg["total_time"],
                                  steps_per_period=cfg["steps_per_period"],
                                  decimation=dec)
    traj = sim.integrate(system, cfg["x0"], config)
    summary: dict = {
        "builder": cfg["builder"],
        "epsilon": cfg["epsilon"],
        "total_time": cfg["total_time"],
        "x0": cfg["x0"],
        "xstar": cfg["xstar"],
        "final_x": float(traj.states[-1]),
        "periods": traj.meta["periods"],
    }
    if cfg["fit"]:
        est = analysis.fit_rate(analysis.envelope(traj, cfg["xstar"]))
        summary["rate"] = {
            "rate_class": est.rate_class,
            "lambda": est.lam,
            "power_exponent": est.power_exponent,
            "r_squared": est.r_squared,
            "rho": est.rho,
            "ambiguous": est.ambiguous,
        }
        summary["time_to_band_0.05"] = _json_num(
            analysis.time_to_band(traj, cfg["xstar"], 0.05))
    if cfg["lbs_compare"]:
        n_periods = traj.meta["periods"]
        lbs = sim.integrate_lbs(system.cost, _lbs_terms(cfg), cfg["x0"],
                                n_periods * cfg["epsilon"], 4 * n_periods,
                                record_epsilon=cfg["epsilon"])
        summary["lbs_closeness"] = analysis.closeness(traj, lbs)
    if cfg["trajectory_csv"]:
        sim.write_trajectory_csv(traj, os.path.join(out_dir, cfg["trajectory_csv"]))
    if cfg["summary_json"]:
        with open(os.path.join(out_dir, cfg["summary_json"]), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary, traj


def _json_num(v):
    if v is None or (isinstance(v, float) and math.isinf(v)):
        return None
    return v


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.steps_per_period:
        cfg["steps_per_period"] = args.steps_per_period
    if args.decimate:
        cfg["decimation"] = args.decimate
    summary, _ = run_experiment(cfg, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    cfg_a = load_config(args.config_a)
    cfg_b = load_config(args.config_b)
    if cfg_a["epsilon"] != cfg_b["epsilon"]:
        raise ConfigError([f"epsilon mismatch: {cfg_a['epsilon']} vs {cfg_b['epsilon']}"])
    if cfg_a["total_time"] != cfg_b["total_time"]:
        raise ConfigError([f"total_time mismatch: {cfg_a['total_time']} vs {cfg_b['total_time']}"])
    _, ta = run_experiment(cfg_a, args.out_dir)
    _, tb = run_experiment(cfg_b, args.out_dir)
    with open(args.out, "w") as fh:
        fh.write("t,x_a,x_b,J_a,J_b\n")
        sim.write_csv_rows(fh, (ta.times, ta.states, tb.states, ta.cost_values, tb.cost_values),
                           "%.17g,%.17g,%.17g,%.17g,%.17g\n")
    band = args.band
    verdict = {
        "band": band,
        "time_to_band_a": _json_num(analysis.time_to_band(ta, cfg_a["xstar"], band)),
        "time_to_band_b": _json_num(analysis.time_to_band(tb, cfg_b["xstar"], band)),
    }
    vpath = os.path.splitext(args.out)[0] + ".json"
    with open(vpath, "w") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0


def _finite(option: str, value: float) -> float:
    if not math.isfinite(value):
        raise InvalidParameterError(f"{option} must be finite, got {value}")
    return value


def cmd_coeffs(args) -> int:
    eps = _finite("--epsilon", args.epsilon)
    kind = args.kind
    if kind == "triple123":
        specs = dither.make_triple(eps, args.kappa)
    else:
        specs = dither.make_pair(kind, eps, args.kappa)
    fastest = max(d.fastest_harmonic for d in specs)
    quad = args.quadrature_steps or None
    if quad is not None and quad < 16 * fastest:
        raise InvalidParameterError(
            f"--quadrature-steps must be 0 (the default) or at least {16 * fastest}, "
            f"16 per cycle of the fastest harmonic ({fastest}/period), got {quad}")
    sig = chenfliess.compute_signature(specs, depth=4, quadrature_steps=quad)
    coeffs = chenfliess.log_signature(sig)
    lines = ["bracket_word,coefficient"]
    for w in coeffs.labels():
        lines.append(f"{''.join(map(str, w))},{coeffs.coefficient(w):.17g}")
    csv_text = "\n".join(lines) + "\n"
    verdict = None
    if args.target:
        try:
            target = tuple(int(c) for c in args.target.split(",") if c)
        except ValueError:
            raise InvalidParameterError(
                f"--target must be comma-separated integers, got {args.target!r}") from None
        report = chenfliess.verify_excitation(specs, target, tol=args.tol,
                                              quadrature_steps=quad)
        verdict = {
            "target": list(report.target),
            "target_coeff": report.target_coeff,
            "max_offtarget": report.max_offtarget,
            "ok": report.ok,
        }
    if args.out:
        with open(args.out + ".csv", "w") as fh:
            fh.write(csv_text)
        if verdict is not None:
            with open(args.out + ".json", "w") as fh:
                json.dump(verdict, fh, indent=2, sort_keys=True)
                fh.write("\n")
    else:
        sys.stdout.write(csv_text)
    if verdict is not None:
        print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0


def cmd_rate(args) -> int:
    eps = _finite("--epsilon", args.epsilon)
    xstar = _finite("--xstar", args.xstar)
    traj = sim.read_trajectory_csv(args.traj, epsilon=eps)
    if 0 < eps < traj.dt:
        raise InvalidParameterError(
            f"--epsilon {eps:g} is shorter than the sample step {traj.dt:g} of {args.traj}")
    est = analysis.fit_rate(analysis.envelope(traj, xstar))
    out = {
        "rate_class": est.rate_class,
        "lambda": est.lam,
        "power_exponent": est.power_exponent,
        "r_squared": est.r_squared,
        "rho": est.rho,
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_brackets() -> list[tuple[str, bool, str]]:
    checks = []
    quad = costs.make_power_cost(1.0, 0.0, 2)
    quart = costs.make_power_cost(1.0, 1.0, 4)
    shapes = [lie.ScalarField(lambda z: z, quart), lie.ScalarField(lambda z: 1.0, quart),
              lie.ScalarField(math.sin, quart), lie.ScalarField(math.cos, quart)]
    worst_anti = 0.0
    for f in shapes:
        for g in shapes:
            for x in (0.2, 0.8, 1.7):
                ab = lie.bracket2(f, g, x)
                ba = lie.bracket2(g, f, x)
                worst_anti = max(worst_anti, abs(ab + ba) / max(abs(ab), abs(ba), 1.0))
    checks.append(("bracket antisymmetry <= 1e-9", worst_anti <= 1e-9, f"{worst_anti:.2e}"))

    # [[a,b],c] + [[b,c],a] + [[c,a],b] = 0 at sampled points
    worst_jac = 0.0
    f, g, h = shapes[0], shapes[2], shapes[3]
    for x in (0.3, 0.9, 1.6):
        scale = 0.0
        total = 0.0
        for (a, b, c) in ((f, g, h), (g, h, f), (h, f, g)):
            val = lie.iterated_bracket([a, b, c], (1, 2, 3), x)
            total += val
            scale = max(scale, abs(val))
        worst_jac = max(worst_jac, abs(total) / max(scale, 1.0))
    checks.append(("Jacobi identity <= 1e-6", worst_jac <= 1e-6, f"{worst_jac:.2e}"))

    ok_pairs = True
    detail = []
    for N, cost, x in ((2, quad, 1.3), (3, quad, 0.4), (4, quart, 0.2)):
        g1, g2 = lie.make_generating_pair(N, 1.0)
        fields = [lie.ScalarField(g1, cost), lie.ScalarField(g2, cost)]
        val = lie.iterated_bracket(fields, (1,) + (2,) * (N - 1), x)
        target = -costs.derivative(cost, N - 1, x)
        rel = abs(val - target) / max(abs(target), 1.0)
        detail.append(f"N={N}:{rel:.1e}")
        ok_pairs &= rel <= 1e-3
    checks.append(("generating pair bracket = -c J^(N-1)", ok_pairs, " ".join(detail)))

    g1, g2, g3, g4 = lie.make_quadruple_family(lambda z: 1.0)
    fields = [lie.ScalarField(g, quart) for g in (g1, g2, g3, g4)]
    val = lie.iterated_bracket(fields, (1, 2, 3, 4), 0.0)
    rel = abs(val - 24.0) / 24.0
    checks.append(("quadruple family bracket = -phi3^2 J'''", rel <= 1e-3, f"{rel:.1e}"))
    return checks


def _suite_excitation(quad_steps: int | None) -> list[tuple[str, bool, str]]:
    checks = []
    cases = [
        ("first12", dither.make_pair("first12", 1e-6), (1, 2)),
        ("second122", dither.make_pair("second122", 1e-4), (1, 2, 2)),
        ("third1222", dither.make_pair("third1222", 1e-4), (1, 2, 2, 2)),
        ("triple123", dither.make_triple(1e-4), (1, 2, 3)),
    ]
    for name, specs, target in cases:
        rep = chenfliess.verify_excitation(specs, target, tol=1e-3,
                                           quadrature_steps=quad_steps)
        checks.append((f"excitation {name} -> {target}", rep.ok,
                       f"target {rep.target_coeff:.4f} max_off {rep.max_offtarget:.1e}"))
    eps = 1.0
    sig = chenfliess.compute_signature(dither.make_pair("classic", eps), depth=2,
                                       quadrature_steps=quad_steps or 1 << 14)
    e12 = abs(sig.entry((1, 2)) + eps) / eps
    e21 = abs(sig.entry((2, 1)) - eps) / eps
    checks.append(("classic pair I12 = -eps, I21 = +eps (rel 1e-6)",
                   max(e12, e21) <= 1e-6, f"{max(e12, e21):.1e}"))
    return checks


def _suite_lemma3() -> list[tuple[str, bool, str]]:
    import numpy as np

    checks = []
    for cost, dom in ((costs.make_power_cost(1.0, 0.0, 2), (-1.0, 1.0)),
                      (costs.make_power_cost(1.0, 1.0, 4), (0.0, 2.0))):
        for phi_name, phi in (("1", lambda z: 1.0), ("sqrt2", lambda z: math.sqrt(2.0)),
                              ("z", lambda z: z)):
            g1, g2, g3 = lie.make_triple_family(phi, cost=cost, domain=dom)
            fields = [lie.ScalarField(g, cost) for g in (g1, g2, g3)]
            xs = [x for x in np.linspace(dom[0], dom[1], 50)
                  if abs(x - cost.xstar) > 0.1]
            resid = 0.0
            scale = 0.0
            for x in xs:
                val = lie.iterated_bracket(fields, (1, 2, 3), x)
                target = -phi(cost.eval(x)) ** 2 * costs.derivative(cost, 2, x)
                resid = max(resid, abs(val - target))
                scale = max(scale, abs(target))
            rel = resid / max(scale, 1e-12)
            checks.append((f"lemma3 phi2={phi_name} m={cost.degree}", rel <= 1e-6, f"{rel:.1e}"))
    return checks


def _suite_assumptions() -> list[tuple[str, bool, str]]:
    checks = []
    quart = costs.make_power_cost(1.0, 1.0, 4)
    quad = costs.make_power_cost(1.0, 0.0, 2)
    for aid in (1, 2, 3):
        rep = costs.check_assumption(quart, aid, (0.0, 2.0), 33)
        checks.append((f"power(1,1,4) assumption {aid} satisfied", rep.satisfied,
                       ",".join(rep.failures) or "ok"))
    rep = costs.check_assumption(quad, 3, (-1.0, 1.0), 33)
    checks.append(("power(1,0,2) assumption 3 satisfied (beta21=0)",
                   rep.satisfied and rep.constants["beta21"] == 0.0,
                   f"beta21={rep.constants['beta21']}"))
    rep = costs.check_assumption(costs.make_abs_cost(), 2, (-1.0, 1.0), 33)
    checks.append(("abs cost assumption 2 rejected", not rep.satisfied,
                   ",".join(rep.failures) or "unexpectedly ok"))
    return checks


def cmd_verify(args) -> int:
    suites = {
        "brackets": _suite_brackets,
        "excitation": lambda: _suite_excitation(None),
        "lemma3": _suite_lemma3,
        "assumptions": _suite_assumptions,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for label, ok, detail in suites[name]():
            all_ok &= ok
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label} ({detail})")
    return 0 if all_ok else 1


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="liees",
                                description="Lie-bracket extremum-seeking toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run one experiment config")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", default=".", help="directory for output files")
    pr.add_argument("--steps-per-period", type=int, default=0)
    pr.add_argument("--decimate", type=int, default=0)
    pr.set_defaults(fn=cmd_run)

    pc = sub.add_parser("compare", help="run two configs and emit aligned CSV + verdict")
    pc.add_argument("--config-a", required=True)
    pc.add_argument("--config-b", required=True)
    pc.add_argument("--out", required=True, help="path of the aligned CSV")
    pc.add_argument("--out-dir", default=".", help="directory for per-config outputs")
    pc.add_argument("--band", type=float, default=0.05)
    pc.set_defaults(fn=cmd_compare)

    pk = sub.add_parser("coeffs", help="bracket coefficient table for a dither design")
    pk.add_argument("--kind", required=True,
                    choices=["first12", "classic", "second122", "third1222", "triple123"])
    pk.add_argument("--epsilon", type=float, required=True)
    pk.add_argument("--kappa", type=int, default=1)
    pk.add_argument("--target", default="", help="comma-separated bracket index")
    pk.add_argument("--tol", type=float, default=1e-3)
    pk.add_argument("--quadrature-steps", type=int, default=0)
    pk.add_argument("--out", default="", help="output path prefix (.csv/.json)")
    pk.set_defaults(fn=cmd_coeffs)

    pt = sub.add_parser("rate", help="fit a decay rate to a trajectory CSV")
    pt.add_argument("--traj", required=True)
    pt.add_argument("--xstar", type=float, required=True)
    pt.add_argument("--epsilon", type=float, required=True)
    pt.add_argument("--out", default="")
    pt.set_defaults(fn=cmd_rate)

    pv = sub.add_parser("verify", help="run bundled property suites")
    pv.add_argument("suite", choices=["all", "brackets", "excitation", "lemma3", "assumptions"])
    pv.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for prob in exc.problems:
            print(f"config error: {prob}", file=sys.stderr)
        return 2
    except (InvalidParameterError, InvalidDomainError, ConstructionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailureError, DivergenceError, ResolutionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except LieesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
