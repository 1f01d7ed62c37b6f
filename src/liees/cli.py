"""Command-line interface: experiment runs, comparisons, coefficient tables,
rate fits, and the bundled verification suites.

Subcommands: run, compare, coeffs, rate, verify.  Exit codes: 0 success,
2 configuration, validation or I/O error (a step count too coarse for the
design, or one whose arrays cannot be allocated, included), 3 numeric
failure (verify: 1 on any failed check).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

from . import analysis, chenfliess, costs, dither, sim, verify
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
        val = float(val) if abs(val) <= sys.float_info.max else math.inf
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
        out["N"] = _field(cfg, "system.N", int, problems,
                          check=lambda v: v in sim.TWO_INPUT_KINDS, describe="must be 2, 3 or 4")
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


def _check_output_dirs(paths: list[str]) -> None:
    """Raise, before any work, the OSError that open(path, "w") raises for a
    new file in a missing or unwritable directory."""
    for path in paths:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
        if not (os.path.exists(path) or os.access(parent, os.W_OK | os.X_OK)):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def run_experiment(cfg: dict, out_dir: str = ".") -> tuple[dict, sim.Trajectory]:
    """Build, integrate, optionally fit; returns the summary dict and the trajectory."""
    system = build_from_config(cfg)
    dec = cfg["decimation"] or cfg["steps_per_period"]
    config = sim.IntegratorConfig(total_time=cfg["total_time"],
                                  steps_per_period=cfg["steps_per_period"],
                                  decimation=dec)
    _check_output_dirs([os.path.join(out_dir, cfg[k])
                        for k in ("trajectory_csv", "summary_json") if cfg[k]])
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
        summary["rate"] = dict(_rate_fields(est), ambiguous=est.ambiguous)
        summary["time_to_band_0.05"] = _json_num(
            analysis.time_to_band(traj, cfg["xstar"], 0.05))
    if cfg["lbs_compare"]:
        n_periods = traj.meta["periods"]
        lbs = sim.integrate_lbs(system.cost, system.meta["lbs_terms"], cfg["x0"],
                                n_periods * cfg["epsilon"], 4 * n_periods,
                                record_epsilon=cfg["epsilon"])
        summary["lbs_closeness"] = analysis.closeness(traj, lbs)
    if cfg["trajectory_csv"]:
        sim.write_trajectory_csv(traj, os.path.join(out_dir, cfg["trajectory_csv"]))
    if cfg["summary_json"]:
        _dump_json(summary, os.path.join(out_dir, cfg["summary_json"]))
    return summary, traj


def _rate_fields(est: analysis.RateEstimate) -> dict:
    return {"rate_class": est.rate_class, "lambda": est.lam,
            "power_exponent": est.power_exponent, "r_squared": est.r_squared, "rho": est.rho}


def _dump_json(obj, path: str = "") -> str:
    """obj as indented, key-sorted JSON; also written to path, if given, with a newline."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


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
    print(_dump_json(summary))
    return 0


def cmd_compare(args) -> int:
    band = _positive("--band", args.band)
    cfg_a = load_config(args.config_a)
    cfg_b = load_config(args.config_b)
    if cfg_a["epsilon"] != cfg_b["epsilon"]:
        raise ConfigError([f"epsilon mismatch: {cfg_a['epsilon']} vs {cfg_b['epsilon']}"])
    if cfg_a["total_time"] != cfg_b["total_time"]:
        raise ConfigError([f"total_time mismatch: {cfg_a['total_time']} vs {cfg_b['total_time']}"])
    # the sample step is eps * decimation / steps_per_period (decimation 0: one period)
    eps, s_a, s_b = cfg_a["epsilon"], cfg_a["steps_per_period"], cfg_b["steps_per_period"]
    dec_a, dec_b = cfg_a["decimation"] or s_a, cfg_b["decimation"] or s_b
    if dec_a * s_b != dec_b * s_a:
        raise ConfigError([f"sample step mismatch: {eps * dec_a / s_a:g} vs {eps * dec_b / s_b:g}"])
    verdict_json = os.path.splitext(args.out)[0] + ".json"
    _check_output_dirs([args.out, verdict_json])
    _, ta = run_experiment(cfg_a, args.out_dir)
    _, tb = run_experiment(cfg_b, args.out_dir)
    with open(args.out, "w") as fh:
        fh.write("t,x_a,x_b,J_a,J_b\n")
        sim.write_csv_rows(fh, (ta.times, ta.states, tb.states, ta.cost_values, tb.cost_values))
    verdict = {
        "band": band,
        "time_to_band_a": _json_num(analysis.time_to_band(ta, cfg_a["xstar"], band)),
        "time_to_band_b": _json_num(analysis.time_to_band(tb, cfg_b["xstar"], band)),
    }
    print(_dump_json(verdict, verdict_json))
    return 0


def _finite(option: str, value: float) -> float:
    if not math.isfinite(value):
        raise InvalidParameterError(f"{option} must be finite, got {value}")
    return value


def _positive(option: str, value: float) -> float:
    if _finite(option, value) <= 0:
        raise InvalidParameterError(f"{option} must be positive, got {value}")
    return value


def cmd_coeffs(args) -> int:
    eps = _finite("--epsilon", args.epsilon)
    tol = _positive("--tol", args.tol)
    specs = dither.make_design(args.kind, eps, args.kappa)
    verdict = None
    if args.target:
        try:
            target = tuple(int(c) for c in args.target.split(",") if c)
        except ValueError:
            raise InvalidParameterError(
                f"--target must be comma-separated integers, got {args.target!r}") from None
        report = chenfliess.verify_excitation(specs, target, tol=tol)
        coeffs = report.coefficients
        verdict = {
            "target": list(report.target),
            "target_coeff": report.target_coeff,
            "max_offtarget": report.max_offtarget,
            "ok": report.ok,
        }
    else:
        coeffs = chenfliess.log_signature(chenfliess.compute_signature(specs))
    lines = ["bracket_word,coefficient"]
    for w in coeffs.labels():
        lines.append(f"{''.join(map(str, w))},{coeffs.coefficient(w):.17g}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out + ".csv", "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if verdict is not None:
        print(_dump_json(verdict, args.out and args.out + ".json"))
    return 0


def cmd_rate(args) -> int:
    eps = _finite("--epsilon", args.epsilon)
    xstar = _finite("--xstar", args.xstar)
    traj = sim.read_trajectory_csv(args.traj, epsilon=eps)
    if 0 < eps < traj.dt:
        raise InvalidParameterError(
            f"--epsilon {eps:g} is shorter than the sample step {traj.dt:g} of {args.traj}")
    est = analysis.fit_rate(analysis.envelope(traj, xstar))
    print(_dump_json(_rate_fields(est), args.out))
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for check in verify.SUITES[name]():
            all_ok &= check.ok
            print(f"[{'PASS' if check.ok else 'FAIL'}] {name}: {check.label} ({check.detail})")
    return 0 if all_ok else 1


class UsageError(Exception):
    """An argument the parser rejects, as the one line `<prog>: error: ...`."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that rejects an
    argument with UsageError instead of printing its usage and exiting."""

    def error(self, message):
        # an unrecognized argument is quoted as given, line breaks and all
        message = message.replace("\n", "\\n")
        raise UsageError(f"{self.prog}: error: {message}")


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="liees", description="Lie-bracket extremum-seeking toolkit")
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
    pk.add_argument("--kind", required=True, choices=list(dither.DESIGNS))
    pk.add_argument("--epsilon", type=float, required=True)
    pk.add_argument("--kappa", type=int, default=1)
    pk.add_argument("--target", default="", help="comma-separated bracket index")
    pk.add_argument("--tol", type=float, default=1e-3)
    pk.add_argument("--quadrature-steps", type=int, default=0,
                    help="no effect: the coefficients are exact")
    pk.add_argument("--out", default="", help="output path prefix (.csv/.json)")
    pk.set_defaults(fn=cmd_coeffs)

    pt = sub.add_parser("rate", help="fit a decay rate to a trajectory CSV")
    pt.add_argument("--traj", required=True)
    pt.add_argument("--xstar", type=float, required=True)
    pt.add_argument("--epsilon", type=float, required=True)
    pt.add_argument("--out", default="")
    pt.set_defaults(fn=cmd_rate)

    pv = sub.add_parser("verify", help="run bundled property suites")
    pv.add_argument("suite", choices=["all", *verify.SUITES])
    pv.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ConfigError as exc:
        for prob in exc.problems:
            print(f"config error: {prob}", file=sys.stderr)
        return 2
    except (InvalidParameterError, InvalidDomainError, ConstructionError,
            ResolutionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailureError, DivergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except LieesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"memory error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
