"""Child process of the benchmark, the only process that imports liees.

    worker.py serve SPEC [--trace]   set up from SPEC, print a ready line, then
                                     answer one JSON operation per stdin line
    worker.py probe SPEC             set up from SPEC, print the ready line, exit
    worker.py endpoint SPEC          the design_verify library process: build
                                     the mixed system and predict one endpoint

SPEC is a JSON file written by run.py.  Every operation reply carries `op_s`,
the time spent inside liees calls only; loading the benchmark's own input
arrays and checking round trips happen outside it.
"""

import contextlib
import io
import json
import math
import sys
import time
import traceback

import liees  # noqa: F401  (timed: T_IMPORTED marks the end of process start)

T_IMPORTED = time.perf_counter()

import numpy as np  # noqa: E402

from liees import analysis, chenfliess, cli, costs, sim  # noqa: E402

PROTO = sys.stdout


def reply(obj) -> None:
    PROTO.write(json.dumps(obj) + "\n")
    PROTO.flush()


def build_systems(spec: dict) -> tuple[dict, dict]:
    """Load and build every system the workload uses; returns (systems, timings)."""
    systems = {}
    load_s = build_s = 0.0
    for sid, path in spec.get("configs", {}).items():
        t0 = time.perf_counter()
        cfg = cli.load_config(path)
        t1 = time.perf_counter()
        systems[sid] = (cli.build_from_config(cfg), cfg)
        build_s += time.perf_counter() - t1
        load_s += t1 - t0
    for sid, s in spec.get("callable_three_input", {}).items():
        a, b = s["phi2"]
        t0 = time.perf_counter()
        cost = costs.make_power_cost(1.0, s["xstar"], s["m"])
        system = sim.build_three_input(cost, lambda z, a=a, b=b: a + b * z,
                                       s["epsilon"], s["kappa"])
        build_s += time.perf_counter() - t0
        systems[sid] = (system, None)
    return systems, {"load_config_s": load_s, "build_s": build_s}


def _period(system, op):
    eps = system.epsilon
    steps = op["steps"]
    cfg = sim.IntegratorConfig(total_time=eps, steps_per_period=steps, decimation=steps)
    t0 = time.perf_counter()
    traj = sim.integrate(system, op["x0"], cfg)
    pred = chenfliess.endpoint_prediction(system, op["x0"], order=4)
    op_s = time.perf_counter() - t0
    return op_s, {"endpoint": float(traj.states[-1]), "prediction": pred,
                  "periods": traj.meta["periods"], "trajectories": 1}


def _contraction(system, op):
    t0 = time.perf_counter()
    rep = analysis.contraction_check(system, op["grid"], op["xstar"], op["steps"])
    op_s = time.perf_counter() - t0
    return op_s, {"gamma": rep.gamma, "sigma": rep.sigma,
                  "holds": all(p["holds"] for p in rep.points),
                  "periods": len(op["grid"]), "trajectories": len(op["grid"])}


def _closeness(system, op):
    eps = system.epsilon
    cfg = sim.IntegratorConfig(total_time=op["total_time"], steps_per_period=512,
                               decimation=512)
    t0 = time.perf_counter()
    traj = sim.integrate(system, op["x0"], cfg)
    lbs = sim.integrate_lbs(system.cost, op["lbs_terms"], op["x0"], op["total_time"],
                            op["lbs_steps"], record_epsilon=eps)
    value = analysis.closeness(traj, lbs)
    op_s = time.perf_counter() - t0
    return op_s, {"closeness": value, "endpoint": float(traj.states[-1]),
                  "periods": traj.meta["periods"], "trajectories": 1}


def _load_traj(path):
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def _roundtrip(op):
    """Write a trajectory CSV, then read, fit and compare it like `liees rate`."""
    a = _load_traj(op["npz"])
    eps = op["epsilon"]
    traj = sim.Trajectory(times=a["times"], states=a["states"], cost_values=a["cost_values"],
                          epsilon=eps)
    clean = sim.Trajectory(times=a["times"], states=a["clean_states"],
                           cost_values=a["cost_values"], epsilon=eps)
    t0 = time.perf_counter()
    sim.write_trajectory_csv(traj, op["csv"])
    back = sim.read_trajectory_csv(op["csv"], epsilon=eps)
    est = analysis.fit_rate(analysis.envelope(back, op["xstar"]))
    band_time = analysis.time_to_band(back, op["xstar"], op["band"])
    close = analysis.closeness(back, clean)
    op_s = time.perf_counter() - t0
    exact = all(np.array_equal(getattr(back, k), a[k]) for k in ("times", "states", "cost_values"))
    return op_s, {"rate_class": est.rate_class, "lambda": est.lam,
                  "power_exponent": est.power_exponent, "band_time": band_time,
                  "closeness": close, "roundtrip_exact": exact}


def endpoint(spec: dict, cold: bool = False):
    """The design_verify library process: load, build, predict one endpoint."""
    t0 = time.perf_counter()
    if cold:
        from tracing import clear_caches
        clear_caches()
    cfg = cli.load_config(spec["config"])
    system = cli.build_from_config(cfg)
    pred = chenfliess.endpoint_prediction(system, spec["x0"], order=4)
    return time.perf_counter() - t0, {"prediction": pred}


def _cli(op):
    """Replay of a `liees` subprocess: the same cli.main call, in-process."""
    from tracing import clear_caches

    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op["argv"])
    return time.perf_counter() - t0, {"rc": rc, "stdout": out.getvalue(),
                                      "stderr": err.getvalue()}


def run_op(systems: dict, op: dict):
    kind = op["kind"]
    if kind == "period":
        return _period(systems[op["system"]][0], op)
    if kind == "contraction":
        return _contraction(systems[op["system"]][0], op)
    if kind == "closeness":
        return _closeness(systems[op["system"]][0], op)
    if kind == "roundtrip":
        return _roundtrip(op)
    if kind == "cli":
        return _cli(op)
    if kind == "endpoint":
        return endpoint(op, cold=True)
    raise ValueError(f"unknown operation kind {kind!r}")


def serve(spec: dict, trace: bool) -> None:
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    systems, timings = build_systems(spec)
    ready = {"ready": True, "t_imported": T_IMPORTED, **timings}
    if tracer is not None:
        ready["trace"] = tracer.take(T_IMPORTED, time.perf_counter())
    reply(ready)
    for n, line in enumerate(sys.stdin):
        op = json.loads(line)
        if op.get("kind") == "quit":
            break
        if tracer is not None:
            tracer.op = n
        t0 = time.perf_counter()
        try:
            op_s, out = run_op(systems, op)
        except Exception:  # one failed operation must not end the run
            op_s, out = time.perf_counter() - t0, {"error": traceback.format_exc()}
        res = {"op_s": op_s, **out}
        if tracer is not None:
            res["trace"] = tracer.take(t0, t0 + op_s)
            res["trace"]["probes"] = tracer.run_probes()
        reply(res)


def main(argv) -> int:
    mode, spec_path = argv[0], argv[1]
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.stdout = sys.stderr  # stray prints must not corrupt the reply stream
    if mode == "serve":
        serve(spec, "--trace" in argv[2:])
    elif mode == "probe":
        _, timings = build_systems(spec)
        reply({"ready": True, "t_imported": T_IMPORTED, **timings})
    elif mode == "endpoint":
        _, out = endpoint(spec)
        if not math.isfinite(out["prediction"]):
            return 3
        reply(out)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
