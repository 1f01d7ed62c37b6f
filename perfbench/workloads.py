"""The four benchmark workloads: seeded inputs, one pass of operations, checks.

Every workload turns the seed into inputs (configs, arrays, command lines) and
keeps the amount of work per pass fixed, so that runs on different seeds cost
the same: the seed picks values (eps, x0, kappa, gains, rates), never sizes.

An operation is a dict.  Kinds other than "proc" run in the library worker
(worker.py serve).  A "proc" operation is a fresh child process (`liees ...`
or the worker's endpoint mode); its "replay" is the in-process equivalent the
traced run executes instead.  `check` returns the problems found in one
operation's result and the facts it contributes (items, periods, digests).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

QUARTIC = {"name": "power", "alpha": 1.0, "xstar": 1.0, "m": 4}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return str(path)


def liees_config(system: dict, epsilon: float, total_time: float, x0: float,
                 steps: int = 512) -> dict:
    return {"cost": dict(QUARTIC), "system": system,
            "integrator": {"epsilon": epsilon, "steps_per_period": steps,
                           "total_time": total_time, "x0": x0},
            "analysis": {"fit": False, "lbs_compare": False},
            "output": {"decimation": 0}}


def x0_off_minimum(rng: random.Random) -> float:
    """A start in [0.6, 0.85] or [1.2, 1.45], where every series stays finite."""
    lo = rng.choice((0.6, 1.2))
    return lo + 0.25 * rng.random()


class Workload:
    name = ""
    items = ""          # name of the workload's own throughput metric
    spec: dict = {}     # setup of the library worker and of the setup probes
    ops: list[dict]     # one pass, in order

    def __init__(self, root: Path, out: Path, seed: int):
        self.rng = random.Random(seed)
        self.first_digest: str | None = None

    def check(self, op: dict, res: dict) -> tuple[list[str], dict]:
        raise NotImplementedError

    def check_pass(self, ops: list[dict], results: list[dict]) -> list[str]:
        """Checks over a whole pass; by default that it repeats the first pass."""
        digest = self.pass_digest(ops, results)
        if self.first_digest is None:
            self.first_digest = digest
        if digest != self.first_digest:
            return [f"pass digest {digest[:12]} differs from the first pass "
                    f"{self.first_digest[:12]}"]
        return []

    def pass_digest(self, ops: list[dict], results: list[dict]) -> str:
        return ""


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


# ---------------------------------------------------------------------------


class Fig1Pair(Workload):
    """Both bundled fig1 configs as `liees run` subprocesses, LBS compare on."""

    name = "fig1_pair"
    items = "periods_per_s"
    HORIZON = 0.5
    DECIMATIONS = (512, 256, 128)

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        ref = json.loads((Path(__file__).parent / "reference.json").read_text())["fig1_pair"]
        if ref["horizon"] != self.HORIZON:
            raise SystemExit("reference.json was made at another fig1_pair horizon")
        self.decimation = self.rng.choice(self.DECIMATIONS)
        self.ref = ref["runs"][str(self.decimation)]
        self.names = ["fig1_we", "fig1_durr"]
        self.rng.shuffle(self.names)
        self.run_dir = out / "run"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for name in self.names:
            self.configs[name] = write_json(out / f"{name}.json",
                                            self.config(root, name, self.decimation))
        self.spec = {"configs": self.configs}
        self.ops = [{"kind": "proc", "name": n,
                     "cmd": ["-m", "liees", "run", "--config", self.configs[n],
                             "--out", str(self.run_dir)],
                     "replay": {"kind": "cli", "argv": ["run", "--config", self.configs[n],
                                                        "--out", str(self.run_dir)]}}
                    for n in self.names]

    @classmethod
    def config(cls, root: Path, name: str, decimation: int) -> dict:
        cfg = json.loads((root / "src" / "liees" / "configs" / f"{name}.json").read_text())
        cfg["integrator"]["total_time"] = cls.HORIZON
        cfg["analysis"]["lbs_compare"] = True
        cfg["output"]["decimation"] = decimation
        return cfg

    def check(self, op, res):
        name = op["name"]
        ref = self.ref[name]
        if res.get("rc") != 0:
            return [f"{name}: exit code {res.get('rc')}"], {}
        problems = []
        summary = json.loads(res["stdout"])
        rate = summary["rate"]
        if rate["rate_class"] != ref["rate_class"]:
            problems.append(f"{name}: rate class {rate['rate_class']} != {ref['rate_class']}")
        key = "lambda" if ref["rate_class"] == "exponential" else "power_exponent"
        if rate[key] is None or f"{rate[key]:.3g}" != f"{ref[key]:.3g}":
            problems.append(f"{name}: {key} {rate[key]} != reference {ref[key]:.3g}")
        csv_ok = sha256(self.run_dir / f"{name}_traj.csv") == ref["csv_sha256"]
        if not csv_ok:
            problems.append(f"{name}: trajectory CSV digest differs from the reference")
        if sha256(self.run_dir / f"{name}_summary.json") != ref["summary_sha256"]:
            problems.append(f"{name}: summary JSON digest differs from the reference")
        return problems, {"items": summary["periods"], "periods": summary["periods"],
                          "digest_match": int(csv_ok)}


class EpsSweep(Workload):
    """Many short integrations in one library process, eps from 1e-2 to 3e-4."""

    name = "eps_sweep"
    items = "traj_per_s"
    EPS = (1e-2, 3e-3, 1e-3, 3e-4)
    PERIOD_STEPS = 16384
    CONTRACTION_STEPS = 4096
    CLOSENESS_TIME = 0.1
    LBS_STEPS = 4000
    MIN_SLOPE = 1.10

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        rng = self.rng
        configs, callables, self.ops = {}, {}, []

        def add(sid, system, eps):
            configs[sid] = write_json(out / f"{sid}.json", liees_config(system, eps, eps, 0.0))

        # remainder series: one period at 16384 steps plus the Chen-Fliess prediction
        series = {
            "two4": {"builder": "two_input", "N": 4, "kappa": rng.choice((1, 2))},
            "three": {"builder": "three_input", "phi2": 0.5 + 0.5 * rng.random()},
            "mixed": {"builder": "mixed", "kappa12": rng.choice((5, 7)), "kappa1222": 1,
                      "gamma1": 0.5 + 0.5 * rng.random(), "gamma3": 0.5 + 0.5 * rng.random()},
        }
        self.series = {}
        for tag, system in series.items():
            x0 = x0_off_minimum(rng)
            self.series[tag] = []
            for k, eps in enumerate(self.EPS):
                sid = f"{tag}_e{k}"
                add(sid, system, eps)
                self.series[tag].append(len(self.ops))
                self.ops.append({"kind": "period", "system": sid, "x0": x0,
                                  "steps": self.PERIOD_STEPS})
        # one-period contraction probes on a grid of starts
        grid = sorted([0.6 + 0.2 * rng.random(), 0.8 + 0.15 * rng.random(),
                       1.05 + 0.15 * rng.random(), 1.2 + 0.2 * rng.random()])
        for N in (2, 3):
            sid = f"contract_n{N}"
            add(sid, {"builder": "two_input", "N": N, "kappa": rng.choice((1, 2))},
                rng.choice(self.EPS))
            self.ops.append({"kind": "contraction", "system": sid, "grid": grid,
                              "xstar": 1.0, "steps": self.CONTRACTION_STEPS, "N": N})
        callables["contract_phi2"] = {"phi2": [0.4 + 0.2 * rng.random(), 0.2 + 0.2 * rng.random()],
                                      "epsilon": rng.choice(self.EPS), "kappa": 1,
                                      "xstar": 1.0, "m": 4}
        self.ops.append({"kind": "contraction", "system": "contract_phi2", "grid": grid,
                          "xstar": 1.0, "steps": self.CONTRACTION_STEPS, "N": None})
        # closeness of the first-order design to its gradient flow, per eps
        kappa = rng.choice((1, 2))
        x0 = rng.choice((0.0, 1.5)) + 0.5 * rng.random()
        self.closeness_ops = []
        for k, eps in enumerate(self.EPS):
            sid = f"close_e{k}"
            add(sid, {"builder": "two_input", "N": 2, "kappa": kappa}, eps)
            self.closeness_ops.append(len(self.ops))
            self.ops.append({"kind": "closeness", "system": sid, "x0": x0,
                              "total_time": self.CLOSENESS_TIME, "lbs_terms": [[1, 1.0]],
                              "lbs_steps": self.LBS_STEPS})
        self.spec = {"configs": configs, "callable_three_input": callables}

    def check(self, op, res):
        if "error" in res:
            return [f"{op['system']}: raised\n{res['error']}"], {}
        problems = []
        facts = {"items": res["trajectories"], "periods": res["periods"]}
        if op["kind"] == "period":
            if not (math.isfinite(res["endpoint"]) and math.isfinite(res["prediction"])):
                problems.append(f"{op['system']}: non-finite endpoint or prediction")
        elif op["kind"] == "contraction":
            if not (res["holds"] and math.isfinite(res["gamma"])):
                problems.append(f"{op['system']}: contraction inequality fails")
            if op["N"] == 2 and not res["gamma"] > 0:
                problems.append(f"{op['system']}: first-order design does not contract")
        elif not math.isfinite(res["closeness"]):
            problems.append(f"{op['system']}: non-finite closeness")
        return problems, facts

    def check_pass(self, ops, results):
        problems = []
        if any("error" in r for r in results):
            return ["operations raised; pass checks skipped"]
        for tag, idx in self.series.items():
            rem = [abs(results[i]["endpoint"] - results[i]["prediction"]) for i in idx]
            if min(rem) <= 0:
                problems.append(f"{tag}: zero remainder")
                continue
            s = slope([math.log(e) for e in self.EPS], [math.log(r) for r in rem])
            if s < self.MIN_SLOPE:
                problems.append(f"{tag}: remainder slope {s:.3f} < {self.MIN_SLOPE}")
        close = [results[i]["closeness"] for i in self.closeness_ops]
        if not all(a > b for a, b in zip(close, close[1:])):
            problems.append(f"closeness not strictly decreasing in eps: {close}")
        return problems + super().check_pass(ops, results)

    def pass_digest(self, ops, results):
        return _digest([(r.get("endpoint"), r.get("prediction"), r.get("gamma"),
                         r.get("sigma"), r.get("closeness")) for r in results])


class DesignVerify(Workload):
    """Fresh `liees verify all` and `liees coeffs --target` processes, plus one
    library process predicting a 4-channel endpoint from a cold basis."""

    name = "design_verify"
    items = "designs_per_s"
    KINDS = (  # kind, target, log10 eps range, kappas
        ("first12", "1,2", (-7.0, -6.0), (1, 2, 3)),
        ("classic", "1,2", (-7.0, -6.0), (1, 2, 3)),
        ("second122", "1,2,2", (-5.0, -3.0), (1, 2, 3)),
        ("third1222", "1,2,2,2", (-5.0, -3.0), (1, 2, 3)),
        ("triple123", "1,2,3", (-5.0, -3.0), (1,)),   # coefficient scales as 1/kappa^2
    )
    TARGET_TOL = 1e-3

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        rng = self.rng
        self.ops = [{"kind": "proc", "name": "verify", "cmd": ["-m", "liees", "verify", "all"],
                      "replay": {"kind": "cli", "argv": ["verify", "all"]}}]
        for kind, target, (lo, hi), kappas in self.KINDS:
            argv = ["coeffs", "--kind", kind, "--epsilon", repr(10 ** rng.uniform(lo, hi)),
                    "--kappa", str(rng.choice(kappas)), "--target", target,
                    "--quadrature-steps", str(12288 + 256 * rng.randint(0, 16))]
            self.ops.append({"kind": "proc", "name": kind, "cmd": ["-m", "liees"] + argv,
                              "replay": {"kind": "cli", "argv": argv}})
        system = {"builder": "mixed", "kappa12": rng.choice((5, 7)), "kappa1222": 1,
                  "gamma1": 0.5 + 0.5 * rng.random(), "gamma3": 0.5 + 0.5 * rng.random()}
        cfg = write_json(out / "mixed.json",
                         liees_config(system, 10 ** rng.uniform(-3.5, -2.0), 1.0, 0.0))
        endpoint = {"config": cfg, "x0": x0_off_minimum(rng)}
        spec_path = write_json(out / "endpoint.json", endpoint)
        worker = str(Path(__file__).parent / "worker.py")
        self.ops.append({"kind": "proc", "name": "endpoint",
                          "cmd": [worker, "endpoint", spec_path],
                          "replay": {"kind": "endpoint", **endpoint}})
        self.spec = {"configs": {"mixed": cfg}}

    def check(self, op, res):
        name = op["name"]
        if res.get("rc") != 0:
            return [f"{name}: exit code {res.get('rc')}: {res.get('stderr', '')[-300:]}"], {}
        if name == "verify":
            lines = res["stdout"].splitlines()
            designs = sum(1 for ln in lines if ln.startswith("[PASS] excitation:"))
            problems = [f"verify all: {ln}" for ln in lines if "FAIL" in ln]
            if not any(ln.startswith("[PASS]") for ln in lines):
                problems.append("verify all printed no PASS line")
            return problems, {"items": designs}
        if name == "endpoint":
            ok = math.isfinite(res["prediction"])
            return ([] if ok else ["endpoint: non-finite prediction"]), {"items": 0}
        verdict = json.loads(res["stdout"][res["stdout"].index("{"):])
        problems = []
        if not verdict["ok"]:
            problems.append(f"{name}: excitation report not ok: {verdict}")
        if abs(verdict["target_coeff"] - 1.0) > self.TARGET_TOL:
            problems.append(f"{name}: target coefficient {verdict['target_coeff']} "
                            f"not within {self.TARGET_TOL} of 1")
        return problems, {"items": 1}

    def pass_digest(self, ops, results):
        return _digest([r.get("prediction") if op["name"] == "endpoint" else r.get("stdout")
                        for op, r in zip(ops, results)])


class TrajIO(Workload):
    """Synthetic trajectories written as CSV, read back and fitted."""

    name = "traj_io"
    items = "rows_per_s"
    N_TRAJ = 8
    PERIODS = 1000
    ROWS_PER_PERIOD = 32
    BAND = 0.05
    LAMBDA_RTOL = 1e-3
    POWER_RTOL = 0.02

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        import numpy as np

        gen = np.random.default_rng(seed)
        self.expect = []
        self.csv_digests: dict[int, str] = {}
        self.ops = []
        for k in range(self.N_TRAJ):
            eps = 10 ** gen.uniform(-3.3, -2.7)
            n = self.PERIODS * self.ROWS_PER_PERIOD
            t = np.arange(n + 1) * (eps / self.ROWS_PER_PERIOD)
            horizon = t[-1]
            ripple = gen.uniform(0.05, 0.2)
            phase = gen.uniform(0.0, 2.0 * np.pi)
            if k % 2 == 0:   # exponential decay onto a floor reached mid-run
                floor = 10 ** gen.uniform(-6.0, -5.0)
                truth = math.log(0.8 / floor) / (gen.uniform(0.3, 0.5) * horizon)
                d = 0.8 * np.exp(-truth * t) + floor
                kind = "exponential"
            else:            # polynomial decay far above its floor
                truth = gen.uniform(0.4, 1.0)
                d = 0.8 * (1.0 + (2000.0 / horizon) * t) ** (-truth) + 1e-9
                kind = "polynomial"
            sign = gen.choice((-1.0, 1.0))
            clean = 1.0 + sign * d
            x = 1.0 + sign * d * (1.0 + ripple * np.sin(2.0 * np.pi * t / eps + phase))
            npz = out / f"traj{k}.npz"
            np.savez(npz, times=t, states=x, cost_values=(x - 1.0) ** 4, clean_states=clean)
            strobe = np.arange(self.PERIODS + 1) * self.ROWS_PER_PERIOD
            dist = np.abs(x[strobe] - 1.0)
            outside = np.nonzero(dist > self.BAND)[0]
            if len(outside) == 0:
                band_time = float(t[0])
            elif outside[-1] == len(strobe) - 1:
                band_time = math.inf
            else:
                band_time = float(t[strobe[outside[-1] + 1]])
            self.expect.append({"kind": kind, "truth": truth, "rows": n + 1,
                                "band_time": band_time,
                                "closeness": float(np.max(np.abs(x[strobe] - clean[strobe])))})
            self.ops.append({"kind": "roundtrip", "npz": str(npz), "csv": str(out / f"traj{k}.csv"),
                              "epsilon": eps, "xstar": 1.0, "band": self.BAND, "traj": k})

    def check(self, op, res):
        k = op["traj"]
        if "error" in res:
            return [f"traj{k}: raised\n{res['error']}"], {}
        exp = self.expect[k]
        problems = []
        if res["rate_class"] != exp["kind"]:
            problems.append(f"traj{k}: class {res['rate_class']} != {exp['kind']}")
        elif exp["kind"] == "exponential":
            if abs(res["lambda"] / exp["truth"] - 1.0) > self.LAMBDA_RTOL:
                problems.append(f"traj{k}: lambda {res['lambda']} vs seeded {exp['truth']}")
        elif abs(-res["power_exponent"] / exp["truth"] - 1.0) > self.POWER_RTOL:
            problems.append(f"traj{k}: p {-res['power_exponent']} vs seeded {exp['truth']}")
        if res["band_time"] != exp["band_time"]:
            problems.append(f"traj{k}: band time {res['band_time']} != {exp['band_time']}")
        if res["closeness"] != exp["closeness"]:
            problems.append(f"traj{k}: closeness {res['closeness']} != {exp['closeness']}")
        if not res["roundtrip_exact"]:
            problems.append(f"traj{k}: CSV round trip is not exact")
        digest = sha256(Path(op["csv"]))
        same = self.csv_digests.setdefault(k, digest) == digest
        if not same:
            problems.append(f"traj{k}: CSV bytes differ from the first pass")
        return problems, {"items": exp["rows"], "digest_match": int(same)}

    def pass_digest(self, ops, results):
        return _digest(sorted(self.csv_digests.items()))


WORKLOADS = {w.name: w for w in (Fig1Pair, EpsSweep, DesignVerify, TrajIO)}
