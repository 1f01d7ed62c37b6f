"""liees benchmark: one command, four seeded workloads, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client issues one operation at a time
and waits for it; operations run in one child process at a time (a `liees`
subprocess, or the library worker in perfbench/worker.py), with numpy's
thread pools held to one thread.

With --trace 0 the run measures passes over the workload for S seconds and
prints every end-to-end metric.  With --trace 1 it measures untraced passes
for S/2 seconds, then replays the workload in-process with spans around every
call into the liees layer modules for the other S/2, and prints the per-layer
metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it print the
same metrics and the workload-specific ones by name with their units.  A full
record (machine facts, samples, checks, spans) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 150
P90_MIN_TAIL = 10   # op_s_p90 is reported only with this many samples beyond it
HOST_PROBES = 3     # host speed probes after each pass
HOST_PROBE_LOOP = 200_000

# the end-to-end metrics of the JSON line; op_s_p50 and the workload-specific
# figures are printed above it (on fig1_pair op_s_p50 is the median of about 8
# multi-second operations and follows host speed drift too closely to gate on)
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "sim.integrate_s": "s", "sim.ns_per_step": "ns", "sim.integrate_calls": "count",
    "sim.steps": "count", "sim.integrate_lbs_s": "s", "sim.build_s": "s",
    "sim.csv_write_s": "s", "sim.csv_read_s": "s", "sim.csv_bytes": "count",
    "sim.traj_digest_match": "count",
    "dither.sample_s": "s", "dither.samples": "count",
    "chenfliess.signature_s": "s", "chenfliess.log_signature_s": "s",
    "chenfliess.verify_excitation_s": "s", "chenfliess.basis_labels_cold_s.n2": "s",
    "chenfliess.basis_labels_cold_s.n3": "s", "chenfliess.basis_labels_cold_s.n4": "s",
    "chenfliess.endpoint_prediction_s": "s", "chenfliess.max_projection_residual": "ratio",
    "lie.iterated_bracket_s": "s", "lie.iterated_bracket_calls": "count",
    "costs.eval_ns": "ns", "costs.check_assumption_s": "s",
    "analysis.envelope_s": "s", "analysis.fit_rate_s": "s", "analysis.time_to_band_s": "s",
    "analysis.closeness_s": "s", "analysis.contraction_check_s": "s",
    "analysis.strobe_samples": "count",
    "cli.process_start_s": "s", "cli.load_config_s": "s",
    "trace.overhead_s": "s", "trace.uncovered_share": "ratio",
}
SPAN_METRICS = {
    "sim.integrate_s": "sim.integrate", "sim.integrate_lbs_s": "sim.integrate_lbs",
    "sim.csv_write_s": "sim.csv_write", "sim.csv_read_s": "sim.csv_read",
    "chenfliess.signature_s": "chenfliess.signature",
    "chenfliess.log_signature_s": "chenfliess.log_signature",
    "chenfliess.verify_excitation_s": "chenfliess.verify_excitation",
    "chenfliess.endpoint_prediction_s": "chenfliess.endpoint_prediction",
    "lie.iterated_bracket_s": "lie.iterated_bracket",
    "costs.check_assumption_s": "costs.check_assumption",
    "analysis.envelope_s": "analysis.envelope", "analysis.fit_rate_s": "analysis.fit_rate",
    "analysis.time_to_band_s": "analysis.time_to_band",
    "analysis.closeness_s": "analysis.closeness",
    "analysis.contraction_check_s": "analysis.contraction_check",
}
COUNT_METRICS = ("sim.integrate_calls", "sim.steps", "sim.csv_bytes", "dither.samples",
                 "analysis.strobe_samples", "lie.iterated_bracket_calls")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LIEES_QUAD_STEPS", None)   # the workloads fix their own resolution
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(mode: str, spec_path: str, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode, spec_path, *extra]


class Worker:
    """A library worker answering one operation at a time over pipes."""

    def __init__(self, spec_path: str, env: dict, trace: bool):
        args = ["--trace"] if trace else []
        self.proc = subprocess.Popen(worker_cmd("serve", spec_path, *args), env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1)
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, op: dict) -> dict:
        self.proc.stdin.write(json.dumps(op) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"kind": "quit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def setup_sample(spec_path: str, env: dict) -> dict:
    """Start a fresh child, time it until it is ready for a first operation."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(worker_cmd("probe", spec_path), env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t_ready = time.perf_counter()
    finally:
        proc.stdout.close()
        proc.wait()
    if not line or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    ready = json.loads(line)
    return {"setup_s": t_ready - t_spawn,
            "process_start_s": ready["t_imported"] - t_spawn,
            "load_config_s": ready["load_config_s"], "build_s": ready["build_s"]}


def host_probe() -> float:
    """Time a fixed pure-Python loop; its drift shows how steady the host was."""
    t0 = time.perf_counter()
    x = 0
    for i in range(HOST_PROBE_LOOP):
        x += i * i
    return time.perf_counter() - t0


def run_proc(op: dict, env: dict) -> dict:
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, *op["cmd"]], env=env, capture_output=True,
                       text=True, timeout=OP_TIMEOUT_S)
    res = {"op_s": time.perf_counter() - t0, "rc": p.returncode,
           "stdout": p.stdout, "stderr": p.stderr}
    if op["replay"]["kind"] == "endpoint" and p.returncode == 0:
        res.update(json.loads(p.stdout.splitlines()[-1]))
    return res


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Phase:
    """Operations and pass times of one measured phase (untraced or traced)."""

    def __init__(self, name: str):
        self.name = name
        self.pass_s: list[float] = []
        self.op_s: list[float] = []
        self.items = 0
        self.periods = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.traces: list[list[dict]] = []     # per pass, per op trace summaries
        self.facts: list[dict] = []            # per pass sums of integer facts
        self.host_probe_s: list[float] = []
        self.worker_ready: dict = {}


def run_pass(wl, phase: Phase, worker: Worker | None, env: dict, traced: bool) -> None:
    ops = wl.ops
    results, traces = [], []
    facts = defaultdict(int)
    t0 = time.perf_counter()
    for op in ops:
        if op["kind"] == "proc" and not traced:
            try:
                res = run_proc(op, env)
            except subprocess.TimeoutExpired:
                res = {"op_s": OP_TIMEOUT_S, "rc": None, "stderr": "timeout"}
        else:
            res = worker.call(op["replay"] if op["kind"] == "proc" else op)
            if op["kind"] == "proc":
                res.setdefault("rc", 1 if "error" in res else 0)
                res.setdefault("stderr", res.get("error", ""))
        phase.attempted += 1
        problems, op_facts = wl.check(op, res)
        if problems:
            phase.failed += 1
            phase.problems.extend(problems)
        phase.op_s.append(res["op_s"] if "op_s" in res else 0.0)
        phase.items += op_facts.get("items", 0)
        phase.periods += op_facts.get("periods", 0)
        facts["digest_match"] += op_facts.get("digest_match", 0)
        results.append(res)
        if "trace" in res:
            traces.append(res["trace"])
    phase.problems.extend(wl.check_pass(ops, results))
    phase.pass_s.append(time.perf_counter() - t0)
    phase.facts.append(dict(facts))
    if traced:
        phase.traces.append(traces)


def run_phase(wl, name: str, budget_s: float, spec_path: str, env: dict,
              traced: bool) -> Phase:
    phase = Phase(name)
    needs_worker = traced or any(op["kind"] != "proc" for op in wl.ops)
    worker = Worker(spec_path, env, traced) if needs_worker else None
    if worker is not None:
        phase.worker_ready = worker.ready
    try:
        start = time.perf_counter()
        while not phase.pass_s or time.perf_counter() - start < budget_s:
            run_pass(wl, phase, worker, env, traced)
            phase.host_probe_s.extend(host_probe() for _ in range(HOST_PROBES))
    finally:
        if worker is not None:
            worker.close()
    return phase


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(wl, phase: Phase, setups: list[dict]) -> tuple[dict, dict]:
    """(metrics for the JSON line, extra workload-specific metrics)."""
    busy = sum(phase.op_s)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.mean(phase.pass_s),
        "items_per_s": phase.items / busy,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {"op_s_p50": (statistics.median(phase.op_s), "s"),
             wl.items: (phase.items / busy, "1/s"),
             "op_samples": (len(phase.op_s), "count"),
             "passes": (len(phase.pass_s), "count"),
             "op_fail_ratio": (phase.failed / phase.attempted, "ratio"),
             "host.probe_ms": (1e3 * statistics.median(phase.host_probe_s), "ms")}
    if phase.periods and wl.items != "periods_per_s":
        extra["periods_per_s"] = (phase.periods / busy, "1/s")
    if len(phase.op_s) >= 10 * P90_MIN_TAIL:
        extra["op_s_p90"] = (statistics.quantiles(phase.op_s, n=10)[-1], "s")
    return metrics, extra


def per_layer(phase: Phase, untraced: Phase, setups: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, and derived figures for the record."""
    per_pass = []
    uncovered = []
    residual = 0.0
    misses = defaultdict(list)
    probe_s = []
    if phase.worker_ready.get("trace"):
        for n, ell, dt in phase.worker_ready["trace"]["basis_misses"]:
            misses[(n, ell)].append(dt)
    for traces, facts in zip(phase.traces, phase.facts):
        spans = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        dither_s = cost_s = 0.0
        cost_evals = 0
        for tr in traces:
            for k, v in tr["span_s"].items():
                spans[k] += v
            for k, v in tr["span_calls"].items():
                calls[k] += v
            for k, v in tr["counts"].items():
                counts[k] += v
            dither_s += tr["probes"]["dither_s"]
            cost_s += tr["probes"]["cost_s"]
            cost_evals += tr["probes"]["cost_evals"]
            uncovered.append(tr["uncovered_share"])
            residual = max(residual, tr["residual"])
            for n, ell, dt in tr["basis_misses"]:
                misses[(n, ell)].append(dt)
        probe_s.append(dither_s + cost_s)
        m = {name: spans.get(span, 0.0) for name, span in SPAN_METRICS.items()}
        steps = counts.get("sim.steps", 0)
        m["sim.ns_per_step"] = 1e9 * m["sim.integrate_s"] / steps if steps else 0.0
        m["dither.sample_s"] = dither_s
        m["costs.eval_ns"] = 1e9 * cost_s / cost_evals if cost_evals else 0.0
        for name in COUNT_METRICS:
            m[name] = calls.get("lie.iterated_bracket", 0) if name == "lie.iterated_bracket_calls" \
                else counts.get(name, 0)
        m["sim.traj_digest_match"] = facts.get("digest_match", 0)
        per_pass.append(m)

    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if LAYER_UNITS[name] == "count":
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                phase.problems.append(f"count {name} differs between traced passes: {values}")
        else:
            metrics[name] = statistics.median(values)
    metrics["sim.build_s"] = statistics.median(s["build_s"] for s in setups)
    metrics["cli.process_start_s"] = statistics.median(s["process_start_s"] for s in setups)
    metrics["cli.load_config_s"] = statistics.median(s["load_config_s"] for s in setups)
    for n in (2, 3, 4):
        metrics[f"chenfliess.basis_labels_cold_s.n{n}"] = sum(
            (statistics.median(v) for (ch, _), v in misses.items() if ch == n), 0.0)
    metrics["chenfliess.max_projection_residual"] = residual
    traced_wall = statistics.mean(w - p for w, p in zip(phase.pass_s, probe_s))
    metrics["trace.overhead_s"] = traced_wall - statistics.mean(untraced.pass_s)
    metrics["trace.uncovered_share"] = statistics.median(uncovered) if uncovered else 0.0

    derived = {}
    if metrics["sim.integrate_s"] and metrics["costs.eval_ns"]:
        # four cost evaluations per RK4 step
        derived["costs.share_of_integrate"] = (4e-9 * metrics["costs.eval_ns"]
                                               * metrics["sim.steps"] / metrics["sim.integrate_s"])
    derived["basis_labels_cold_s"] = {f"{n},{ell}": statistics.median(v)
                                      for (n, ell), v in sorted(misses.items())}
    return {k: metrics[k] for k in LAYER_UNITS}, derived


# ---------------------------------------------------------------------------
# machine facts and output
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed, "git_commit": git_commit(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<40} {value!r:>24} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "liees" / "__init__.py").is_file():
        print(f"error: no liees sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = HERE / "out" / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    facts = machine_facts(args.seed)
    wl = WORKLOADS[args.workload](ROOT, out, args.seed)
    spec_path = str(out / "spec.json")
    Path(spec_path).write_text(json.dumps(wl.spec))

    print(f"# liees benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items() if k != "threads"))
    print("# threads: " + " ".join(f"{k}={v}" for k, v in facts["threads"].items()))

    setups = [setup_sample(spec_path, env) for _ in range(SETUP_SAMPLES)]
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_phase(wl, "untraced", budget, spec_path, env, traced=False)
    phases = [untraced]
    metrics, extra = end_to_end(wl, untraced, setups)
    layers, derived = {}, {}
    if args.trace:
        traced = run_phase(wl, "traced", budget, spec_path, env, traced=True)
        phases.append(traced)
        layers, derived = per_layer(traced, untraced, setups)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [f"{p.name}: {msg}" for p in phases for msg in p.problems]
    correct = not problems and failed == 0

    show("setup_s", metrics["setup_s"], "s", f"median of {SETUP_SAMPLES} child starts")
    show("wall_s", metrics["wall_s"], "s", f"mean over {len(untraced.pass_s)} passes")
    show("items_per_s", metrics["items_per_s"], "1/s", f"= {wl.items}")
    show("peak_rss_mb", metrics["peak_rss_mb"], "MB", "largest child process")
    for name, (value, unit) in extra.items():
        show(name, value, unit, f"n={len(untraced.op_s)}" if name == "op_s_p50" else "")
    if "op_s_p90" not in extra:
        print(f"{'op_s_p90':<40} {'n/a':>24} {'s':<6} needs >= {10 * P90_MIN_TAIL} samples")
    for name, value in layers.items():
        show(name, value, LAYER_UNITS[name])
    for name, value in derived.items():
        show(name, value, "")
    if wl.first_digest:
        print(f"# outputs digest (same in every pass): {wl.first_digest}")
    for msg in problems:
        print(f"CHECK FAILED {msg}")

    record = {"args": vars(args), "machine": facts, "correct": correct,
              "attempted": attempted, "failed": failed, "problems": problems,
              "outputs_digest": wl.first_digest,
              "end_to_end": metrics, "extra": {k: v[0] for k, v in extra.items()},
              "per_layer": layers, "derived": derived,
              "samples": {"setup": setups, "pass_s": {p.name: p.pass_s for p in phases},
                          "op_s": {p.name: p.op_s for p in phases},
                          "host_probe_s": {p.name: p.host_probe_s for p in phases}}}
    if args.trace:
        traced_ops = [(i, j, tr) for i, traces in enumerate(phases[1].traces)
                      for j, tr in enumerate(traces)]
        record["uncovered_share"] = [[i, j, tr["uncovered_share"]] for i, j, tr in traced_ops]
        record["spans"] = [[i, j, tr["spans"]] for i, j, tr in traced_ops]
    (HERE / "out" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    chosen = layers if args.trace else metrics
    units = LAYER_UNITS if args.trace else E2E_UNITS
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
