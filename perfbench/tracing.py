"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `Tracer.install` swaps the
public functions of the liees layer modules for timing wrappers, in every
loaded liees module that holds a reference to them, and `uninstall` puts the
originals back.  Because the program looks those names up at call time, a call
that crosses a module boundary (cli -> sim.integrate, analysis.contraction_check
-> integrate, chenfliess.endpoint_prediction -> iterated_bracket) lands in a
wrapper, so each span is one call into one layer and nested calls record their
parent span.

Per-sample calls (`dither.eval_dither`, the cost lambda) are far too frequent
for a span each: eval_dither only bumps a counter, and the time of both is
measured after each operation by re-running them on the same grids and states
(`run_probes`), outside the operation's own timed region.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

from liees import analysis, chenfliess, cli, costs, dither, lie, sim

# (module, public function, span name)
SPANNED = [
    (cli, "load_config", "cli.load_config"),
    (cli, "build_from_config", "cli.build_from_config"),
    (cli, "run_experiment", "cli.run_experiment"),
    (sim, "build_two_input", "sim.build"),
    (sim, "build_three_input", "sim.build"),
    (sim, "build_mixed", "sim.build"),
    (sim, "integrate", "sim.integrate"),
    (sim, "integrate_lbs", "sim.integrate_lbs"),
    (sim, "write_trajectory_csv", "sim.csv_write"),
    (sim, "read_trajectory_csv", "sim.csv_read"),
    (chenfliess, "compute_signature", "chenfliess.signature"),
    (chenfliess, "log_signature", "chenfliess.log_signature"),
    (chenfliess, "verify_excitation", "chenfliess.verify_excitation"),
    (chenfliess, "endpoint_prediction", "chenfliess.endpoint_prediction"),
    (chenfliess, "basis_labels", "chenfliess.basis_labels"),
    (lie, "iterated_bracket", "lie.iterated_bracket"),
    (lie, "bracket2", "lie.bracket2"),
    (costs, "check_assumption", "costs.check_assumption"),
    (analysis, "envelope", "analysis.envelope"),
    (analysis, "fit_rate", "analysis.fit_rate"),
    (analysis, "time_to_band", "analysis.time_to_band"),
    (analysis, "closeness", "analysis.closeness"),
    (analysis, "contraction_check", "analysis.contraction_check"),
]

# lru caches a fresh process starts without; cleared before replaying a
# subprocess operation in-process so that it pays the same cold costs
_LRU = (chenfliess.basis_labels, chenfliess.expand_bracket)

COST_PROBE_EVALS = 100_000


def clear_caches() -> None:
    for fn in _LRU:
        fn.cache_clear()


class Tracer:
    """Collects spans, counts and probe timings of the current operation."""

    def __init__(self):
        self.spans: list[list] = []      # [name, t0, t1, parent index, op]
        self.stack: list[int] = []
        self.op = "setup"
        self.counts = defaultdict(int)
        self.probes: list[tuple] = []    # work to re-time after the op
        self.residuals: list[float] = []
        self.basis_misses: list[tuple] = []  # (n_channels, ell, seconds)
        self._undo: list[tuple] = []
        self._counting = True

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "sim.integrate": self._after_integrate,
            "sim.csv_write": self._after_csv_write,
            "chenfliess.signature": self._after_signature,
            "chenfliess.log_signature": self._after_log_signature,
        }
        for module, attr, name in SPANNED:
            orig = getattr(module, attr)
            if attr == "basis_labels":
                wrapper = self._basis_wrapper(orig)
            else:
                wrapper = self._span_wrapper(orig, name, hooks.get(name))
            self._replace(orig, wrapper)
        self._replace(dither.eval_dither, self._count_wrapper(dither.eval_dither))
        strobe = sim.Trajectory.strobe
        self._undo.append((sim.Trajectory, "strobe", strobe))
        sim.Trajectory.strobe = self._strobe_wrapper(strobe)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _replace(self, orig, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "liees" or mod_name.startswith("liees.")):
                continue
            for attr, val in list(vars(module).items()):
                if val is orig:
                    self._undo.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.spans[idx][1] = t0
        self.spans[idx][2] = t1

    def _span_wrapper(self, fn, name, after):
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _basis_wrapper(self, fn):
        def traced(n_channels, ell):
            misses = fn.cache_info().misses
            idx = self._open("chenfliess.basis_labels")
            t0 = time.perf_counter()
            try:
                return fn(n_channels, ell)
            finally:
                t1 = time.perf_counter()
                self._close(idx, t0, t1)
                if fn.cache_info().misses > misses:
                    self.basis_misses.append((n_channels, ell, t1 - t0))

        traced.cache_info = fn.cache_info
        traced.cache_clear = fn.cache_clear
        return traced

    def _count_wrapper(self, fn):
        counts = self.counts

        def counted(spec, t):
            if self._counting:
                counts["dither.samples"] += 1 if isinstance(t, float) else int(np.size(t))
            return fn(spec, t)

        return counted

    def _strobe_wrapper(self, fn):
        def strobe(traj):
            ts, xs = fn(traj)
            self.counts["analysis.strobe_samples"] += len(ts)
            return ts, xs

        return strobe

    # -- hooks ------------------------------------------------------------

    def _after_integrate(self, traj, args, kwargs):
        system = args[0]
        steps = traj.meta["steps_per_period"]
        self.counts["sim.integrate_calls"] += 1
        self.counts["sim.steps"] += traj.meta["periods"] * steps
        eps = system.epsilon
        m = 2 * steps
        for spec in system.dithers:
            self.probes.append(("dither", spec, m - 1, 0.0, eps * (m - 1) / m))
        self.probes.append(("cost", system.cost.eval, traj.states.tolist()))

    def _after_csv_write(self, result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["sim.csv_bytes"] += os.path.getsize(path)

    def _after_signature(self, sig, args, kwargs):
        dithers = args[0] if args else kwargs["dithers"]
        for spec in dithers:
            self.probes.append(("dither", spec, sig.quadrature_steps, 0.0, spec.epsilon))

    def _after_log_signature(self, coeffs, args, kwargs):
        self.residuals.append(coeffs.projection_residual)

    # -- per-operation bookkeeping -----------------------------------------

    def run_probes(self) -> dict:
        """Time the dither and cost work recorded during the last operation."""
        dither_s = 0.0
        cost_s = 0.0
        cost_evals = 0
        self._counting = False
        try:
            for probe in self.probes:
                if probe[0] == "dither":
                    _, spec, n, t0, t1 = probe
                    start = time.perf_counter()
                    dither.sample_dither(spec, n, t0, t1)
                    dither_s += time.perf_counter() - start
                else:
                    _, J, states = probe
                    reps = max(1, -(-COST_PROBE_EVALS // len(states)))
                    start = time.perf_counter()
                    for _ in range(reps):
                        for v in states:
                            J(v)
                    cost_s += time.perf_counter() - start
                    cost_evals += reps * len(states)
        finally:
            self._counting = True
            self.probes.clear()
        return {"dither_s": dither_s, "cost_s": cost_s, "cost_evals": cost_evals}

    def take(self, op_start: float, op_end: float) -> dict:
        """Summarise and drop the spans of the operation that just ended."""
        by_name = defaultdict(float)
        calls = defaultdict(int)
        covered = 0.0
        for name, t0, t1, parent, op in self.spans:
            if op != self.op:
                continue
            by_name[name] += t1 - t0
            calls[name] += 1
            if parent == -1:
                covered += t1 - t0
        wall = op_end - op_start
        out = {
            "span_s": dict(by_name),
            "span_calls": dict(calls),
            "counts": dict(self.counts),
            "uncovered_share": (wall - covered) / wall if wall > 0 else 0.0,
            "residual": max(self.residuals, default=0.0),
            "basis_misses": list(self.basis_misses),
            "spans": [s[:4] for s in self.spans if s[4] == self.op],
        }
        self.spans = [s for s in self.spans if s[4] != self.op]
        self.counts.clear()
        self.residuals.clear()
        self.basis_misses.clear()
        return out
