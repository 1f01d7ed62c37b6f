"""ES system assembly and fixed-step integration of full and averaged dynamics.

The full dynamics are x' = sum_k g_k(J(x)) u_k(t) with eps-periodic dithers.
Integration is classical fixed-step RK4: the forcing has a known fastest
harmonic, so the resolution is chosen a priori and the result is
deterministic.  Dither values are precomputed on the step/half-step grid of
one period and reused for every period.

One stepper, _rk4, integrates x' = F[c](x) * Q[c] + P[c] over grid columns c.
When every channel shape is affine in the cost value, .poly of degree <= 1
(all built-in designs are), F[c] is J and P, Q are precomputed tables.  Other
shapes take one column form: Q = 1, P = 0 and F[c] one function rhs(us, xv)
bound to column c's tuple us of dither values.  For the callable-phi2 shapes
of build_three_input, tagged .simpson and .negates, rhs evaluates phi2 at
four points per stage, bit for bit the per-shape sum.  The averaged system of
integrate_lbs runs on two columns: it has no time dependence.  _Stepper
chooses its path once, when it is built, and period_map runs the stepper of
one system from many starts, building the tables and the right-hand side once.

Any real start x0 is converted once to a float, by _Stepper.run.  When the
cost comes from make_power_cost, integrate (with affine shapes: every system
a config can build), period_map and integrate_lbs run the same stepper
compiled from C (liees/_kernel.c), its parameters read from the cost's .power
tags.  Its states, cost values, divergence times and messages are bitwise
equal to the Python stepper's; the _kernel.c header gives the argument.  The
library is built with `cc` on the first such call and cached in
$XDG_CACHE_HOME/liees (else ~/.cache/liees); without a compiler, or if the
build or load fails, the Python stepper runs silently.  The path taken is
recorded in Trajectory.meta["kernel"] ("c" or "python").

Trajectory CSV is written and read by the same library when it loads, else by
Python's "%.17g" and float, with the same bytes and values either way (the
_kernel.c header gives the codec's algorithms and the argument).
read_trajectory_csv runs one parser per file: the compiled one when every
line is in the writer's own grammar, else Python's.
"""

from __future__ import annotations

import io
import itertools
import math
import numbers
import os
import stat
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .costs import CostFunction, derivative
from .dither import DitherSpec, eval_dither, make_design, check_resonances
from .errors import (
    ConstructionError,
    DivergenceError,
    InvalidParameterError,
    NumericFailureError,
    ResolutionError,
    check_array_size,
)
from .lie import (SIMPSON_TOL, ScalarField, adaptive_simpson, const_shape, linear_shape,
                  make_generating_pair, make_triple_family, simpson_halves)

__all__ = [
    "ESSystem",
    "IntegratorConfig",
    "Trajectory",
    "build_two_input",
    "build_three_input",
    "build_mixed",
    "integrate",
    "period_map",
    "integrate_lbs",
    "write_csv_rows",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

DIVERGENCE_LIMIT = 1e12
# Rows per block of trajectory CSV formatted or parsed at once in Python, and
# formatted at once by the compiled codec: the writer's memory stays flat in the
# number of rows beyond the arrays.
CSV_BLOCK = 1024
CSV_FORMAT_BLOCK = 1 << 14
# Bytes of trajectory CSV the compiled reader reads at once: its one buffer.
CSV_CHUNK = 1 << 19
# The characters of the writer's CSV lines.
CSV_ALPHABET = "0123456789+-.,einfa\n"
# Time steps checked at once: the check's temporaries stay small beside the
# arrays read.
SPACING_BLOCK = 1 << 14
# Largest deviation of a CSV time step from the mean step, relative to it.
SPACING_RTOL = 1e-6
# The dither design build_two_input pairs with the generating pair of each order N.
TWO_INPUT_KINDS = {2: "first12", 3: "second122", 4: "third1222"}


@dataclass(frozen=True)
class ESSystem:
    """Cost plus ordered (shape, dither) channels sharing one period.

    meta holds the builder's parameters and, when the averaged system is
    x' = -sum_j gamma_j J^(j)(x), meta["lbs_terms"]: the [(j, gamma_j), ...]
    of integrate_lbs.
    """

    cost: CostFunction
    channels: tuple
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not 1 <= len(self.channels) <= 4:
            raise InvalidParameterError(f"system arity must be 1..4, got {len(self.channels)}")
        eps = self.channels[0][1].epsilon
        if any(abs(d.epsilon - eps) > 1e-15 * eps for _, d in self.channels):
            raise InvalidParameterError("all channels must share one dither period")

    @property
    def arity(self) -> int:
        return len(self.channels)

    @property
    def epsilon(self) -> float:
        return self.channels[0][1].epsilon

    @property
    def dithers(self) -> list[DitherSpec]:
        return [d for _, d in self.channels]

    @property
    def shapes(self) -> list[Callable[[float], float]]:
        return [g for g, _ in self.channels]

    @property
    def fields(self):
        return [ScalarField(g, self.cost) for g, _ in self.channels]

    @property
    def fastest_harmonic(self) -> int:
        return max(d.fastest_harmonic for d in self.dithers)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings; decimation keeps every k-th step (k | steps).

    integrate runs round(total_time / epsilon) whole periods (ties to even), at
    least one, so total_time need not be a multiple of the period.
    """

    total_time: float
    steps_per_period: int = 4096
    decimation: int = 1

    def __post_init__(self):
        if self.total_time <= 0:
            raise InvalidParameterError(f"total_time must be positive, got {self.total_time}")
        if self.steps_per_period < 16:
            raise InvalidParameterError("steps_per_period must be >= 16")
        if self.decimation < 1 or self.steps_per_period % self.decimation:
            raise InvalidParameterError(
                f"decimation {self.decimation} must divide steps_per_period {self.steps_per_period}"
            )


@dataclass
class Trajectory:
    """Uniformly spaced states with recorded cost values."""

    times: np.ndarray
    states: np.ndarray
    cost_values: np.ndarray
    epsilon: float
    meta: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def strobe(self) -> tuple[np.ndarray, np.ndarray]:
        """Samples at integer multiples of epsilon (nearest stored step)."""
        if self.epsilon <= 0 or self.dt <= 0:
            return self.times, self.states
        n = int(math.floor(round(float(self.times[-1]) / self.epsilon, 9)))
        k = np.rint(np.arange(n + 1) * (self.epsilon / self.dt))
        idx = np.minimum(k, len(self.times) - 1).astype(np.intp)
        return self.times[idx], self.states[idx]


def build_two_input(cost: CostFunction, N: int, kappa: int = 1,
                    epsilon: float = 1e-4, gain: float = 1.0,
                    kind: str | None = None) -> ESSystem:
    """Generating pair of order N matched with the bracket-exciting dither pair of order N."""
    if N not in TWO_INPUT_KINDS:
        raise InvalidParameterError(f"N must be 2, 3 or 4, got {N}")
    g1, g2 = make_generating_pair(N, gain)
    kind = kind or TWO_INPUT_KINDS[N]
    d1, d2 = make_design(kind, epsilon, kappa)
    return ESSystem(cost=cost, channels=((g1, d1), (g2, d2)),
                    meta={"builder": "two_input", "N": N, "kappa": kappa, "gain": gain,
                          "kind": kind, "lbs_terms": [(N - 1, gain)]})


def build_three_input(cost: CostFunction, phi2, epsilon: float = 1e-4,
                      kappa: int = 1) -> ESSystem:
    """Triple family fields with the three-dither [[g1,g2],g3] exciter.

    phi2 may be a nonzero constant (fast affine path, the fields (1, -phi2 z,
    -phi2) of make_triple_family, averaged system x' = -phi2^2 J'' for every
    kappa) or a callable shape: fields (1, -int_0^z phi2, -phi2) by adaptive
    Simpson quadrature, on the Python stepper, with no exact bracket for
    endpoint_prediction.  `liees verify excitation` checks the dither triple.

    A callable phi2 must be a pure function of z: its value at 0.0 is taken
    once, here, and the stepper evaluates each stage's two phi2 shapes in one
    pass, phi2(z) serving both (see _phi2_rhs).  It is rejected when
    phi2(0.0) is not finite, and as numerically zero when no value at 0.0 or
    at 33 points on [0, 4] reaches 1e-12 in magnitude (a NaN does not).
    """
    if callable(phi2):
        f0 = phi2(0.0)
        if not math.isfinite(f0):
            raise InvalidParameterError(
                f"phi2(0) = {f0} is not finite: every stage integrates phi2 from 0")
        # a NaN is not >= 1e-12, so it counts as zero wherever it falls
        if abs(f0) < 1e-12 and not any(abs(phi2(z)) >= 1e-12
                                       for z in np.linspace(0.0, 4.0, 33)[1:]):
            raise ConstructionError("phi2 is numerically zero: the target bracket is null")
        g2 = lambda z: -adaptive_simpson(phi2, 0.0, z)
        g3 = lambda z: -phi2(z)
        # the tags _system_stepper fuses the two shapes by
        g2.simpson, g3.negates = (phi2, f0), phi2
        shapes = (const_shape(1.0), g2, g3)
        meta = {}
    else:
        phi = float(phi2)
        if abs(phi) < 1e-12:
            raise ConstructionError("phi2 is zero: the target bracket is null")
        try:
            gain = phi ** 2
        except OverflowError:
            raise InvalidParameterError(f"phi2 = {phi:g} is too large: phi2^2 overflows") from None
        shapes = make_triple_family((phi,))
        meta = {"lbs_terms": [(2, gain)]}
    dithers = make_design("triple123", epsilon, kappa)
    return ESSystem(cost=cost, channels=tuple(zip(shapes, dithers)),
                    meta={"builder": "three_input", "kappa": kappa, "epsilon": epsilon, **meta})


def build_mixed(cost: CostFunction, kappa12: int, kappa1222: int,
                gamma1: float, gamma3: float, epsilon: float = 1e-4) -> ESSystem:
    """First-order pair plus third-order pair with non-resonant frequencies.

    Averaged target: x' = -gamma1 J' - gamma3 J'''.
    """
    if gamma1 < 0 or gamma3 < 0:
        raise InvalidParameterError("gains gamma1, gamma3 must be nonnegative")
    d1, d2 = make_design("first12", epsilon, kappa12)
    d3, d4 = make_design("third1222", epsilon, kappa1222)
    report = check_resonances(sorted({d.fastest_harmonic for d in (d1, d2)}),
                              sorted({d.fastest_harmonic for d in (d3, d4)}))
    if not report.ok:
        raise ConstructionError(
            f"dither frequencies ({kappa12}, {kappa1222}) resonate: {report.violations}",
            report=report,
        )
    w1 = const_shape(1.0)
    w2 = linear_shape(-gamma1)
    if gamma3 > 0:
        g3, g4 = make_generating_pair(4, gamma3)
    else:
        g3, g4 = linear_shape(0.0), const_shape(1.0)
    return ESSystem(cost=cost, channels=((w1, d1), (w2, d2), (g3, d3), (g4, d4)),
                    meta={"builder": "mixed", "kappa12": kappa12, "kappa1222": kappa1222,
                          "gamma1": gamma1, "gamma3": gamma3,
                          "lbs_terms": [(1, gamma1), (3, gamma3)]})


def _diverged(overflow: bool, k: int, h: float, last_x: float) -> DivergenceError:
    """The error for a failure in step k, which started from state last_x."""
    t = k * h
    what = "state overflow" if overflow else f"state exceeded {DIVERGENCE_LIMIT:g}"
    return DivergenceError(f"{what} at t={t:.6g}", last_time=t, last_x=last_x)


def _rk4(F, P, Q, x0: float, h: float, n_out: int, dec: int, store) -> None:
    """Classical RK4 on x' = F[c](x) * Q[c] + P[c], storing every dec-th state.

    Column c indexes the step/half-step grid: step i evaluates columns 2i,
    2i+1, 2i+1 and 2i+2, wrapping at len(Q).  Raises DivergenceError when the
    state leaves (-1e12, 1e12) or a stage overflows; last_time is the start of
    the diverging step and last_x the state there.
    """
    hh = 0.5 * h
    h6 = h / 6.0
    m = len(Q)
    lim = DIVERGENCE_LIMIT
    x = x0
    c = 0
    try:
        for i in range(n_out):
            for j in range(dec):
                b = c + 1
                fb, pb, qb = F[b], P[b], Q[b]
                k1 = F[c](x) * Q[c] + P[c]
                k2 = fb(x + hh * k1) * qb + pb
                k3 = fb(x + hh * k2) * qb + pb
                c = (c + 2) % m
                k4 = F[c](x + h * k3) * Q[c] + P[c]
                xn = x + h6 * (k1 + 2.0 * (k2 + k3) + k4)
                if not (-lim < xn < lim):
                    raise _diverged(False, i * dec + j, h, x)
                x = xn
            store(x)
    except OverflowError:
        raise _diverged(True, i * dec + j, h, x) from None


class _Stepper:
    """x' = F[c](x) * Q[c] + P[c] on the columns of _rk4, for any number of
    starts, on a path chosen once, here: stage holds the compiled kernel's
    arguments, read from the .power tags of J and of the derivative in each
    (order, gain, derivative) row of field, when P and Q are arrays and every
    tag is there, else None.  lists holds the Python stepper's F, P and Q,
    made from J, P and Q when first needed if not given."""

    def __init__(self, J, h: float, P, Q, lists=None, field=()):
        self.J, self.h, self.P, self.Q, self.lists, self.field = J, h, P, Q, lists, field
        tags = [getattr(f, "power", None) for f in (J, *(d for _, _, d in field))]
        self.stage = None
        if P is not None and None not in tags:
            self.stage = (*tags[0], [(g, *tag) for (_, g, _), tag in zip(field, tags[1:])])

    def run(self, x0, n_out: int, dec: int):
        """(states, costs, kernel) of n_out * dec steps from float(x0), each dec-th stored."""
        if not isinstance(x0, numbers.Real):
            raise InvalidParameterError(f"the start must be a real number, got {x0!r}")
        try:
            x0 = float(x0)
        except OverflowError:
            raise InvalidParameterError("the start is too large for a float") from None
        check_array_size(n_out + 1, f"{n_out + 1} stored states")
        if self.stage is not None:
            from . import _kernel

            kernel = _kernel.load()
            if kernel is not None:
                xs, js, status, k, last_x = kernel.rk4(*self.stage, self.P, self.Q, x0, self.h,
                                                       n_out, dec, DIVERGENCE_LIMIT)
                if status == _kernel.NONFINITE:
                    # the error costs.derivative raises at the stage argument last_x
                    raise NumericFailureError(f"analytic derivative of order {self.field[k][0]}"
                                              f" at x={last_x} is not finite")
                if status == _kernel.COST_OVERFLOW:
                    # J raises OverflowError, as on the Python path
                    js = np.array([self.J(v) for v in xs.tolist()])
                elif status:
                    raise _diverged(status == _kernel.OVERFLOW, k, self.h, last_x)
                return xs, js, "c"
        if self.lists is None:
            self.lists = ([self.J] * len(self.Q), self.P.tolist(), self.Q.tolist())
        states = [x0]
        _rk4(*self.lists, x0, self.h, n_out, dec, states.append)
        return np.array(states), np.array([self.J(v) for v in states]), "python"


def _phi2_rhs(J, phi2, f0: float):
    """The right-hand side rhs(us, xv) of a column us = (0 + c u1, u2, u3)
    for build_three_input's callable-phi2 shapes (c, -int_0^z phi2, -phi2),
    given f0 = phi2(0.0).

    It performs the generic column's floating-point operations in its order,
    0 + c u1 (once per column), then + g2 u2 and + g3 u3, where g2 negates
    adaptive_simpson(phi2, 0.0, z) and g3 = -phi2(z).  The quadrature's first
    level is inlined less the operations exact for z != 0: 0.0 + z and
    z - 0.0 are z, mid - 0.0 is mid (0.0 + mid stays: it turns -0.0 into
    0.0).  phi2(z) serves both shapes, so phi2 runs at z/2, z, z/4 and 3z/4
    where the generic path calls it six times, and simpson_halves runs only
    where the first level fails its tolerance.
    """
    hi = 15 * SIMPSON_TOL
    lo = -hi

    def rhs(us, xv):
        a1, u2, u3 = us
        z = J(xv)
        if z == 0.0:
            # adaptive_simpson's empty range
            return a1 + -0.0 * u2 + -phi2(z) * u3
        mid = 0.5 * z
        fm = phi2(mid)
        fz = phi2(z)
        if not (math.isfinite(fm) and math.isfinite(fz)):
            raise NumericFailureError("integrand not finite on the quadrature range")
        whole = z / 6.0 * (f0 + 4.0 * fm + fz)
        flm = phi2(0.5 * (0.0 + mid))
        frm = phi2(0.5 * (mid + z))
        left = mid / 6.0 * (f0 + 4.0 * flm + fm)
        right = (z - mid) / 6.0 * (fm + 4.0 * frm + fz)
        s = left + right
        err = s - whole
        if lo <= err <= hi:
            q = s + err / 15.0
        else:
            q = (simpson_halves(phi2, 0.0, mid, f0, flm, fm, left, SIMPSON_TOL / 2, 1)
                 + simpson_halves(phi2, mid, z, fm, frm, fz, right, SIMPSON_TOL / 2, 1))
        return a1 + -q * u2 + -fz * u3

    return rhs


def _system_stepper(system: ESSystem, S: int) -> _Stepper:
    """A system's stepper at S steps per period: the dither tables, then P and Q
    for affine shapes (.poly of degree <= 1), else one right-hand side
    rhs(us, xv) bound to each column's tuple us of dither values, fused into
    one stage for the callable-phi2 shapes build_three_input tags (.simpson,
    .negates)."""
    if S < 16 * system.fastest_harmonic:
        raise ResolutionError(
            f"{S} steps/period resolve the fastest harmonic "
            f"({system.fastest_harmonic}/period) with fewer than 16 samples"
        )
    # the dither samples on the step/half-step grid of one period
    check_array_size(2 * S, f"{S} steps per period")
    h = system.epsilon / S
    J = system.cost.eval
    ts = np.arange(2 * S) * (system.epsilon / (2 * S))
    tables = [eval_dither(d, ts) for d in system.dithers]
    polys = [getattr(g, "poly", None) for g in system.shapes]
    if all(p is not None and len(p) <= 2 for p in polys):
        # P and Q from the constant and linear coefficients, 0.0 where there is none
        return _Stepper(J, h, sum(p[0] * u for p, u in zip(polys, tables)),
                        sum((*p, 0.0)[1] * u for p, u in zip(polys, tables)))
    shapes = system.shapes
    columns = zip(*(u.tolist() for u in tables))
    quad = getattr(shapes[1], "simpson", None) if len(shapes) == 3 else None
    if (quad is not None and polys[0] is not None and len(polys[0]) == 1
            and getattr(shapes[2], "negates", None) is quad[0]):
        rhs = _phi2_rhs(J, *quad)
        c = polys[0][0]
        columns = [(0 + c * u1, u2, u3) for u1, u2, u3 in columns]
    else:
        def rhs(us, xv):
            # left to right from 0 like sum(), without a generator per call
            z = J(xv)
            acc = 0
            for g, u in zip(shapes, us):
                acc = acc + g(z) * u
            return acc

    # one function bound to each column's tuple: a method object per column,
    # and _rk4's calls, which see one function, are specialised
    F = [rhs.__get__(us) for us in columns]
    return _Stepper(J, h, None, None, (F, [0.0] * (2 * S), [1.0] * (2 * S)))


def integrate(system: ESSystem, x0: float, config: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 over whole periods from any real x0; raises DivergenceError past 1e12.

    The run is round(config.total_time / eps) periods (ties to even), at least
    one, recorded in meta["periods"]: total_time 0.4 eps runs one period and
    2.6 eps three.
    """
    eps = system.epsilon
    S = config.steps_per_period
    stepper = _system_stepper(system, S)
    periods = config.total_time / eps
    if not math.isfinite(periods):
        raise InvalidParameterError(
            f"total_time / epsilon = {config.total_time:g} / {eps:g} is {periods} periods")
    n_periods = max(1, int(round(periods)))
    dec = config.decimation
    xs, cost_values, backend = stepper.run(x0, n_periods * S // dec, dec)
    times = np.arange(len(xs)) * (stepper.h * dec)
    meta = dict(system.meta)
    meta.update({"x0": float(xs[0]), "steps_per_period": S, "decimation": dec,
                 "epsilon": eps, "periods": n_periods, "kernel": backend})
    return Trajectory(times=times, states=xs, cost_values=cost_values,
                      epsilon=eps, meta=meta)


def period_map(system: ESSystem, xs, periods: int = 1,
               steps_per_period: int = 4096) -> np.ndarray:
    """The states after `periods` periods from each start in xs.

    Entry i is bitwise equal to integrate(system, xs[i],
    IntegratorConfig(periods * eps, steps_per_period)).states[-1]: the same
    stepper runs from every start, on dither tables and a right-hand side
    built once per call.  A start that makes integrate raise makes period_map
    raise the same error, the first in the order of xs.
    """
    if type(periods) is not int or periods < 1:
        raise InvalidParameterError(f"periods must be a positive int, got {periods!r}")
    S = steps_per_period
    IntegratorConfig(total_time=periods * system.epsilon, steps_per_period=S)  # checks S
    stepper = _system_stepper(system, S)
    return np.array([stepper.run(x, periods, S)[0][-1] for x in xs])


def integrate_lbs(cost: CostFunction, bracket_terms: Sequence[tuple[int, float]],
                  x0: float, total_time: float, steps: int,
                  record_epsilon: float | None = None) -> Trajectory:
    """RK4 on the averaged system x' = -sum_j gamma_j J^(j)(x), orders j <= 3.

    Like integrate, it takes any real x0 and records its path in meta["kernel"].
    """
    terms = [(int(j), float(g)) for j, g in bracket_terms]
    for j, g in terms:
        if not 1 <= j <= 3:
            raise InvalidParameterError(f"derivative order must be 1..3, got {j}")
        if g < 0:
            raise InvalidParameterError(f"gains must be nonnegative, got {g}")
    if steps < 1 or total_time <= 0:
        raise InvalidParameterError("need steps >= 1 and total_time > 0")

    def rhs(xv: float) -> float:
        # left to right from 0.0: the kernel's order, and sum()'s before Python 3.12
        acc = 0.0
        for j, g in terms:
            acc = acc + g * derivative(cost, j, xv)
        return -acc

    h = total_time / steps
    derivs = cost.analytic_derivs
    field = [(j, g, derivs[j - 1] if j <= len(derivs) else None) for j, g in terms]
    stepper = _Stepper(cost.eval, h, np.zeros(2), np.ones(2),
                       ([rhs, rhs], [0.0, 0.0], [1.0, 1.0]), field)
    xs, cost_values, backend = stepper.run(x0, steps, 1)
    return Trajectory(times=np.arange(len(xs)) * h, states=xs, cost_values=cost_values,
                      epsilon=record_epsilon if record_epsilon is not None else h,
                      meta={"builder": "lbs", "terms": terms, "x0": float(xs[0]), "kernel": backend})


def write_csv_rows(fh, columns) -> None:
    """Write the rows zip(*columns) to the text file fh as CSV lines, each
    value spelled as "%.17g" % float(v) spells it.

    Like zip, it stops at the shortest column.  When the compiled codec loads
    and every column is a 1-d array of bool, integer or float values, it
    formats CSV_FORMAT_BLOCK rows at a time, each block split across the
    process's CPUs, and writes the bytes to fh.buffer after flushing fh, when
    fh has a buffer and an encoding that spells the CSV characters as ASCII
    does (else it writes them to fh as str).  Those bytes bypass fh's newline
    translation: a file opened with the default newline on POSIX gets the
    same bytes either way.  Otherwise Python's own "%.17g" formats CSV_BLOCK
    rows at a time; the bytes are the same.  The compiled codec rounds each
    value to 17 digits itself, in exact integer arithmetic, and writes nan for
    every NaN, as Python does; only subnormals, 0 < |v| <= 1e-38 and
    |v| >= 2^128 go through snprintf "%.17g" (see the _kernel.c header for
    the argument that the bytes agree, whatever the number of threads).
    """
    from . import _kernel

    columns = [np.asarray(c) for c in columns]
    n = min(len(c) for c in columns)
    lib = _kernel.load()
    if lib is not None and all(c.ndim == 1 and c.dtype.kind in "biuf" for c in columns):
        block = np.empty((len(columns), min(n, CSV_FORMAT_BLOCK)))
        buf = np.empty(_kernel.FIELD_BYTES * block.size, np.uint8)
        out = getattr(fh, "buffer", None)
        if out is not None and CSV_ALPHABET.encode(fh.encoding) == CSV_ALPHABET.encode():
            fh.flush()
            write = out.write
        else:
            def write(data):
                fh.write(str(data, "ascii"))
        for s in range(0, n, CSV_FORMAT_BLOCK):
            m = min(CSV_FORMAT_BLOCK, n - s)
            for row, c in zip(block, columns):
                row[:m] = c[s:s + m]
            write(memoryview(buf)[:lib.format_rows(block, m, buf)])
        return
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    for s in range(0, n, CSV_BLOCK):
        rows = zip(*[c[s:s + CSV_BLOCK].tolist() for c in columns])
        fh.write("".join([row_format % r for r in rows]))


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """CSV with header t,x,J and 17 significant digits per value.

    An existing regular file is overwritten in place and then cut to the
    bytes written, never truncated to zero first: ext4 (with its default
    auto_da_alloc) starts writing a file truncated to zero back to disk when
    it closes, so every rewrite would start disk I/O and the next one could
    wait on it.  The bytes left are those that open(path, "w") would leave.
    """
    with open(path, "w", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        try:
            fh.write("t,x,J\n")
            write_csv_rows(fh, (traj.times, traj.states, traj.cost_values))
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _parse_rows(lines: list[str], first_row: int, path: str) -> np.ndarray:
    """The numbers of lines (rows first_row, ...) as an array of shape (len(lines), 3);
    a malformed line raises InvalidParameterError naming the first."""
    if all(line.count(",") == 2 for line in lines):
        fields = ",".join(lines).split(",")
        try:
            return np.fromiter(map(float, fields), np.float64, len(fields)).reshape(-1, 3)
        except ValueError:
            pass
    # some line is not three numbers: name the first
    for row, line in enumerate(lines, start=first_row):
        try:
            t, x, j = map(float, line.strip().split(","))
        except ValueError:
            raise InvalidParameterError(
                f"{path}: line {row}: expected three numbers t,x,J, got {line.strip()!r}"
            ) from None
    raise AssertionError("every line parsed alone but not as a block")


def _check_spacing(times: np.ndarray, path: str) -> None:
    """Reject times whose steps differ from the mean step by more than SPACING_RTOL of it.

    The error names the first of the steps that deviate most, to within that
    tolerance: a gap shifts the mean step away from every other step, so the
    first deviating step says nothing about where the gap is.  A NaN step
    deviates most; when the mean step is not positive, the first step that is
    not positive is named.
    """
    n = len(times)
    if n < 2:
        return
    dt = (times[-1] - times[0]) / (n - 1)
    tol = SPACING_RTOL * dt

    def steps():
        """The steps SPACING_BLOCK at a time, each with the index of its first."""
        for s in range(0, n - 1, SPACING_BLOCK):
            yield s, np.diff(times[s:s + SPACING_BLOCK + 1])

    if dt > 0:
        bad = nan = False
        worst = -math.inf
        for _, step in steps():
            dev = np.abs(step - dt)
            bad = bad or not (dev <= tol).all()
            if np.isnan(dev).any():
                nan = True
            else:
                worst = max(worst, dev.max())
        if not bad:
            return

    def named(step):
        """The steps to name: NaN ones when there are any, else those within
        tol of the largest deviation; with no positive mean step, those not
        positive."""
        if not dt > 0:
            return ~(step > 0)
        dev = np.abs(step - dt)
        return np.isnan(dev) if nan else dev >= worst - tol

    for s, step in steps():
        hit = named(step)
        if hit.any():
            i = s + int(np.argmax(hit))
            raise InvalidParameterError(
                f"{path}: line {i + 3}: times must be evenly spaced and increasing, "
                f"got step {step[i - s]:.17g} against the mean step {dt:.17g}"
            )


def _read_compiled(raw) -> np.ndarray | None:
    """The columns of every row of the binary file raw as one (3, rows)
    array, or None, with raw at its start, when the library does not load,
    raw is not seekable, its header line is not exactly t,x,J, or a line lies
    outside the writer's own grammar (a last line without its line end
    included), is longer than CSV_CHUNK bytes, or lies past the line ends
    counted first to size the array.

    One buffer of CSV_CHUNK bytes is filled by readinto, twice over the
    file: first to count its line ends in C, then to parse the whole lines
    it holds, split at line ends across the process's CPUs, with any partial
    last line moved to the buffer's front to be completed by the next read.
    """
    from . import _kernel

    lib = _kernel.load()
    if lib is None or not raw.seekable():
        return None
    if raw.readline(8) in (b"t,x,J\n", b"t,x,J\r\n"):
        buf = bytearray(CSV_CHUNK)
        view = memoryview(buf)
        offset, lines = raw.tell(), 0
        while size := raw.readinto(buf):
            lines += lib.count_lines(view[:size])
        raw.seek(offset)
        values, fill, size = np.empty((3, lines)), 0, 0
        while read := raw.readinto(view[size:]):
            size += read
            end = buf.rfind(b"\n", 0, size) + 1
            rows, used = lib.parse_rows(view[:end], values, fill)
            fill += rows
            if used < end or not end and size == len(buf):
                # a line outside the grammar or past the lines counted, or
                # one with no line end in a full buffer
                break
            size -= end
            view[:size] = view[end:end + size]
        else:
            if fill == lines and not size:
                return values
    raw.seek(0)
    return None


def read_trajectory_csv(path: str, epsilon: float = 0.0) -> Trajectory:
    """Read a t,x,J CSV; times must be evenly spaced and increasing.

    One parser reads the whole file: the compiled codec (see _read_compiled)
    when it loads, the file is seekable and every line is in the writer's own
    grammar ("%.17g" fields, \\n or \\r\\n line ends), its text split at line
    ends across the process's CPUs; else Python's float,
    CSV_BLOCK lines at a time, which also takes spellings such as " 1_0.5 ",
    "+1" or "Infinity" and names the line of a malformed row.  The compiled
    codec converts a field by Eisel-Lemire, which returns the correctly
    rounded double or declines, and a declined field by strtod, which rounds
    correctly too.  So every value is the one float returns, either way and
    on any number of threads.
    """
    with open(path, "rb") as raw:
        values = _read_compiled(raw)
        if values is None:
            blocks = []
            with io.TextIOWrapper(raw, errors="replace") as fh:
                header = fh.readline().strip()
                if header != "t,x,J":
                    raise InvalidParameterError(f"unexpected trajectory header {header!r}")
                row = 2
                while lines := list(itertools.islice(fh, CSV_BLOCK)):
                    blocks.append(_parse_rows(lines, row, path).T)
                    row += len(lines)
            values = np.concatenate(blocks, axis=1) if blocks else np.empty((3, 0))
            del blocks
    if not values.shape[1]:
        raise InvalidParameterError(f"{path}: no trajectory rows after the header")
    times, xs, js = values
    _check_spacing(times, path)
    return Trajectory(times=times, states=xs, cost_values=js, epsilon=epsilon,
                      meta={"source": path})
