"""Cost-function models, their declared derivatives, and empirical assumption checkers.

A cost is a scalar function J of a scalar state x with an isolated minimum at
x*.  Its derivatives up to order 4 are the analytic ones it declares; asking
for an order it does not declare raises InvalidParameterError.  The assumption
checkers fit the tightest constants of the power-function growth inequalities
on a grid and validate them on a refined grid, so that constants that only
work at grid scale are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import InvalidDomainError, InvalidParameterError, NumericFailureError

__all__ = [
    "CostFunction",
    "AssumptionReport",
    "make_power_cost",
    "make_abs_cost",
    "derivative",
    "check_assumption",
]


@dataclass(frozen=True)
class CostFunction:
    """Evaluable objective with optional analytic derivatives and known minimizer.

    analytic_derivs[k] is the derivative of order k+1; the list may be shorter
    than 4, and derivative() rejects the orders it leaves out.
    """

    eval: Callable[[float], float]
    analytic_derivs: tuple[Callable[[float], float], ...] = ()
    xstar: float | None = None
    jstar: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.degree is not None and self.degree < 2:
            raise InvalidParameterError(f"cost degree must be >= 2, got {self.degree}")
        if self.xstar is not None and self.jstar is not None:
            if abs(self.eval(self.xstar) - self.jstar) > 1e-12:
                raise InvalidParameterError(
                    "declared minimum value disagrees with eval at the minimizer"
                )

    def __call__(self, x: float) -> float:
        return self.eval(x)


@dataclass
class AssumptionReport:
    """Result of fitting one assumption's inequality constants on a grid."""

    assumption_id: int
    constants: dict[str, float]
    domain: tuple[float, float]
    satisfied: bool
    witness: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def make_power_cost(alpha: float, xstar: float, m: int) -> CostFunction:
    """J(x) = alpha * (x - xstar)^m with analytic derivatives up to order 4."""
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    if int(m) != m or m < 2:
        raise InvalidParameterError(f"degree m must be an integer >= 2, got {m}")
    m = int(m)
    # as doubles, the values the compiled kernel reads from the .power tags
    try:
        alpha, xstar = float(alpha), float(xstar)
    except OverflowError:
        raise InvalidParameterError(
            "alpha and xstar must lie within the range of a float") from None
    if not (math.isfinite(alpha) and math.isfinite(xstar)):
        raise InvalidParameterError(f"alpha and xstar must be finite, got {alpha} and {xstar}")

    def _deriv(order: int) -> Callable[[float], float]:
        # .power = (c, xstar, p): the derivative is c * (x - xstar) ** p, which
        # for c = 0.0 and p = 0 is the constant 0.0 at every x
        if order > m:
            fn = lambda x: 0.0
            fn.power = (0.0, xstar, 0)
            return fn
        try:
            coeff = alpha * math.prod(range(m - order + 1, m + 1))
        except OverflowError:
            raise InvalidParameterError(f"degree m is too large: alpha m!/(m - {order})! overflows")
        p = m - order
        fn = lambda x, c=coeff, p=p: c * (x - xstar) ** p
        fn.power = (coeff, xstar, p)
        return fn

    J = lambda x: alpha * (x - xstar) ** m
    J.power = (alpha, xstar, m)
    return CostFunction(
        eval=J,
        analytic_derivs=tuple(_deriv(k) for k in range(1, 5)),
        xstar=xstar,
        jstar=0.0,
        degree=m,
    )


def make_abs_cost(xstar: float = 0.0) -> CostFunction:
    """J(x) = |x - xstar|, a counterexample kinked at the minimizer: J' = +-1, then 0."""
    derivs = (lambda x: math.copysign(1.0, x - xstar),) + (lambda x: 0.0,) * 3
    return CostFunction(eval=lambda x: abs(x - xstar), analytic_derivs=derivs, xstar=xstar,
                        jstar=0.0, degree=2)


def derivative(cost: CostFunction, order: int, x: float) -> float:
    """Derivative of the cost at x: J itself for order 0, else the declared one."""
    if not 0 <= order <= len(cost.analytic_derivs):
        raise InvalidParameterError(
            f"the cost declares derivatives of order 0..{len(cost.analytic_derivs)}, got {order}")
    if order == 0:
        return cost.eval(x)
    val = cost.analytic_derivs[order - 1](x)
    if not math.isfinite(val):
        raise NumericFailureError(f"analytic derivative of order {order} at x={x} is not finite")
    return val


# ---------------------------------------------------------------------------
# assumption checkers
# ---------------------------------------------------------------------------

GRID_POINTS = 33    # points of the fit grid, ends included


def _ratio_grids(cost: CostFunction, domain: tuple[float, float]):
    """Fit grid plus a refined validation grid (midpoints and points near x*)."""
    lo, hi = domain
    xs = [lo + (hi - lo) * k / (GRID_POINTS - 1) for k in range(GRID_POINTS)]
    fit = [x for x in xs if abs(x - cost.xstar) > 1e-9]
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    near = []
    h = (hi - lo) / (GRID_POINTS - 1)
    for k in range(1, 7):
        step = h / 2**k
        for x in (cost.xstar - step, cost.xstar + step):
            if lo < x < hi:
                near.append(x)
    check = [x for x in mids + near if abs(x - cost.xstar) > 1e-9]
    return fit, check


def _inequalities(cost: CostFunction, assumption_id: int, m: int):
    """Per-assumption list of (name, kind, ratio) with kind 'lower' or 'upper'.

    Each inequality is written as ratio(x) >= c (lower) or ratio(x) <= c
    (upper), with the constant fitted as the grid extremum of the ratio.
    """
    xstar = cost.xstar
    jstar = cost.jstar if cost.jstar is not None else cost.eval(xstar)

    def excess(x):
        return cost.eval(x) - jstar

    def dist(x):
        return abs(x - xstar)

    if assumption_id == 1:
        return [
            ("alpha1", "lower", lambda x: excess(x) / dist(x) ** m),
            ("alpha2", "upper", lambda x: excess(x) / dist(x) ** m),
            ("beta1", "lower", lambda x: abs(derivative(cost, 1, x)) / excess(x) ** (1 - 1 / m)),
            ("beta2", "upper", lambda x: abs(derivative(cost, 1, x)) / excess(x) ** (1 - 1 / m)),
            ("mu", "upper", lambda x: abs(derivative(cost, 2, x)) / excess(x) ** (1 - 2 / m)),
        ]
    if assumption_id == 2:
        return [
            ("alpha1", "lower", lambda x: excess(x) / dist(x) ** m),
            ("alpha2", "upper", lambda x: excess(x) / dist(x) ** m),
            ("beta1", "lower", lambda x: derivative(cost, m - 1, x) * (x - xstar) / dist(x) ** 2),
            ("beta2", "upper", lambda x: abs(derivative(cost, m - 1, x)) / dist(x)),
        ]
    if assumption_id == 3:
        return [
            ("alpha1", "lower", lambda x: excess(x) / dist(x) ** m),
            ("alpha2", "upper", lambda x: excess(x) / dist(x) ** m),
            ("beta11", "lower", lambda x: derivative(cost, 1, x) * (x - xstar) / dist(x) ** m),
            ("beta12", "upper", lambda x: abs(derivative(cost, 1, x)) / dist(x) ** (m - 1)),
            ("beta21", "lower", lambda x: derivative(cost, 3, x) * (x - xstar) / dist(x) ** (m - 2)),
            ("beta22", "upper", lambda x: abs(derivative(cost, 3, x))),
        ]
    raise InvalidParameterError(f"assumption_id must be 1, 2 or 3, got {assumption_id}")


def check_assumption(cost: CostFunction, assumption_id: int,
                     domain: tuple[float, float]) -> AssumptionReport:
    """Fit the assumption's constants on a grid of GRID_POINTS points and
    validate them on a refined grid.

    The fitted constants trivially satisfy the inequalities at the fit points,
    so satisfaction is decided at midpoints and at points approaching the
    minimizer: functions whose local behavior does not match the declared
    degree produce diverging ratios there and are reported unsatisfied.
    """
    if cost.xstar is None:
        raise InvalidParameterError("check_assumption needs a cost with a declared minimizer")
    lo, hi = domain
    if not (lo < cost.xstar < hi):
        raise InvalidDomainError(f"domain {domain} must strictly contain x*={cost.xstar}")

    m = cost.degree if cost.degree is not None else 2
    fit_xs, check_xs = _ratio_grids(cost, domain)
    constants: dict[str, float] = {}
    witness: dict[str, float] = {}
    failures: list[str] = []
    slack = 1 + 1e-6

    def _safe(ratio, x):
        try:
            v = ratio(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            return math.inf
        return v if not isinstance(v, complex) else math.inf

    for name, kind, ratio in _inequalities(cost, assumption_id, m):
        if assumption_id == 3 and m == 2 and name == "beta21":
            constants[name] = 0.0
            witness[name] = cost.xstar
            continue
        vals = [(_safe(ratio, x), x) for x in fit_xs]
        if kind == "lower":
            c, wx = min(vals)
            c = max(c, 0.0)
            ok = all(_safe(ratio, x) >= c / slack - 1e-12 for x in check_xs)
            if name in ("alpha1", "beta1", "beta11") and c <= 0:
                ok = False
        else:
            c, wx = max(vals)
            ok = all(_safe(ratio, x) <= c * slack + 1e-12 for x in check_xs)
        if not math.isfinite(c):
            ok = False
        constants[name] = c
        witness[name] = wx
        if not ok:
            failures.append(name)

    return AssumptionReport(
        assumption_id=assumption_id,
        constants=constants,
        domain=domain,
        satisfied=not failures,
        witness=witness,
        failures=failures,
    )
