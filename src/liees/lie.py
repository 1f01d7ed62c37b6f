"""Numeric Lie brackets of scalar-state fields g(J(x)) and field-family constructors.

For scalar state the bracket is [f, g](x) = g'(x) f(x) - f'(x) g(x).  Spatial
derivatives use the Richardson central difference of costs.fd_derivative;
nested brackets are differentiated numerically again, with the step widened
tenfold per nesting level because each level's output carries the previous
level's finite-difference noise (a literal sqrt-widening per level overshoots
the truncation error of the Richardson stencil).

The constructors build the derivative-generating families in closed form; the
numeric bracket oracle checks them in one place, liees.verify (and the tests):

  const_shape(c), linear_shape(c): the affine shapes c and c z, tagged
      .affine = (P, Q) with shape(z) = P + Q z so integrators precompute them.
  make_generating_pair(N, c): (g1, g2) = (s c z, 1) with length-N bracket
      -c J^(N-1): each bracket with the constant g2 differentiates once and
      flips the sign, so s = (-1)^N.
  make_wronskian_pair(phi): (g1, g2) = (1, -int_0^z phi) with
      [g1oJ, g2oJ] = -phi(J) grad J.
  make_triple_family(phi2): adds g3 = -phi2 so the triple bracket is
      -phi2(J)^2 J''.
  make_quadruple_family(phi3): triple family with phi2 = sqrt(phi3) plus
      g4 = -phi3, giving length-4 bracket -phi3(J)^2 J'''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .costs import _FD_ORDER_STEP, CostFunction, fd_derivative
from .errors import InvalidParameterError, NumericFailureError

__all__ = [
    "ScalarField",
    "BracketIndex",
    "bracket2",
    "iterated_bracket",
    "make_generating_pair",
    "make_wronskian_pair",
    "make_triple_family",
    "make_quadruple_family",
    "const_shape",
    "linear_shape",
    "adaptive_simpson",
]

BracketIndex = tuple  # ordered channel indices (i1, ..., il), right-iterated

_NEST_WIDEN = 10.0  # step multiplier per additional nesting level


@dataclass(frozen=True)
class ScalarField:
    """A field x -> shape(J(x)) built from a shape acting on the cost value."""

    shape: Callable[[float], float]
    cost: CostFunction

    def __call__(self, x: float) -> float:
        return self.shape(self.cost.eval(x))


def _fd_step(x: float, level: int) -> float:
    return _FD_ORDER_STEP[1] * max(1.0, abs(x)) * _NEST_WIDEN ** (level - 1)


def _bracket_fn(f: Callable, g: Callable, level: int) -> Callable[[float], float]:
    def value(x: float) -> float:
        return (fd_derivative(g, x, 1, _fd_step(x, level)) * f(x)
                - fd_derivative(f, x, 1, _fd_step(x, level)) * g(x))

    return value


def bracket2(f: ScalarField, g: ScalarField, x: float) -> float:
    """First-order bracket [f, g](x) = g' f - f' g of two composed fields."""
    if f.cost is not g.cost:
        raise InvalidParameterError("bracket fields must share one cost function")
    return _bracket_fn(f, g, level=1)(x)


def iterated_bracket(fields: Sequence[ScalarField], idx: BracketIndex, x: float) -> float:
    """Right-iterated bracket [[...[f_{i1}, f_{i2}], ...], f_{il}] evaluated at x.

    Inner brackets are re-differentiated numerically, one nesting level per
    letter beyond the second.
    """
    if not 1 <= len(idx) <= 4:
        raise InvalidParameterError(f"bracket index length must be 1..4, got {len(idx)}")
    if any(i < 1 or i > len(fields) for i in idx):
        raise InvalidParameterError(f"bracket index {idx} outside system arity {len(fields)}")
    current: Callable[[float], float] = fields[idx[0] - 1]
    for level, i in enumerate(idx[1:], start=1):
        current = _bracket_fn(current, fields[i - 1], level)
    val = current(x)
    if not math.isfinite(val):
        raise NumericFailureError(f"iterated bracket {idx} at x={x} is not finite")
    return val


# ---------------------------------------------------------------------------
# generating families
# ---------------------------------------------------------------------------

def const_shape(c: float) -> Callable[[float], float]:
    fn = lambda z: c
    fn.affine = (c, 0.0)
    return fn


def linear_shape(c: float) -> Callable[[float], float]:
    fn = lambda z: c * z
    fn.affine = (0.0, c)
    return fn


def make_generating_pair(N: int, c: float = 1.0) -> tuple[Callable, Callable]:
    """Shapes (g1(z) = s c z, g2(z) = 1) whose length-N bracket is -c J^(N-1).

    The length-N bracket of (s c J, 1) is (-1)^(N-1) s c J^(N-1), so s = (-1)^N.
    """
    if N not in (2, 3, 4):
        raise InvalidParameterError(f"N must be 2, 3 or 4, got {N}")
    if c <= 0:
        raise InvalidParameterError(f"gain c must be positive, got {c}")
    s = 1.0 if N % 2 == 0 else -1.0
    return linear_shape(s * c), const_shape(1.0)


def _simpson_halves(fn, lo, hi, flo, fmid, fhi, whole, tol, depth, max_depth):
    """Simpson on both halves of [lo, hi], recursing where they disagree with whole."""
    mid = 0.5 * (lo + hi)
    flm = fn(0.5 * (lo + mid))
    frm = fn(0.5 * (mid + hi))
    left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
    right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
    if depth >= max_depth:
        raise NumericFailureError("adaptive Simpson did not converge")
    err = left + right - whole
    if abs(err) <= 15 * tol:
        return left + right + err / 15.0
    return (_simpson_halves(fn, lo, mid, flo, flm, fmid, left, tol / 2, depth + 1, max_depth)
            + _simpson_halves(fn, mid, hi, fmid, frm, fhi, right, tol / 2, depth + 1, max_depth))


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature of fn over [a, b]."""
    if a == b:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise NumericFailureError("integrand not finite on the quadrature range")
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_halves(fn, a, b, fa, fm, fb, whole, tol, 0, max_depth)


def make_wronskian_pair(phi: Callable[[float], float]) -> tuple[Callable, Callable]:
    """Shapes (g1, g2) = (1, -int_0^z phi) with Wronskian g1 g2' - g1' g2 = -phi."""
    return const_shape(1.0), (lambda z: -adaptive_simpson(phi, 0.0, z))


def make_triple_family(phi2: Callable[[float], float]) -> tuple[Callable, Callable, Callable]:
    """(g1, g2, g3) with [[g1oJ, g2oJ], g3oJ] = -phi2(J)^2 J''."""
    g1, g2 = make_wronskian_pair(phi2)
    g3 = lambda z: -phi2(z)
    return g1, g2, g3


def make_quadruple_family(phi3: Callable[[float], float]) -> tuple[Callable, ...]:
    """(g1..g4) with [[[g1oJ, g2oJ], g3oJ], g4oJ] = -phi3(J)^2 J'''.

    g1..g3 form the triple family for sqrt(phi3), whose triple bracket is
    B = -phi3(J) J''; with G = -phi3(J) the phi3' terms of G' B - B' G cancel,
    leaving -phi3(J)^2 J'''.
    """
    probe = [phi3(z) for z in (0.0, 0.25, 1.0, 2.0)]
    if any(v < 0 for v in probe):
        raise InvalidParameterError("phi3 must be nonnegative")

    phi2 = lambda z: math.sqrt(phi3(z))
    g1, g2, g3 = make_triple_family(phi2)
    return g1, g2, g3, (lambda z: -phi3(z))
