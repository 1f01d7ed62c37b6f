"""Exact Lie brackets of scalar-state fields g(J(x)) and field-family constructors.

For scalar state the bracket is [f, g](x) = g'(x) f(x) - f'(x) g(x).  Every
shape built here carries .poly, its coefficients in z in ascending order, and
every cost from make_power_cost carries .power = (alpha, xstar, m).  With
y = x - xstar, J = alpha y^m, so a field g(J(x)) is the polynomial
sum_k p_k alpha^k y^(mk) in y and a bracket of two such polynomials is one
convolution, sum_{i,j} (j - i) f_i g_j y^(i+j-1).  iterated_bracket evaluates
the result by Horner's rule at x - xstar: exact up to roundoff, at any length.
A shape without .poly is rejected.

The constructors build the shapes c, c z and sum_k p_k z^k, and the
derivative-generating families in closed form from coefficient sequences phi;
the bracket checks them in one place, liees.verify (and the tests):

  make_generating_pair(N, c): (g1, g2) = (s c z, 1) with length-N bracket
      -c J^(N-1): each bracket with the constant g2 differentiates once and
      flips the sign, so s = (-1)^N.
  make_wronskian_pair(phi): (g1, g2) = (1, -int_0^z phi) with
      [g1oJ, g2oJ] = -phi(J) grad J.
  make_triple_family(phi2): adds g3 = -phi2 so the triple bracket is
      -phi2(J)^2 J''.
  make_quadruple_family(phi2): triple family plus g4 = -phi3 with
      phi3 = phi2^2, giving length-4 bracket -phi3(J)^2 J'''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .costs import CostFunction
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
    "poly_shape",
    "adaptive_simpson",
]

BracketIndex = tuple  # ordered channel indices (i1, ..., il), right-iterated


@dataclass(frozen=True)
class ScalarField:
    """A field x -> shape(J(x)) built from a shape acting on the cost value."""

    shape: Callable[[float], float]
    cost: CostFunction

    def __call__(self, x: float) -> float:
        return self.shape(self.cost.eval(x))


def _horner(p: Sequence[float], z: float) -> float:
    acc = p[-1]
    for c in p[-2::-1]:
        acc = acc * z + c
    return acc


def _in_y(p: Sequence[float], alpha: float, m: int) -> list[float]:
    """The coefficients in y of sum_k p_k (alpha y^m)^k."""
    out, scale = [0.0] * (m * (len(p) - 1) + 1), 1.0
    for k, c in enumerate(p):
        out[m * k], scale = c * scale, scale * alpha
    return out


def _bracket(f: list[float], g: list[float]) -> list[float]:
    """The coefficients of g' f - f' g for coefficient lists f and g."""
    out = [0.0] * max(1, len(f) + len(g) - 2)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                if gj and i != j:
                    out[i + j - 1] += (j - i) * fi * gj
    return out


def bracket2(f: ScalarField, g: ScalarField, x: float) -> float:
    """First-order bracket [f, g](x) = g' f - f' g of two composed fields."""
    return _value([f, g], (1, 2), x)


def iterated_bracket(fields: Sequence[ScalarField], idx: BracketIndex, x: float) -> float:
    """Right-iterated bracket [[...[f_{i1}, f_{i2}], ...], f_{il}] evaluated at x.

    The fields must share one cost from make_power_cost and have polynomial
    shapes (.poly); any other field raises InvalidParameterError.
    """
    return _value(fields, idx, x)


def _value(fields, idx, x):
    # the one body of both public names, which benchmark tracing times apart
    if not idx or any(i < 1 or i > len(fields) for i in idx):
        raise InvalidParameterError(f"bracket index {idx} empty or outside arity {len(fields)}")
    cost = fields[idx[0] - 1].cost
    if any(fields[i - 1].cost is not cost for i in idx):
        raise InvalidParameterError("bracket fields must share one cost function")
    power = getattr(cost.eval, "power", None)
    if power is None:
        raise InvalidParameterError("exact brackets need a cost from make_power_cost")
    alpha, xstar, m = power
    current = None
    for i in idx:
        p = getattr(fields[i - 1].shape, "poly", None)
        if p is None:
            raise InvalidParameterError(
                f"bracket {idx}: the shape of channel {i} has no polynomial coefficients (.poly)")
        g = _in_y(p, alpha, m)
        current = g if current is None else _bracket(current, g)
    val = _horner(current, x - xstar)
    if not math.isfinite(val):
        raise NumericFailureError(f"iterated bracket {idx} at x={x} is not finite")
    return val


# ---------------------------------------------------------------------------
# generating families
# ---------------------------------------------------------------------------

def const_shape(c: float) -> Callable[[float], float]:
    fn = lambda z: c
    fn.poly = (c,)
    return fn


def linear_shape(c: float) -> Callable[[float], float]:
    fn = lambda z: c * z
    fn.poly = (0.0, c)
    return fn


def poly_shape(coeffs: Sequence[float]) -> Callable[[float], float]:
    """The shape sum_k coeffs[k] z^k, evaluated by Horner's rule."""
    p = tuple(float(c) for c in coeffs)
    if not p or not all(map(math.isfinite, p)):
        raise InvalidParameterError(f"shape coefficients must be finite and nonempty, got {p}")
    fn = lambda z: _horner(p, z)
    fn.poly = p
    return fn


def make_generating_pair(N: int, c: float = 1.0) -> tuple[Callable, Callable]:
    """Shapes (g1(z) = s c z, g2(z) = 1) whose length-N bracket is -c J^(N-1).

    The length-N bracket of (s c J, 1) is (-1)^(N-1) s c J^(N-1), so s = (-1)^N.
    """
    if int(N) != N or N < 2:
        raise InvalidParameterError(f"N must be an integer >= 2, got {N}")
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
    """Adaptive Simpson quadrature of fn over [a, b], for sim's callable-phi2 fields."""
    if a == b:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise NumericFailureError("integrand not finite on the quadrature range")
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_halves(fn, a, b, fa, fm, fb, whole, tol, 0, max_depth)


def make_wronskian_pair(phi: Sequence[float]) -> tuple[Callable, Callable]:
    """Shapes (g1, g2) = (1, -int_0^z phi) with Wronskian g1 g2' - g1' g2 = -phi."""
    return const_shape(1.0), poly_shape([0.0] + [-c / (k + 1) for k, c in enumerate(phi)])


def make_triple_family(phi2: Sequence[float]) -> tuple[Callable, Callable, Callable]:
    """(g1, g2, g3) with [[g1oJ, g2oJ], g3oJ] = -phi2(J)^2 J''."""
    g1, g2 = make_wronskian_pair(phi2)
    return g1, g2, poly_shape([-c for c in phi2])


def make_quadruple_family(phi2: Sequence[float]) -> tuple[Callable, ...]:
    """(g1..g4) with [[[g1oJ, g2oJ], g3oJ], g4oJ] = -phi3(J)^2 J''', phi3 = phi2^2.

    g1..g3 form the triple family for phi2, whose triple bracket is
    B = -phi3(J) J''; with G = -phi3(J) the phi3' terms of G' B - B' G cancel,
    leaving -phi3(J)^2 J'''.
    """
    return (*make_triple_family(phi2), poly_shape(-np.convolve(phi2, phi2)))
