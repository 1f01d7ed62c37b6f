"""Iterated integrals of dither signals, truncated signature logarithm, and
excitation verification.

The signature stores the iterated integrals

    I_w = int_0^eps u_{i1}(s1) int_0^{s1} u_{i2}(s2) ... ds_l ... ds_1,

for words w = (i1 ... il): the first letter takes the outermost (latest)
integration variable.  Like every truncated tensor here (`tensor_log`,
`tensor_exp`) it is a level list, `Signature.levels`: see the graded tensor
arithmetic below.  Reversing every word turns this into the path-ordered
signature, whose tensor logarithm is a Lie element; expanding that logarithm
over right-iterated brackets [[...[e_{v1}, e_{v2}], ...], e_{vl}] and dividing
by eps yields the per-period bracket coefficients that weight the averaged
dynamics: over one period the state moves by

    x(eps) - x0 = sum_v  coeff_v * eps * (bracket_v of the fields)(x0) + R.

Basis label words are chosen per degree by a deterministic greedy sweep that
prefers Lyndon words, so the targets (1,2), (1,2,2), (1,2,3), (1,2,2,2) are
always labels.  The projection solves a small exact-rank least-squares system;
its residual measures how far the computed logarithm is from a Lie element
and is dominated by quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, NumericFailureError, ResolutionError, check_array_size
from .dither import DitherSpec, eval_dither
from .lie import iterated_bracket
from .sim import ESSystem

__all__ = [
    "Signature",
    "BracketCoefficients",
    "ExcitationReport",
    "compute_signature",
    "log_signature",
    "verify_excitation",
    "endpoint_prediction",
    "shuffles",
    "shuffle_residual",
    "basis_labels",
    "expand_bracket",
    "tensor_log",
    "tensor_exp",
]

MAX_DEPTH = 4


# ---------------------------------------------------------------------------
# words, shuffles, bracket expansions
# ---------------------------------------------------------------------------

def _word_index(word: tuple, n: int) -> int:
    """Flat index of word within its level: the word read as a base-n number,
    first letter most significant (the itertools.product order)."""
    i = 0
    for a in word:
        i = i * n + a - 1
    return i


def shuffles(w1: tuple, w2: tuple):
    """All interleavings of w1 and w2 preserving internal order (with multiplicity)."""
    if not w1:
        yield w2
        return
    if not w2:
        yield w1
        return
    for s in shuffles(w1[1:], w2):
        yield (w1[0],) + s
    for s in shuffles(w1, w2[1:]):
        yield (w2[0],) + s


@lru_cache(maxsize=None)
def expand_bracket(word: tuple) -> dict:
    """Word-space expansion of the right-iterated bracket indexed by `word`."""
    if len(word) == 1:
        return {word: 1}
    prev = expand_bracket(word[:-1])
    last = word[-1]
    out: dict = {}
    for w, c in prev.items():
        right = w + (last,)
        left = (last,) + w
        out[right] = out.get(right, 0) + c
        out[left] = out.get(left, 0) - c
    return {w: c for w, c in out.items() if c}


def _lie_dimension(n: int, ell: int) -> int:
    """Necklace-count dimension of the degree-ell free Lie algebra component."""
    def mobius(m: int) -> int:
        if m == 1:
            return 1
        res, x, p = 1, m, 2
        count = 0
        while p * p <= x:
            if x % p == 0:
                x //= p
                count += 1
                if x % p == 0:
                    return 0
            p += 1
        if x > 1:
            count += 1
        return -1 if count % 2 else 1

    total = sum(mobius(d) * n ** (ell // d) for d in range(1, ell + 1) if ell % d == 0)
    return total // ell


def _is_lyndon(w: tuple) -> bool:
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def _reduce(basis: dict, row: dict) -> dict:
    """Eliminate every pivot of the echelon basis from `row` (exact Fractions).

    Each basis row has a unit entry at its pivot word and, having been reduced
    against every earlier row, zeros at all earlier pivots; one pass in
    insertion order therefore clears every pivot.
    """
    for pivot, brow in basis.items():
        f = row.get(pivot)
        if f:
            for w, v in brow.items():
                r = row.get(w, 0) - f * v
                if r:
                    row[w] = r
                else:
                    row.pop(w, None)
    return row


@lru_cache(maxsize=None)
def basis_labels(n_channels: int, ell: int) -> tuple:
    """Label words whose right-iterated brackets form a basis of degree ell.

    Lyndon words are tried first in lexicographic order, then all remaining
    words; a word is accepted when its bracket expansion enlarges the span,
    that is when it does not reduce to zero against the echelon basis (a
    dict from pivot word to reduced row) of the labels accepted so far.
    """
    dim = _lie_dimension(n_channels, ell)
    all_words = list(product(range(1, n_channels + 1), repeat=ell))
    candidates = [w for w in all_words if _is_lyndon(w)]
    candidates += [w for w in all_words if not _is_lyndon(w)]
    labels: list[tuple] = []
    basis: dict = {}
    for w in candidates:
        row = _reduce(basis, {k: Fraction(c) for k, c in expand_bracket(w).items()})
        if row:
            pivot = min(row)
            basis[pivot] = {k: v / row[pivot] for k, v in row.items()}
            labels.append(w)
        if len(labels) == dim:
            break
    if len(labels) != dim:
        raise RuntimeError(f"bracket basis construction failed for n={n_channels}, ell={ell}")
    return tuple(labels)


# ---------------------------------------------------------------------------
# graded tensor arithmetic
# ---------------------------------------------------------------------------
#
# A truncated tensor without its empty word is a list of levels: entry k is a
# float64 array of length n^k holding the coefficients of the words of length
# k in itertools.product order, word w at _word_index(w, n) (the row-major
# flattening, so the outer product of levels i and j is the level of the
# concatenated words), or None where every word of that length is absent.
# Entry 0 is always None.  Each coefficient accumulates from 0.0 in order of
# increasing split length, the order of a word-by-word product over dicts
# whose prefixes come shortest first, so the results are bitwise those of
# that product.

def _tensor_mul(A: list, B: list, depth: int) -> list:
    """Truncated product of two level lists."""
    out = [None] * (depth + 1)
    for k in range(2, depth + 1):
        for j in range(1, k):
            a, b = A[j], B[k - j]
            if a is not None and b is not None:
                term = np.multiply.outer(a, b).ravel()
                out[k] = 0.0 + term if out[k] is None else out[k] + term
    return out


def _series(X: list, depth: int, term) -> list:
    """sum of term(k, level of X^k) over k = 1..depth, truncated at depth."""
    out = [None] + [np.zeros(len(X[1]) ** k) for k in range(1, depth + 1)]
    power = X
    for k in range(1, depth + 1):
        for ell in range(k, depth + 1):
            if power[ell] is not None:
                out[ell] += term(k, power[ell])
        if k < depth:
            power = _tensor_mul(power, X, depth)
    return out


def tensor_log(X: list, depth: int) -> list:
    """log(1 + X) truncated at depth; X is a level list (no empty word)."""
    return _series(X, depth, lambda k, p: (1.0 if k % 2 else -1.0) * p / k)


def tensor_exp(X: list, depth: int) -> list:
    """exp(X) - 1 truncated at depth; X is a level list (no empty word)."""
    return _series(X, depth, lambda k, p: p / float(math.factorial(k)))


# ---------------------------------------------------------------------------
# signature computation
# ---------------------------------------------------------------------------

@dataclass
class Signature:
    """Iterated integrals of a dither set over one period, as a level list:
    levels[k] holds the integrals of the n_channels^k words of length k.
    kernel is the quadrature that computed them, "c" or "python"."""

    depth: int
    n_channels: int
    epsilon: float
    quadrature_steps: int
    levels: list = field(default_factory=list)
    kernel: str = "python"

    def entry(self, word: tuple) -> float:
        """The integral of one word; KeyError for a word not in the signature."""
        if not 1 <= len(word) <= self.depth or not all(1 <= a <= self.n_channels for a in word):
            raise KeyError(word)
        return float(self.levels[len(word)][_word_index(word, self.n_channels)])

    def items(self):
        """(word, integral) for every word, shortest first, each level in product order."""
        for k in range(1, self.depth + 1):
            words = product(range(1, self.n_channels + 1), repeat=k)
            yield from zip(words, self.levels[k].tolist())


@dataclass
class BracketCoefficients:
    """Per-period bracket coefficients: the eps-normalized signature logarithm."""

    depth: int
    n_channels: int
    epsilon: float
    coefficients: dict = field(default_factory=dict)
    projection_residual: float = 0.0

    def coefficient(self, index: tuple) -> float:
        return self.coefficients[tuple(index)]

    def labels(self):
        return sorted(self.coefficients, key=lambda w: (len(w), w))


def _cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * (0.5 * dt), out=out[1:])
    return out


def _signature_levels(us: list, depth: int, dt: float) -> list:
    """Levels 1..depth of compute_signature in numpy, from the samples us of
    each channel: the fallback, and the oracle of the compiled
    signature_levels of liees._kernel."""
    # running: the running integrals of the previous level's words in product
    # order.  With the first letter as the outer loop, level k comes out in
    # product order too; the deepest level keeps no running integral.
    levels, running = [], [np.ones(len(us[0]))]
    for k in range(1, depth + 1):
        if k < depth:
            running = [_cumtrapz(u * r, dt) for u in us for r in running]
            levels.append(np.array([r[-1] for r in running]))
        else:
            levels.append(np.fromiter((_cumtrapz(u * r, dt)[-1] for u in us for r in running),
                                      float, len(us) * len(running)))
    return levels


def compute_signature(dithers: Sequence[DitherSpec], depth: int = MAX_DEPTH,
                      quadrature_steps: int | None = None) -> Signature:
    """All iterated integrals over one period on a uniform grid.

    The integrals accumulate level by level: the running integral of a word
    (a,) + v is the running trapezoid integral of (channel a's samples * the
    running integral of v), so level k is built from the running integrals of
    level k - 1 alone.  The grid has quadrature_steps intervals, by default
    max(4096, 512 * fastest harmonic).

    The levels come from the compiled signature_levels of liees._kernel,
    one pass over the grid per word and the last two levels in one pass per
    word of the first, when the library loads, else from the numpy chain
    _signature_levels.  Both give the same bits (the argument is in the
    header of _kernel.c), and Signature.kernel records which one ran, "c" or
    "python".
    """
    if not dithers:
        raise InvalidParameterError("need at least one dither channel")
    if depth < 1 or depth > MAX_DEPTH:
        raise InvalidParameterError(f"depth must be 1..{MAX_DEPTH}, got {depth}")
    eps = dithers[0].epsilon
    if any(abs(d.epsilon - eps) > 1e-15 * eps for d in dithers):
        raise InvalidParameterError("all dither channels must share one period")
    fastest = max(d.fastest_harmonic for d in dithers)
    if quadrature_steps is None:
        quadrature_steps = max(4096, 512 * fastest)
    # at least one step even for constant channels, whose fastest harmonic is 0
    if quadrature_steps < max(16 * fastest, 1):
        raise ResolutionError(
            f"{quadrature_steps} steps resolve the fastest harmonic ({fastest}/period) "
            f"with fewer than 16 samples"
        )
    check_array_size(quadrature_steps + 1, f"{quadrature_steps} quadrature steps")

    n = len(dithers)
    m = quadrature_steps
    dt = eps / m
    ts = np.linspace(0.0, eps, m + 1)
    us = [eval_dither(d, ts) for d in dithers]

    from . import _kernel

    lib = _kernel.load()
    with np.errstate(over="ignore", invalid="ignore"):
        levels = (_signature_levels if lib is None else lib.signature_levels)(us, depth, dt)
    sig = Signature(depth=depth, n_channels=n, epsilon=eps, quadrature_steps=m,
                    levels=[None, *levels], kernel="python" if lib is None else "c")
    _check_finite("signature entry", sig.items(), eps)
    return sig


def _check_finite(what: str, pairs, eps: float) -> None:
    for w, v in pairs:
        if not math.isfinite(v):
            raise NumericFailureError(f"{what} {''.join(map(str, w))} is {v} at epsilon {eps:g}")


def shuffle_residual(sig: Signature, pairs: Sequence[tuple] | None = None) -> float:
    """Worst violation of entry(w1) entry(w2) = sum of shuffle entries.

    Each pair's defect is divided by the largest of |lhs|, |rhs| and the
    largest absolute entry of the signature (1 when every entry is 0).  The
    scale is one number for all word lengths, not a per-length magnitude, so
    on a correct signature whose largest entry is small against the scale of
    its path, quadrature error alone can read as a large residual.
    """
    if pairs is None:
        ws = [w for w, _ in sig.items() if len(w) <= sig.depth - 1]
        pairs = [(w1, w2) for w1 in ws for w2 in ws if len(w1) + len(w2) <= sig.depth]
    worst = 0.0
    scale = max(abs(v) for _, v in sig.items()) or 1.0
    for w1, w2 in pairs:
        lhs = sig.entry(w1) * sig.entry(w2)
        rhs = sum(sig.entry(s) for s in shuffles(tuple(w1), tuple(w2)))
        denom = max(abs(lhs), abs(rhs), scale)
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


# ---------------------------------------------------------------------------
# logarithm and projection
# ---------------------------------------------------------------------------

def log_signature(sig: Signature) -> BracketCoefficients:
    """Tensor logarithm projected on the right-iterated bracket basis, per eps."""
    # word reversal converts the stored integrals into the path-ordered
    # convention in which the logarithm pairs with same-index field brackets;
    # it reverses the axes of each level seen as an n x ... x n array
    n = sig.n_channels
    X = [None] + [v.reshape((n,) * k).T.ravel() for k, v in enumerate(sig.levels) if k]
    with np.errstate(over="ignore", invalid="ignore"):
        log = tensor_log(X, sig.depth)

    coeffs: dict = {}
    worst_abs = 0.0
    global_scale = 0.0
    for ell in range(1, sig.depth + 1):
        labels = basis_labels(n, ell)
        A = np.zeros((n ** ell, len(labels)))
        for j, lab in enumerate(labels):
            for w, c in expand_bracket(lab).items():
                A[_word_index(w, n), j] = c
        b = log[ell]
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        worst_abs = max(worst_abs, float(np.abs(b - A @ sol).max()))
        global_scale = max(global_scale, float(np.abs(b).max()))
        for j, lab in enumerate(labels):
            coeffs[lab] = float(sol[j]) / sig.epsilon
    _check_finite("bracket coefficient", coeffs.items(), sig.epsilon)

    return BracketCoefficients(depth=sig.depth, n_channels=sig.n_channels,
                               epsilon=sig.epsilon, coefficients=coeffs,
                               projection_residual=worst_abs / max(global_scale, 1e-300))


@dataclass
class ExcitationReport:
    """The verdict of verify_excitation and the coefficients it judged."""

    target: tuple
    target_coeff: float
    max_offtarget: float
    offtarget_index: tuple | None
    tol: float
    ok: bool
    coefficients: BracketCoefficients


def _canonical_target(target: tuple, n_channels: int) -> tuple[tuple, float]:
    """Map a bracket index to the equal-or-negated basis label representing it."""
    target = tuple(target)
    labels = basis_labels(n_channels, len(target))
    if target in labels:
        return target, 1.0
    exp = expand_bracket(target)
    for lab in labels:
        lab_exp = expand_bracket(lab)
        if exp == lab_exp:
            return lab, 1.0
        if exp == {w: -c for w, c in lab_exp.items()}:
            return lab, -1.0
    raise InvalidParameterError(
        f"bracket index {target} is not (up to sign) a basis label; valid labels: {labels}"
    )


def verify_excitation(dithers: Sequence[DitherSpec], target: tuple, tol: float = 1e-3,
                      quadrature_steps: int | None = None) -> ExcitationReport:
    """Check that exactly the target bracket is excited up to depth MAX_DEPTH."""
    target = tuple(target)
    if not 2 <= len(target) <= MAX_DEPTH:
        raise InvalidParameterError(f"target length must be 2..{MAX_DEPTH}, got {len(target)}")
    label, sign = _canonical_target(target, len(dithers))
    sig = compute_signature(dithers, MAX_DEPTH, quadrature_steps)
    coeffs = log_signature(sig)
    target_coeff = sign * coeffs.coefficient(label)
    worst, worst_w = 0.0, None
    for w, v in coeffs.coefficients.items():
        if w == label:
            continue
        if abs(v) > worst:
            worst, worst_w = abs(v), w
    ok = abs(target_coeff) > tol and worst < tol * abs(target_coeff)
    return ExcitationReport(target=target, target_coeff=target_coeff,
                            max_offtarget=worst, offtarget_index=worst_w,
                            tol=tol, ok=ok, coefficients=coeffs)


def endpoint_prediction(system, x0: float, order: int = MAX_DEPTH,
                        quadrature_steps: int | None = None) -> float:
    """Truncated one-period endpoint x0 + sum coeff * eps * bracket(x0)."""
    if not isinstance(system, ESSystem):
        raise InvalidParameterError("endpoint_prediction expects an ESSystem")
    sig = compute_signature(system.dithers, order, quadrature_steps)
    coeffs = log_signature(sig)
    fields = system.fields
    x = x0
    for w, c in coeffs.coefficients.items():
        if abs(c) < 1e-12:
            continue
        x += c * system.epsilon * iterated_bracket(fields, w, x0)
    return x
