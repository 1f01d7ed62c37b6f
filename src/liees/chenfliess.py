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
its residual measures how far the computed logarithm is from a Lie element.
The signature is exact (`compute_signature`), so the residual is roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, NumericFailureError, check_array_size
from .dither import DitherSpec
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
    dict from pivot word to reduced row) of the labels accepted so far.  The
    dimension is the number of Lyndon words of length ell (Witt's formula).
    """
    all_words = list(product(range(1, n_channels + 1), repeat=ell))
    candidates = [w for w in all_words if _is_lyndon(w)]
    dim = len(candidates)
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
    quadrature_steps is 0: the integrals are exact and sample no grid."""

    depth: int
    n_channels: int
    epsilon: float
    quadrature_steps: int = 0
    levels: list = field(default_factory=list)

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


def _spectra(dithers: Sequence[DitherSpec], depth: int) -> tuple[float, int, np.ndarray]:
    """(omega, band, V): with tau = t / eps, channel a over one period is
    u_a(eps tau) = eps^(-1) sum_k V[a, band + k] e^(i omega k tau), |k| <= band,
    so V carries each letter's factor eps^(1/N) coef scale(kappa).  The
    harmonics h kappa are counted in units of their greatest common divisor,
    omega / (2 pi).  Rejects a band whose depth-level arrays numpy cannot size."""
    n = len(dithers)
    # (channel, harmonic h kappa, cos | sin, amplitude times the letter factor)
    terms = []
    for a, d in enumerate(dithers):
        factor, series = d.series
        terms += [(a, int(h) * int(d.kappa), trig, factor * d.epsilon * amp)
                  for h, trig, amp in series]
    unit = math.gcd(*(k for _, k, _, _ in terms)) or 1
    band = max(k for _, k, _, _ in terms) // unit
    # every array of compute_signature holds at most this many doubles
    check_array_size(2 * (n ** (depth - 1) + depth + 1) * depth * (2 * depth * band + 1),
                     f"the signature's {n}^{depth - 1} words at {2 * band + 1} harmonics")
    V = np.zeros((n, 2 * band + 1), complex)
    for a, k, trig, c in terms:
        # cos = (e^+ + e^-) / 2 and sin = (e^+ - e^-) / 2i
        half = 0.5 * c * (1.0 if trig == "cos" else -1j)
        V[a, band + k // unit] += half
        V[a, band - k // unit] += half.conjugate()
    return 2.0 * math.pi * unit, band, V


def _integration_map(depth: int, band: int, omega: float) -> np.ndarray:
    """M[i, j, K + k], K = depth * band, for |k| <= K and j < depth:
    int_0^tau s^j e^(i omega k s) ds = sum_i M[i, j, K + k] tau^i e^(i omega k tau)
    plus the constant that makes it 0 at tau = 0.  For k != 0, by parts,
    M[i, j] = (-1)^(j-i) j!/i! / beta^(j-i+1) with beta = i omega k for
    i <= j; for k = 0, M[j + 1, j] = 1 / (j + 1).  The map of a lower level l
    is the block M[:l + 1, :l, (depth - l) band:(depth + l) band + 1]."""
    K = depth * band
    beta = 1j * omega * np.arange(-K, K + 1)
    beta[K] = 1.0
    inv = 1.0 / beta
    # F_j = tau^j e^(beta tau) / beta - (j / beta) F_(j-1)
    M = np.zeros((depth + 1, depth, 2 * K + 1), complex)
    for j in range(depth):
        M[j, j] = inv
        M[:j, j] = -j * inv * M[:j, j - 1]
    M[:, :, K] = 0.0
    for j in range(depth):
        M[j + 1, j, K] = 1.0 / (j + 1)
    return M


def compute_signature(dithers: Sequence[DitherSpec], depth: int = MAX_DEPTH) -> Signature:
    """All iterated integrals over one period, in closed form.

    Each letter contributes eps^(1/N) times a trigonometric polynomial in
    tau = t / eps (_spectra), so the running integral of a word over tau in
    [0, 1] is a sum of c tau^j e^(i omega k tau): multiplying by a channel
    shifts k by its harmonics, and integrating from 0 is exact
    (_integration_map).  The running integral of (a,) + v comes from that of
    v, so level l comes from level l - 1 alone, on the band |k| <= l band.
    At tau = 1 every e^(i omega k) is 1, so a word's integral is the sum of
    its coefficients; the last level is a dot product with the integrals
    over [0, 1] of tau^j e^(i omega k tau).
    """
    if not dithers:
        raise InvalidParameterError("need at least one dither channel")
    if depth < 1 or depth > MAX_DEPTH:
        raise InvalidParameterError(f"depth must be 1..{MAX_DEPTH}, got {depth}")
    eps = dithers[0].epsilon
    if any(abs(d.epsilon - eps) > 1e-15 * eps for d in dithers):
        raise InvalidParameterError("all dither channels must share one period")
    n = len(dithers)
    try:
        omega, band, V = _spectra(dithers, depth)
    except OverflowError:
        raise InvalidParameterError("a harmonic or kappa is too large for a float") from None
    # the (channel, harmonic) pairs of each channel's terms
    shifts = list(zip(*np.nonzero(V)))
    M = _integration_map(depth, band, omega)
    # running[w, j, (l - 1) band + k]: the tau^j e^(i omega k tau) coefficient
    # of word w's running integral at level l - 1, words in product order
    running = np.ones((1, 1, 1), complex)
    levels: list = [None]
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(1, depth):
            width = running.shape[2]
            shifted = np.zeros((n, len(running), level, width + 2 * band), complex)
            for a, m in shifts:
                shifted[a, ..., m:m + width] += V[a, m] * running
            shifted = shifted.reshape(n * len(running), level, -1)
            low = (depth - level) * band
            running = np.einsum("wjk,ijk->wik", shifted,
                                M[:level + 1, :level, low:low + shifted.shape[2]])
            running[:, 0, level * band] = -running[:, 0].sum(axis=1)
            levels.append(running.sum(axis=(1, 2)).real.copy())
        # tau^j e^(i omega k tau) integrates over [0, 1] to the sum over i >= 1 of M
        last = M[1:].sum(axis=0)
        width = running.shape[2]
        weights = np.zeros((n, depth, width), complex)
        for a, m in shifts:
            weights[a] += V[a, m] * last[:, m:m + width]
        levels.append((weights.reshape(n, -1) @ running.reshape(len(running), -1).T).real.ravel())
    sig = Signature(depth=depth, n_channels=n, epsilon=eps, levels=levels)
    if not all(np.isfinite(v).all() for v in levels[1:]):
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
    scale is one number for all word lengths, not a per-length magnitude: on
    the exact signature of compute_signature the residual is roundoff, but on
    a quadrature estimate whose largest entry is small against the scale of
    its path, the quadrature error alone can read as a large residual.
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


def verify_excitation(dithers: Sequence[DitherSpec], target: tuple,
                      tol: float = 1e-3) -> ExcitationReport:
    """Check that exactly the target bracket is excited up to depth MAX_DEPTH."""
    target = tuple(target)
    if not 2 <= len(target) <= MAX_DEPTH:
        raise InvalidParameterError(f"target length must be 2..{MAX_DEPTH}, got {len(target)}")
    label, sign = _canonical_target(target, len(dithers))
    sig = compute_signature(dithers, MAX_DEPTH)
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


def endpoint_prediction(system, x0: float, order: int = MAX_DEPTH) -> float:
    """Truncated one-period endpoint x0 + sum coeff * eps * bracket(x0)."""
    if not isinstance(system, ESSystem):
        raise InvalidParameterError("endpoint_prediction expects an ESSystem")
    sig = compute_signature(system.dithers, order)
    coeffs = log_signature(sig)
    fields = system.fields
    x = x0
    for w, c in coeffs.coefficients.items():
        if abs(c) < 1e-12:
            continue
        x += c * system.epsilon * iterated_bracket(fields, w, x0)
    return x
