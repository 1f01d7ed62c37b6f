"""Bracket-exciting periodic input signals and the non-resonance checker.

Every dither is an eps-periodic trigonometric polynomial
u(t) = eps^(1/N - 1) v(t/eps), where N is the length of the Lie bracket its
family excites.  DESIGNS writes each built-in family down once, as a row: N,
a kappa-dependent scale, and per channel j a coefficient and the (harmonic h,
cos|sin, amplitude a) terms of

    v_j(tau) = coef_j * scale(kappa) * sum a * trig(2 pi h kappa tau).

Each row excites one bracket, with target coefficient exactly 1 at every
kappa (`liees verify excitation` checks each design):

  first12, classic (N=2): cos and sin at harmonic 1          -> [g1,g2]
  second122 (N=3): cos at harmonic 2, cos at 1               -> [[g1,g2],g2]
  third1222 (N=4): sin at harmonic 3, cos at 1               -> [[[g1,g2],g2],g2]
  triple123 (N=3, three channels): cos at (2,3,5) and at (4,11,15); the
      sum-resonances 2+3=5 and 4+11=15 combine so that [[g1,g3],g2]
      cancels                                                -> [[g1,g2],g3]

A custom-harmonic spec is a one-row table of its own fields: one cos or sin
harmonic (cos at harmonic 0 is a constant) with caller-chosen amplitude and
bracket length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Design",
    "DESIGNS",
    "DitherSpec",
    "ResonanceReport",
    "eval_dither",
    "sample_dither",
    "make_design",
    "check_resonances",
    "TRIPLE123_FREQS",
    "TRIPLE123_AMPS",
]


class Design(NamedTuple):
    """A DESIGNS row: per channel (coef, ((harmonic, "cos" | "sin", amplitude), ...))."""

    length: int
    scale: Callable[[int], float]
    channels: tuple[tuple[float, tuple[tuple[int, str, float], ...]], ...]


# Two-resonance triple design (see the module docstring).  Amplitudes solve
#   sum over designs of m_D / (16 pi^2 p_D q_D) = 0   (kills [[g1,g3],g2])
#   resulting [[g1,g2],g3] coefficient = 1,
# where m_D is the product of the design's three amplitude factors and the
# per-design coefficient law is K = -m_D / (16 pi^2 p_D r_D kappa^2): the
# factor kappa^(2/3) of each channel cancels the kappa^2, and is exactly 1.0
# at kappa = 1.
TRIPLE123_FREQS = ((2, 3, 5), (4, 11, 15))


def _triple123_amps() -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    (p1, q1, r1), (p2, q2, r2) = TRIPLE123_FREQS
    m1 = -16 * math.pi**2 * p1 / (1.0 / r1 - q2 / (q1 * r2))
    m2 = -m1 * (p2 * q2) / (p1 * q1)
    a = abs(m1) ** (1 / 3)
    b = abs(m2) ** (1 / 3)
    return (math.copysign(a, m1), a, a), (b, b, math.copysign(b, m2))


TRIPLE123_AMPS = _triple123_amps()

_FIRST12 = Design(2, lambda kap: 2.0 * math.sqrt(kap * math.pi),
                  ((1.0, ((1, "cos", 1.0),)), (1.0, ((1, "sin", 1.0),))))

DESIGNS = {
    "first12": _FIRST12,
    "classic": _FIRST12,
    "second122": Design(3, lambda kap: (4.0 * kap * math.pi) ** (2.0 / 3.0),
                        ((-2.0, ((2, "cos", 1.0),)), (1.0, ((1, "cos", 1.0),)))),
    "third1222": Design(4, lambda kap: (2.0 * kap * math.pi) ** 0.75,
                        ((6.0, ((3, "sin", 1.0),)), (2.0, ((1, "cos", 1.0),)))),
    "triple123": Design(3, lambda kap: kap ** (2.0 / 3.0),
                        tuple((1.0, tuple((f[j], "cos", a[j])
                                          for f, a in zip(TRIPLE123_FREQS, TRIPLE123_AMPS)))
                              for j in range(3))),
}

_TRIG = {"cos": np.cos, "sin": np.sin}


def _whole(v) -> bool:
    """v is a whole number; nan and +-inf are not."""
    try:
        return int(v) == v
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class DitherSpec:
    """One eps-periodic input channel: channel `channel` of a DESIGNS row.

    kappa multiplies every frequency in the waveform; epsilon is the period.
    For custom-harmonic the waveform is
    amplitude * {cos|sin}(2 pi harmonic kappa t / eps), scaled by
    eps^(1/bracket_length - 1).  A built-in kind rejects these four fields,
    the ones after kappa, unless each has its default.
    """

    kind: str
    channel: int
    epsilon: float
    kappa: int = 1
    amplitude: float = 1.0
    harmonic: int = 1
    waveform: str = "cos"
    bracket_length: int | None = None

    def __post_init__(self):
        if self.kind not in DESIGNS and self.kind != "custom-harmonic":
            raise InvalidParameterError(f"unknown dither kind {self.kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidParameterError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not math.isfinite(self.amplitude):
            raise InvalidParameterError(f"amplitude must be finite, got {self.amplitude}")
        if not _whole(self.kappa) or self.kappa < 1:
            raise InvalidParameterError(f"kappa must be a positive integer, got {self.kappa}")
        n_ch = len(self.design.channels)
        if not 1 <= self.channel <= n_ch:
            raise InvalidParameterError(
                f"channel must be in 1..{n_ch} for kind {self.kind!r}, got {self.channel}"
            )
        if self.kind == "custom-harmonic":
            if self.waveform not in _TRIG:
                raise InvalidParameterError(f"unknown waveform {self.waveform!r}")
            if self.bracket_length is None or not 2 <= self.bracket_length <= 4:
                raise InvalidParameterError("custom-harmonic needs bracket_length in 2..4")
            lowest = 1 if self.waveform == "sin" else 0
            if not _whole(self.harmonic) or self.harmonic < lowest:
                raise InvalidParameterError(
                    f"{self.waveform} harmonic must be an integer >= {lowest}, got {self.harmonic}")
        elif custom := [f.name for f in fields(self)[4:] if getattr(self, f.name) != f.default]:
            raise InvalidParameterError(
                f"kind {self.kind!r} takes no {', '.join(custom)}: only custom-harmonic does"
            )

    @property
    def design(self) -> Design:
        """The DESIGNS row of a built-in kind; custom-harmonic's one-row table."""
        if self.kind == "custom-harmonic":
            return Design(self.bracket_length, lambda kap: 1.0,
                          ((self.amplitude, ((self.harmonic, self.waveform, 1.0),)),))
        return DESIGNS[self.kind]

    @property
    def length(self) -> int:
        """Length N of the bracket this dither family excites."""
        return self.design.length

    @property
    def series(self) -> tuple[float, tuple[tuple[int, str, float], ...]]:
        """(factor, terms): u(t) = factor * sum a * trig(2 pi h kappa t / eps)
        over the (harmonic h, "cos" | "sin", amplitude a) terms, with
        factor = eps^(1/N - 1) * coef * scale(kappa) of the channel's row."""
        design = self.design
        coef, terms = design.channels[self.channel - 1]
        return self.epsilon ** (1.0 / design.length - 1.0) * coef * design.scale(self.kappa), terms

    @property
    def fastest_harmonic(self) -> int:
        """Number of full oscillations of the fastest component per period."""
        _, terms = self.design.channels[self.channel - 1]
        return self.kappa * max(h for h, _, _ in terms)


def eval_dither(spec: DitherSpec, t: float | np.ndarray) -> float | np.ndarray:
    """Full signal value u(t) = eps^(1/N-1) v(t/eps) at time t.

    t is a float or a numpy array of times.  An array gives the array of
    values in one call, each bit for bit equal to the value for that time
    alone; a float gives a float.
    """
    u = _signal(spec, np.asarray(t, dtype=float) / spec.epsilon)
    return u if u.ndim else float(u)


def _signal(spec: DitherSpec, tau: np.ndarray) -> np.ndarray:
    factor, terms = spec.series
    val = None
    for h, trig, a in terms:
        term = a * _TRIG[trig](2.0 * math.pi * h * spec.kappa * tau)
        val = term if val is None else val + term
    return factor * val


def sample_dither(spec: DitherSpec, n: int, t0: float = 0.0, t1: float | None = None):
    """n+1 uniform samples of the dither over [t0, t1] (default one period)."""
    if t1 is None:
        t1 = t0 + spec.epsilon
    return eval_dither(spec, np.linspace(t0, t1, n + 1))


def make_design(kind: str, epsilon: float, kappa: int = 1) -> tuple[DitherSpec, ...]:
    """Every channel of a built-in kind, in channel order."""
    if kind not in DESIGNS:
        raise InvalidParameterError(f"{kind!r} is not a built-in dither kind")
    return tuple(DitherSpec(kind, ch, epsilon, kappa)
                 for ch in range(1, len(DESIGNS[kind].channels) + 1))


_RESONANCE_ORDER = 4


@dataclass
class ResonanceReport:
    """Integer resonances n1*a + n2*b = 0 of order |n1|+|n2| <= 4 across two frequency sets."""

    pairs: list[tuple[float, float]]
    violations: list[tuple[tuple[float, float], tuple[int, int]]]
    ok: bool


def check_resonances(freqs_a: Sequence[int], freqs_b: Sequence[int]) -> ResonanceReport:
    """Search all cross pairs for small integer resonances."""
    if not freqs_a or not freqs_b:
        raise InvalidParameterError("frequency lists must be nonempty")
    for f in list(freqs_a) + list(freqs_b):
        if f <= 0:
            raise InvalidParameterError(f"frequencies must be positive, got {f}")
    pairs = [(a, b) for a in freqs_a for b in freqs_b]
    violations = []
    for a, b in pairs:
        for n1 in range(-_RESONANCE_ORDER, _RESONANCE_ORDER + 1):
            for n2 in range(-_RESONANCE_ORDER, _RESONANCE_ORDER + 1):
                if (0 < abs(n1) + abs(n2) <= _RESONANCE_ORDER) and n1 * a + n2 * b == 0:
                    violations.append(((a, b), (n1, n2)))
    return ResonanceReport(pairs=pairs, violations=violations, ok=not violations)
