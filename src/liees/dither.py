"""Bracket-exciting periodic input signals and the non-resonance checker.

Every dither is an eps-periodic, zero-mean signal of the form
u(t) = eps^(1/N - 1) * v(t/eps), where N is the length of the Lie bracket the
signal family excites.  The built-in kinds and their per-period log-signature
coefficients (measured by the chenfliess module, target coefficient exactly 1
for every kappa; `liees verify excitation` checks each design):

  first12    (N=2): v1 = 2 sqrt(kappa pi) cos(2 kappa pi tau),
                    v2 = 2 sqrt(kappa pi) sin(2 kappa pi tau)         -> [g1,g2]
  classic    (N=2): same pair, the traditional two-input gradient exciter
  second122  (N=3): v1 = -2 (4 kappa pi)^(2/3) cos(4 kappa pi tau),
                    v2 =    (4 kappa pi)^(2/3) cos(2 kappa pi tau)    -> [[g1,g2],g2]
  third1222  (N=4): v1 = 6 (2 kappa pi)^(3/4) sin(6 kappa pi tau),
                    v2 = 2 (2 kappa pi)^(3/4) cos(2 kappa pi tau)     -> [[[g1,g2],g2],g2]
  triple123  (N=3, three channels): v_j = kappa^(2/3) (A_j cos(2 pi f_j kappa tau)
                    + B_j cos(2 pi f'_j kappa tau)), (f_j) = (2,3,5) and (f'_j) =
                    (4,11,15); A and B combine the sum-resonances 2+3=5 and
                    4+11=15 so that [[g1,g3],g2] cancels       -> [[g1,g2],g3]
  custom-harmonic:  a single cos/sin/|cos| harmonic with caller-chosen
                    amplitude and bracket length.

The second122 channel-2 waveform is a plain cosine: a rectified |cos| variant
(available through custom-harmonic) excites [[g1,g2],g1] more than four times
stronger than the intended bracket and is not a usable exciter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "DitherSpec",
    "ResonanceReport",
    "eval_dither",
    "sample_dither",
    "make_pair",
    "make_triple",
    "check_resonances",
    "KIND_BRACKET_LENGTH",
    "TRIPLE123_FREQS",
    "TRIPLE123_AMPS",
]

KIND_BRACKET_LENGTH = {
    "first12": 2,
    "classic": 2,
    "second122": 3,
    "third1222": 4,
    "triple123": 3,
}

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
    sa = math.copysign(1.0, m1)
    sb = math.copysign(1.0, m2)
    return (sa * a, a, a), (b, b, sb * b)


TRIPLE123_AMPS = _triple123_amps()


@dataclass(frozen=True)
class DitherSpec:
    """One eps-periodic input channel.

    kappa multiplies every frequency in the waveform; epsilon is the period.
    For custom-harmonic the waveform is
    amplitude * {cos|sin|abscos}(2 pi harmonic kappa t / eps), scaled by
    eps^(1/bracket_length - 1); demean subtracts the period mean (only abscos
    has one).  A built-in kind rejects these five fields, the ones after
    kappa, unless each has its default.
    """

    kind: str
    channel: int
    epsilon: float
    kappa: int = 1
    amplitude: float = 1.0
    harmonic: int = 1
    waveform: str = "cos"
    bracket_length: int | None = None
    demean: bool = True

    def __post_init__(self):
        if self.kind not in KIND_BRACKET_LENGTH and self.kind != "custom-harmonic":
            raise InvalidParameterError(f"unknown dither kind {self.kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidParameterError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not math.isfinite(self.amplitude):
            raise InvalidParameterError(f"amplitude must be finite, got {self.amplitude}")
        if int(self.kappa) != self.kappa or self.kappa < 1:
            raise InvalidParameterError(f"kappa must be a positive integer, got {self.kappa}")
        n_ch = 3 if self.kind == "triple123" else (1 if self.kind == "custom-harmonic" else 2)
        if not 1 <= self.channel <= n_ch:
            raise InvalidParameterError(
                f"channel must be in 1..{n_ch} for kind {self.kind!r}, got {self.channel}"
            )
        if self.kind == "custom-harmonic":
            if self.waveform not in ("cos", "sin", "abscos"):
                raise InvalidParameterError(f"unknown waveform {self.waveform!r}")
            if self.bracket_length is None or not 2 <= self.bracket_length <= 4:
                raise InvalidParameterError("custom-harmonic needs bracket_length in 2..4")
            if self.harmonic < 1 or int(self.harmonic) != self.harmonic:
                raise InvalidParameterError(f"harmonic must be a positive integer, got {self.harmonic}")
        elif custom := [f.name for f in fields(self)[4:] if getattr(self, f.name) != f.default]:
            raise InvalidParameterError(
                f"kind {self.kind!r} takes no {', '.join(custom)}: only custom-harmonic does"
            )

    @property
    def length(self) -> int:
        """Length N of the bracket this dither family excites."""
        if self.kind == "custom-harmonic":
            return self.bracket_length
        return KIND_BRACKET_LENGTH[self.kind]

    @property
    def fastest_harmonic(self) -> int:
        """Number of full oscillations of the fastest component per period."""
        if self.kind in ("first12", "classic"):
            return self.kappa
        if self.kind == "second122":
            return 2 * self.kappa
        if self.kind == "third1222":
            return 3 * self.kappa
        if self.kind == "triple123":
            return max(f[self.channel - 1] for f in TRIPLE123_FREQS) * self.kappa
        return self.harmonic * self.kappa


def eval_dither(spec: DitherSpec, t: float | np.ndarray) -> float | np.ndarray:
    """Full signal value u(t) = eps^(1/N-1) v(t/eps) at time t.

    t is a float or a numpy array of times.  An array gives the array of
    values in one call, each bit for bit equal to the value for that time
    alone; a float gives a float.
    """
    u = _signal(spec, np.asarray(t, dtype=float) / spec.epsilon)
    return u if u.ndim else float(u)


def _signal(spec: DitherSpec, tau: np.ndarray) -> np.ndarray:
    eps = spec.epsilon
    kap = spec.kappa
    pre = eps ** (1.0 / spec.length - 1.0)
    if spec.kind in ("first12", "classic"):
        amp = 2.0 * math.sqrt(kap * math.pi)
        ang = 2.0 * kap * math.pi * tau
        return pre * amp * (np.cos(ang) if spec.channel == 1 else np.sin(ang))
    if spec.kind == "second122":
        amp = (4.0 * kap * math.pi) ** (2.0 / 3.0)
        if spec.channel == 1:
            return pre * -2.0 * amp * np.cos(4.0 * kap * math.pi * tau)
        return pre * amp * np.cos(2.0 * kap * math.pi * tau)
    if spec.kind == "third1222":
        amp = (2.0 * kap * math.pi) ** 0.75
        if spec.channel == 1:
            return pre * 6.0 * amp * np.sin(6.0 * kap * math.pi * tau)
        return pre * 2.0 * amp * np.cos(2.0 * kap * math.pi * tau)
    if spec.kind == "triple123":
        j = spec.channel - 1
        val = 0.0
        for freqs, amps in zip(TRIPLE123_FREQS, TRIPLE123_AMPS):
            val += amps[j] * np.cos(2.0 * math.pi * freqs[j] * kap * tau)
        return pre * kap ** (2.0 / 3.0) * val
    # custom-harmonic
    ang = 2.0 * math.pi * spec.harmonic * kap * tau
    if spec.waveform == "cos":
        val = np.cos(ang)
    elif spec.waveform == "sin":
        val = np.sin(ang)
    else:
        val = np.abs(np.cos(ang)) - (2.0 / math.pi if spec.demean else 0.0)
    return pre * spec.amplitude * val


def sample_dither(spec: DitherSpec, n: int, t0: float = 0.0, t1: float | None = None):
    """n+1 uniform samples of the dither over [t0, t1] (default one period)."""
    if t1 is None:
        t1 = t0 + spec.epsilon
    return eval_dither(spec, np.linspace(t0, t1, n + 1))


def make_pair(kind: str, epsilon: float, kappa: int = 1) -> tuple[DitherSpec, DitherSpec]:
    """The two channels of a built-in pair kind."""
    if kind not in ("first12", "classic", "second122", "third1222"):
        raise InvalidParameterError(f"{kind!r} is not a two-channel kind")
    return (DitherSpec(kind, 1, epsilon, kappa), DitherSpec(kind, 2, epsilon, kappa))


def make_triple(epsilon: float, kappa: int = 1) -> tuple[DitherSpec, DitherSpec, DitherSpec]:
    """The three channels of the [[g1,g2],g3]-exciting design."""
    return tuple(DitherSpec("triple123", ch, epsilon, kappa) for ch in (1, 2, 3))


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
                if n1 == 0 and n2 == 0:
                    continue
                if abs(n1) + abs(n2) > _RESONANCE_ORDER:
                    continue
                if n1 * a + n2 * b == 0:
                    violations.append(((a, b), (n1, n2)))
    return ResonanceReport(pairs=pairs, violations=violations, ok=not violations)
