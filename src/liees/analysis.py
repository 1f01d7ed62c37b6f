"""Decay-rate estimation, trajectory closeness, and the per-period contraction probe.

Rate fitting works on the stroboscopic envelope |x(k eps) - x*|.  The residual
floor rho (the practical-stability band) is estimated from the tail median,
but only when the envelope has actually flattened: for a still-decaying
envelope the tail median is not a floor and subtracting it would destroy the
fit.  Both decay models are fitted in their scaling regime, after an initial
transient in which neither model is linear; the log-log (polynomial) model in
particular only straightens once the decay has left its initial plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSignalError, InvalidParameterError
from .sim import ESSystem, Trajectory, period_map

__all__ = [
    "Envelope",
    "RateEstimate",
    "ContractionReport",
    "envelope",
    "fit_rate",
    "closeness",
    "time_to_band",
    "contraction_check",
]

STALL_THRESHOLD = 0.05      # relative envelope change: "stalled" within it, "receding" above
R2_MARGIN = 0.02            # r^2 tie margin for the model dichotomy
HEAD_TRIM = 0.6             # fit starts once the excess has decayed to this fraction


@dataclass
class Envelope:
    """Stroboscopic distances to the minimizer."""

    sample_times: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.sample_times) <= 0):
            raise InvalidParameterError("envelope times must be strictly increasing")
        if np.any(self.distances < 0):
            raise InvalidParameterError("envelope distances must be nonnegative")


@dataclass
class RateEstimate:
    """Fitted decay class with goodness of fit.

    lam is meaningful iff rate_class == 'exponential' (or ambiguous),
    power_exponent iff 'polynomial' (or ambiguous).
    """

    rate_class: str
    lam: float | None
    power_exponent: float | None
    r_squared: float
    rho: float
    ambiguous: bool = False
    r2_exponential: float | None = None
    r2_polynomial: float | None = None


def envelope(traj: Trajectory, xstar: float) -> Envelope:
    """Distances |x(k eps) - x*| at stored stroboscopic samples."""
    if traj.epsilon <= 0:
        raise InvalidParameterError("trajectory carries no period for stroboscopic sampling")
    span = float(traj.times[-1] - traj.times[0])
    if span < 20 * traj.epsilon * (1 - 1e-9):
        raise InvalidParameterError(
            f"trajectory spans {span / traj.epsilon:.1f} periods, need >= 20"
        )
    ts, xs = traj.strobe()
    return Envelope(sample_times=ts, distances=np.abs(xs - xstar))


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    sol, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ sol
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(sol[0]), float(sol[1]), r2


def _median(a: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, by the same partition and the
    same arithmetic, without the import of numpy.ma (about 15 ms) that
    np.median makes on first use: the middle element, or (a + b) / 2.0 of the
    two middle ones, or NaN when an entry is NaN (partition puts NaN last)."""
    n = len(a)
    kth = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(a, kth + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    if n % 2:
        return float(part[n // 2])
    return (float(part[n // 2 - 1]) + float(part[n // 2])) / 2.0


def fit_rate(env: Envelope) -> RateEstimate:
    """Classify the envelope decay as exponential, polynomial, stalled (the
    median distance changes by less than STALL_THRESHOLD of its start) or
    receding (it grows by at least that much)."""
    d = np.asarray(env.distances, dtype=float)
    t = np.asarray(env.sample_times, dtype=float)
    n = len(d)
    if n < 20:
        raise InsufficientSignalError(f"envelope has {n} samples, need >= 20")

    head = _median(d[: max(1, n // 10)])
    tail = _median(d[int(0.9 * n):])
    total_dec = 1.0 - tail / head if head > 0 else 0.0
    if total_dec < STALL_THRESHOLD:
        return RateEstimate(rate_class="receding" if total_dec <= -STALL_THRESHOLD else "stalled",
                            lam=None, power_exponent=None, r_squared=0.0, rho=tail)

    # the tail median is a floor estimate only once the envelope has flattened
    late = _median(d[int(0.95 * n):])
    mid = _median(d[int(0.8 * n): int(0.9 * n)])
    tail_dec = 1.0 - late / mid if mid > 0 else 0.0
    plateau = tail_dec < max(0.02, 0.05 * total_dec)
    rho = tail if plateau else 0.0

    excess = d - rho
    mask = (excess > rho) & (t > 0) if rho > 0 else (excess > 0) & (t > 0)
    if mask.sum() < 20:
        raise InsufficientSignalError("fewer than 20 samples above the residual floor")
    idx = np.where(mask)[0]
    first = float(excess[idx[0]])
    decayed = idx[excess[idx] <= HEAD_TRIM * first]
    window = mask
    if len(decayed) and mask[decayed[0]:].sum() >= 20:
        window = mask & (np.arange(n) >= decayed[0])

    le = np.log(excess[window])
    tw = t[window]
    slope_e, _, r2_e = _linear_fit(tw, le)
    slope_p, _, r2_p = _linear_fit(np.log(tw), le)

    ambiguous = abs(r2_e - r2_p) < R2_MARGIN
    if r2_e >= r2_p:
        return RateEstimate(rate_class="exponential", lam=max(-slope_e, 0.0),
                            power_exponent=slope_p if ambiguous else None,
                            r_squared=r2_e, rho=rho, ambiguous=ambiguous,
                            r2_exponential=r2_e, r2_polynomial=r2_p)
    return RateEstimate(rate_class="polynomial", lam=max(-slope_e, 0.0) if ambiguous else None,
                        power_exponent=slope_p,
                        r_squared=r2_p, rho=rho, ambiguous=ambiguous,
                        r2_exponential=r2_e, r2_polynomial=r2_p)


def closeness(full: Trajectory, averaged: Trajectory) -> float:
    """Max distance between the two trajectories at stroboscopic times."""
    period = full.epsilon if full.epsilon > 0 else averaged.epsilon
    if period <= 0:
        raise InvalidParameterError("neither trajectory carries a sampling period")
    span_a = float(full.times[-1])
    span_b = float(averaged.times[-1])
    if abs(span_a - span_b) > period * (1 + 1e-9):
        raise InvalidParameterError(f"trajectory spans differ: {span_a} vs {span_b}")
    n = int(math.floor(round(min(span_a, span_b) / period, 9)))
    tk = np.arange(n + 1) * period
    gap = np.abs(_states_at(full, tk) - _states_at(averaged, tk))
    return float(np.fmax.reduce(gap, initial=0.0))    # fmax skips NaN gaps


def _states_at(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    """States at the stored steps nearest to the given times."""
    k = np.rint(times / traj.dt) if traj.dt > 0 else np.zeros(len(times))
    return traj.states[np.minimum(k, len(traj.states) - 1).astype(np.intp)]


def time_to_band(traj: Trajectory, xstar: float, band: float = 0.05) -> float:
    """First stroboscopic time after which |x - x*| stays within the band."""
    ts, xs = traj.strobe()
    outside = np.flatnonzero(~(np.abs(xs - xstar) <= band))
    k = outside[-1] + 1 if len(outside) else 0
    return float(ts[k]) if k < len(ts) else math.inf


@dataclass
class ContractionReport:
    """Per-start one-period contraction constants fitted over a grid."""

    gamma: float
    sigma: float
    epsilon: float
    degree: int
    points: list[dict] = field(default_factory=list)

    @property
    def contracts(self) -> bool:
        return self.gamma > 0


def contraction_check(system: ESSystem, x0_grid, xstar: float,
                      steps_per_period: int = 4096) -> ContractionReport:
    """Integrate one period from each start and fit the squared-distance map.

    The squared distances are fitted as lhs ~ a d0^2 + b; the contraction rate
    is gamma = (1 - a) / (2 eps) and sigma is lifted until the inequality
    lhs <= d0^2 (1 - 2 eps gamma) + eps^(1 + 1/m) sigma holds at every grid
    point.
    """
    if len(x0_grid) == 0:
        raise InvalidParameterError("contraction_check needs at least one start in x0_grid")
    eps = system.epsilon
    m = system.cost.degree if system.cost.degree is not None else 2
    ends = period_map(system, x0_grid, 1, steps_per_period).tolist()
    d0sq = np.array([(x0 - xstar) ** 2 for x0 in x0_grid])
    lhs = np.array([(x1 - xstar) ** 2 for x1 in ends])

    if len(d0sq) >= 2 and np.ptp(d0sq) > 0:
        a, b, _ = _linear_fit(d0sq, lhs)
    else:
        a = float(lhs[0] / d0sq[0]) if d0sq[0] > 0 else 1.0
        b = 0.0
    gamma = (1.0 - a) / (2.0 * eps)
    scale = eps ** (1.0 + 1.0 / m)
    sigma = max(0.0, float(np.max(lhs - a * d0sq)) / scale)

    points = []
    for x0, dd, ll in zip(x0_grid, d0sq, lhs):
        rhs = dd * (1.0 - 2.0 * eps * gamma) + scale * sigma
        points.append({"x0": float(x0), "lhs": float(ll), "rhs": float(rhs),
                       "holds": bool(ll <= rhs * (1 + 1e-12) + 1e-300)})
    return ContractionReport(gamma=gamma, sigma=sigma, epsilon=eps, degree=m, points=points)
