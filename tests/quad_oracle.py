"""The trapezoid chain that computed signatures before the closed form of
liees.chenfliess.compute_signature, kept as its oracle: the iterated
integrals of sampled dither channels, level by level, on a uniform grid.

The running integral of a word (a,) + v is the running trapezoid integral of
channel a's samples times the running integral of v, so level k is built
from the running integrals of level k - 1 alone.  Its error per entry is
about (2 pi h / steps)^2 / 12 of the path's scale for the fastest harmonic h.
"""

import numpy as np

from liees.dither import eval_dither


def cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral of the samples y with step dt, from 0.0."""
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * (0.5 * dt), out=out[1:])
    return out


def signature_levels(us: list, depth: int, dt: float) -> list:
    """Levels 1..depth of the signature of the channels sampled in us (each
    level in product order, the first letter outermost)."""
    # running: the running integrals of the previous level's words in product
    # order.  With the first letter as the outer loop, level k comes out in
    # product order too; the deepest level keeps no running integral.
    levels, running = [], [np.ones(len(us[0]))]
    for k in range(1, depth + 1):
        if k < depth:
            running = [cumtrapz(u * r, dt) for u in us for r in running]
            levels.append(np.array([r[-1] for r in running]))
        else:
            levels.append(np.fromiter((cumtrapz(u * r, dt)[-1] for u in us for r in running),
                                      float, len(us) * len(running)))
    return levels


def quad_signature(dithers, depth: int, steps: int) -> list:
    """The level list [None, level 1, ..., level depth] of the dithers over one
    period, by the trapezoid chain on steps intervals."""
    eps = dithers[0].epsilon
    us = [eval_dither(d, np.linspace(0.0, eps, steps + 1)) for d in dithers]
    with np.errstate(over="ignore", invalid="ignore"):
        return [None, *signature_levels(us, depth, eps / steps)]
