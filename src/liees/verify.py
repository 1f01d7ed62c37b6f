"""The property checks of `liees verify` and the acceptance tests, in one copy.

Each suite returns its checks in a fixed order, each with the numbers its
verdict is judged on, so callers report them without computing them again.
SUITES names the suites in the order `liees verify all` runs them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import chenfliess, costs, dither, lie

__all__ = ["Check", "brackets", "excitation", "lemma3", "assumptions", "SUITES"]


class Check(NamedTuple):
    """Label, verdict, the detail `liees verify` prints, and the judged numbers."""

    label: str
    ok: bool
    detail: str
    values: tuple[float, ...] = ()


def brackets() -> list[Check]:
    """Antisymmetry, Jacobi, and the generating-pair and quadruple-family brackets."""
    checks = []
    quad = costs.make_power_cost(1.0, 0.0, 2)
    quart = costs.make_power_cost(1.0, 1.0, 4)
    # z, 1, and the Taylor polynomials z - z^3/6 of sin and 1 - z^2/2 of cos
    shapes = [lie.ScalarField(lie.poly_shape(p), quart)
              for p in ((0.0, 1.0), (1.0,), (0.0, 1.0, 0.0, -1.0 / 6.0), (1.0, 0.0, -0.5))]
    worst_anti = 0.0
    for f in shapes:
        for g in shapes:
            for x in (0.2, 0.8, 1.7):
                ab = lie.bracket2(f, g, x)
                ba = lie.bracket2(g, f, x)
                worst_anti = max(worst_anti, abs(ab + ba) / max(abs(ab), abs(ba), 1.0))
    checks.append(Check("bracket antisymmetry <= 1e-9", worst_anti <= 1e-9,
                        f"{worst_anti:.2e}", (worst_anti,)))

    # [[a,b],c] + [[b,c],a] + [[c,a],b] = 0 at sampled points
    worst_jac = 0.0
    f, g, h = shapes[0], shapes[2], shapes[3]
    for x in (0.3, 0.9, 1.6):
        scale = total = 0.0
        for (a, b, c) in ((f, g, h), (g, h, f), (h, f, g)):
            val = lie.iterated_bracket([a, b, c], (1, 2, 3), x)
            total += val
            scale = max(scale, abs(val))
        worst_jac = max(worst_jac, abs(total) / max(scale, 1.0))
    checks.append(Check("Jacobi identity <= 1e-6", worst_jac <= 1e-6,
                        f"{worst_jac:.2e}", (worst_jac,)))

    rels = []
    for N, cost, x in ((2, quad, 1.3), (3, quad, 0.4), (4, quart, 0.2)):
        g1, g2 = lie.make_generating_pair(N, 1.0)
        fields = [lie.ScalarField(g1, cost), lie.ScalarField(g2, cost)]
        val = lie.iterated_bracket(fields, (1,) + (2,) * (N - 1), x)
        target = -costs.derivative(cost, N - 1, x)
        rels.append(abs(val - target) / max(abs(target), 1.0))
    checks.append(Check("generating pair bracket = -c J^(N-1)", all(r <= 1e-3 for r in rels),
                        " ".join(f"N={N}:{r:.1e}" for N, r in zip((2, 3, 4), rels)),
                        tuple(rels)))

    g1, g2, g3, g4 = lie.make_quadruple_family((1.0,))
    fields = [lie.ScalarField(g, quart) for g in (g1, g2, g3, g4)]
    val = lie.iterated_bracket(fields, (1, 2, 3, 4), 0.0)
    rel = abs(val - 24.0) / 24.0
    checks.append(Check("quadruple family bracket = -phi3^2 J'''", rel <= 1e-3,
                        f"{rel:.1e}", (rel,)))
    return checks


def excitation() -> list[Check]:
    """Each dither design excites its target bracket alone.  A design's values
    are (target coefficient, worst off-target), the classic pair's (I12, I21).
    """
    checks = []
    # depth > N contamination of the first-order pair scales as sqrt(eps),
    # so its check runs at the smallest period; higher kinds are exact
    cases = [
        ("first12", 1e-6, (1, 2)),
        ("second122", 1e-4, (1, 2, 2)),
        ("third1222", 1e-4, (1, 2, 2, 2)),
        ("triple123", 1e-4, (1, 2, 3)),
    ]
    for name, eps, target in cases:
        rep = chenfliess.verify_excitation(dither.make_design(name, eps), target, tol=1e-3)
        checks.append(Check(f"excitation {name} -> {target}", rep.ok,
                            f"target {rep.target_coeff:.4f} max_off {rep.max_offtarget:.1e}",
                            (rep.target_coeff, rep.max_offtarget)))
    eps = 1.0
    sig = chenfliess.compute_signature(dither.make_design("classic", eps), depth=2)
    i12, i21 = sig.entry((1, 2)), sig.entry((2, 1))
    err = max(abs(i12 + eps) / eps, abs(i21 - eps) / eps)
    checks.append(Check("classic pair I12 = -eps, I21 = +eps (rel 1e-6)", err <= 1e-6,
                        f"{err:.1e}", (i12, i21)))
    return checks


def lemma3() -> list[Check]:
    """Lemma 3: the triple bracket equals -phi2(J)^2 J'' on a grid, relative residual."""
    checks = []
    for cost, dom in ((costs.make_power_cost(1.0, 0.0, 2), (-1.0, 1.0)),
                      (costs.make_power_cost(1.0, 1.0, 4), (0.0, 2.0))):
        for phi_name, phi in (("1", (1.0,)), ("sqrt2", (math.sqrt(2.0),)), ("z", (0.0, 1.0))):
            g1, g2, g3 = lie.make_triple_family(phi)
            fields = [lie.ScalarField(g, cost) for g in (g1, g2, g3)]
            xs = [x for x in np.linspace(dom[0], dom[1], 50)
                  if abs(x - cost.xstar) > 0.1]
            resid = scale = 0.0
            for x in xs:
                val = lie.iterated_bracket(fields, (1, 2, 3), x)
                target = -g3(cost.eval(x)) ** 2 * costs.derivative(cost, 2, x)  # g3 = -phi2
                resid = max(resid, abs(val - target))
                scale = max(scale, abs(target))
            rel = resid / max(scale, 1e-12)
            checks.append(Check(f"lemma3 phi2={phi_name} m={cost.degree}", rel <= 1e-6,
                                f"{rel:.1e}", (rel,)))
    return checks


def assumptions() -> list[Check]:
    """The assumption checkers accept the power costs and reject |x|."""
    checks = []
    quart = costs.make_power_cost(1.0, 1.0, 4)
    quad = costs.make_power_cost(1.0, 0.0, 2)
    for aid in (1, 2, 3):
        rep = costs.check_assumption(quart, aid, (0.0, 2.0))
        checks.append(Check(f"power(1,1,4) assumption {aid} satisfied", rep.satisfied,
                            ",".join(rep.failures) or "ok"))
    rep = costs.check_assumption(quad, 3, (-1.0, 1.0))
    beta21 = rep.constants["beta21"]
    checks.append(Check("power(1,0,2) assumption 3 satisfied (beta21=0)",
                        rep.satisfied and beta21 == 0.0, f"beta21={beta21}", (beta21,)))
    rep = costs.check_assumption(costs.make_abs_cost(), 2, (-1.0, 1.0))
    checks.append(Check("abs cost assumption 2 rejected", not rep.satisfied,
                        ",".join(rep.failures) or "unexpectedly ok"))
    return checks


SUITES = {
    "brackets": brackets,
    "excitation": excitation,
    "lemma3": lemma3,
    "assumptions": assumptions,
}
