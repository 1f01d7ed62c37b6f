"""Exact polynomial brackets and the derivative-generating field families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_oracle import fd_bracket, fd_derivative
from liees import chenfliess, costs, lie, sim
from liees.costs import make_power_cost
from liees.errors import InvalidParameterError, NumericFailureError
from liees.lie import ScalarField, bracket2, iterated_bracket, poly_shape

QUARTIC = make_power_cost(1.0, 1.0, 4)
HALF_SQUARE = make_power_cost(0.5, 0.0, 2)   # J = x^2/2, J' = x, J'' = 1
Z, ONE = poly_shape((0.0, 1.0)), poly_shape((1.0,))
SIN = poly_shape((0.0, 1.0, 0.0, -1.0 / 6.0))   # Taylor polynomials of sin and cos
COS = poly_shape((1.0, 0.0, -0.5))


class TestBracket2:
    def test_linear_against_constant_is_minus_gradient(self):
        # [J, 1] = -J'; quartic J'(0) = -4
        f = ScalarField(Z, QUARTIC)
        g = ScalarField(ONE, QUARTIC)
        assert bracket2(f, g, 0.0) == 4.0

    def test_wronskian_pair_gives_minus_gradient(self):
        # 1 (-z)' - 0 (-z) = -1, so the bracket is -J'; J' = x for x^2/2
        f, g = (ScalarField(s, HALF_SQUARE) for s in lie.make_wronskian_pair((1.0,)))
        assert bracket2(f, g, 3.0) == pytest.approx(-3.0, rel=1e-15)

    def test_self_bracket_vanishes(self):
        f = ScalarField(SIN, QUARTIC)
        assert abs(bracket2(f, f, 0.7)) <= 1e-15

    def test_different_costs_rejected(self):
        f = ScalarField(Z, QUARTIC)
        g = ScalarField(ONE, HALF_SQUARE)
        with pytest.raises(InvalidParameterError):
            bracket2(f, g, 0.0)

    def test_antisymmetry(self):
        shapes = [Z, ONE, SIN, COS, poly_shape((0.0, 0.0, 1.0))]
        for sf in shapes:
            for sg in shapes:
                f, g = ScalarField(sf, QUARTIC), ScalarField(sg, QUARTIC)
                for x in (0.2, 0.9, 1.7):
                    ab, ba = bracket2(f, g, x), bracket2(g, f, x)
                    assert abs(ab + ba) <= 1e-12 * max(abs(ab), abs(ba), 1.0)

    def test_jacobi_identity(self):
        f = ScalarField(Z, QUARTIC)
        g = ScalarField(SIN, QUARTIC)
        h = ScalarField(COS, QUARTIC)
        for x in (0.3, 0.9, 1.6):
            vals = [iterated_bracket([a, b, c], (1, 2, 3), x)
                    for a, b, c in ((f, g, h), (g, h, f), (h, f, g))]
            scale = max(map(abs, vals)) or 1.0
            assert abs(sum(vals)) <= 1e-12 * scale


class TestIteratedBracket:
    def test_triple_bracket_gives_third_derivative(self):
        # [[[J,1],1],1] = -J'''; quartic at 0: -(-24) = 24
        fields = [ScalarField(Z, QUARTIC), ScalarField(ONE, QUARTIC)]
        assert iterated_bracket(fields, (1, 2, 2, 2), 0.0) == 24.0

    def test_vanishes_on_quadratic(self):
        quad = make_power_cost(1.0, 0.0, 2)
        fields = [ScalarField(Z, quad), ScalarField(ONE, quad)]
        for x in (-0.5, 0.3, 1.1):
            assert iterated_bracket(fields, (1, 2, 2, 2), x) == 0.0

    @pytest.mark.parametrize("N", [5, 6])
    def test_generating_pair_past_length_four(self, N):
        # -c J^(N-1) = -c alpha m!/(m-N+1)! y^(m-N+1) on J = (x-1)^6
        c, alpha, m = 0.75, 1.0, 6
        cost = make_power_cost(alpha, 1.0, m)
        fields = [ScalarField(g, cost) for g in lie.make_generating_pair(N, c)]
        for x in (-0.4, 0.3, 1.6, 2.5):
            y = x - 1.0
            target = -c * alpha * math.factorial(m) / math.factorial(m - N + 1) * y ** (m - N + 1)
            got = iterated_bracket(fields, (1,) + (2,) * (N - 1), x)
            assert got == pytest.approx(target, rel=1e-12)

    def test_length_one_is_field_value(self):
        fields = [ScalarField(SIN, QUARTIC)]
        assert iterated_bracket(fields, (1,), 0.5) == pytest.approx(
            SIN(QUARTIC.eval(0.5)), rel=1e-15)

    def test_index_validation(self):
        fields = [ScalarField(Z, QUARTIC), ScalarField(ONE, QUARTIC)]
        with pytest.raises(InvalidParameterError):
            iterated_bracket(fields, (), 0.0)
        with pytest.raises(InvalidParameterError):
            iterated_bracket(fields, (1, 3), 0.0)

    def test_shape_without_coefficients_rejected(self):
        fields = [ScalarField(Z, QUARTIC), ScalarField(lambda z: 1.0, QUARTIC)]
        with pytest.raises(InvalidParameterError) as err:
            iterated_bracket(fields, (1, 2), 0.5)
        assert "\n" not in str(err.value) and "(.poly)" in str(err.value)

    def test_cost_without_power_tag_rejected(self):
        cost = costs.CostFunction(eval=lambda x: (x - 1.0) ** 4)
        with pytest.raises(InvalidParameterError):
            iterated_bracket([ScalarField(Z, cost), ScalarField(ONE, cost)], (1, 2), 0.5)

    def test_callable_phi2_system_has_no_endpoint_prediction(self):
        system = sim.build_three_input(QUARTIC, lambda z: 0.5 + 0.3 * z, 1e-3)
        with pytest.raises(InvalidParameterError) as err:
            chenfliess.endpoint_prediction(system, 0.7, order=3)
        assert "\n" not in str(err.value) and "(.poly)" in str(err.value)


COEFFS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)


class TestBracketProperties:
    """Random polynomial shapes of degree <= 3 on power costs: the exact
    brackets obey antisymmetry and Jacobi to roundoff and agree with the
    Richardson oracle within the 1e-3 of `liees verify brackets`."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(m=st.sampled_from((2, 3, 4)), ps=st.lists(COEFFS, min_size=3, max_size=3),
           y=st.floats(-1.0, 1.0), idx=st.lists(st.integers(1, 3), min_size=2, max_size=4))
    def test_identities_and_oracle(self, m, ps, y, idx):
        cost = make_power_cost(1.0, 0.5, m)
        fields = [ScalarField(poly_shape(p), cost) for p in ps]
        x = 0.5 + y
        a, b, c = fields
        ab, ba = bracket2(a, b, x), bracket2(b, a, x)
        assert abs(ab + ba) <= 1e-12 * max(abs(ab), 1.0)
        vals = [iterated_bracket([p, q, r], (1, 2, 3), x)
                for p, q, r in ((a, b, c), (b, c, a), (c, a, b))]
        assert abs(sum(vals)) <= 1e-12 * max(*map(abs, vals), 1.0)
        exact = iterated_bracket(fields, tuple(idx), x)
        assert abs(exact - fd_bracket(fields, tuple(idx), x)) <= 1e-3 * max(abs(exact), 1.0)


class TestRichardsonOracle:
    """The test-side finite differences that the bracket oracle rests on."""

    def test_matches_analytic_on_quartic(self):
        for order in range(1, 5):
            for k in range(9):
                x = -1.0 + 4.0 * k / 8
                an = QUARTIC.analytic_derivs[order - 1](x)
                fd = fd_derivative(QUARTIC.eval, x, order)
                assert fd == pytest.approx(an, rel=1e-6, abs=1e-6 * max(abs(an), 1.0))

    def test_second_derivative_of_sin(self):
        # independent oracle: -sin(0) = 0
        assert abs(fd_derivative(math.sin, 0.0, 2)) <= 1e-6

    def test_richardson_convergence(self):
        # halving h cuts the error by at least 3x in the truncation regime
        exact = -math.sin(0.7)
        err = [abs(fd_derivative(math.sin, 0.7, 2, h=h) - exact) for h in (0.4, 0.2)]
        assert err[0] / err[1] >= 3.0


class TestGeneratingPair:
    def test_gradient_case(self):
        g1, g2 = lie.make_generating_pair(2, 1.0)
        fields = [ScalarField(g1, HALF_SQUARE), ScalarField(g2, HALF_SQUARE)]
        # -c J' at x=2 with J' = x
        assert iterated_bracket(fields, (1, 2), 2.0) == pytest.approx(-2.0, rel=1e-15)

    def test_fourth_order_case(self):
        g1, g2 = lie.make_generating_pair(4, 1.0)
        fields = [ScalarField(g1, QUARTIC), ScalarField(g2, QUARTIC)]
        assert iterated_bracket(fields, (1, 2, 2, 2), 0.0) == 24.0

    def test_third_order_with_gain(self):
        g1, g2 = lie.make_generating_pair(3, 2.0)
        fields = [ScalarField(g1, HALF_SQUARE), ScalarField(g2, HALF_SQUARE)]
        # -c J'' = -2 everywhere
        for x in (-1.0, 0.4, 2.0):
            assert iterated_bracket(fields, (1, 2, 2), x) == pytest.approx(-2.0, rel=1e-15)

    def test_signs_follow_oracle(self):
        # the closed-form sign s = (-1)^N, which the bracket tests above confirm:
        # g1 = (s c) z and g2 = 1 with their .poly tags, bitwise, at any gain
        for N, s in ((2, 1.0), (3, -1.0), (4, 1.0), (5, -1.0), (6, 1.0)):
            for c in (1.0, 0.37, 1e-13, 5e8):
                g1, g2 = lie.make_generating_pair(N, c)
                assert g1.poly == (0.0, s * c) and g2.poly == (1.0,)
                for z in (-3.5, 0.0, 0.3, 2.7, 1e6):
                    assert g1(z).hex() == ((s * c) * z).hex()
                    assert g2(z) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            lie.make_generating_pair(1, 1.0)
        with pytest.raises(InvalidParameterError):
            lie.make_generating_pair(2.5, 1.0)
        with pytest.raises(InvalidParameterError):
            lie.make_generating_pair(2, -1.0)


def closure_simpson(fn, a, b, tol=1e-10, max_depth=40):
    """The closure-based adaptive Simpson that the module-level recursion
    replaced, kept as the oracle."""
    if a == b:
        return 0.0

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = fn(lm), fn(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth >= max_depth:
            raise NumericFailureError("adaptive Simpson did not converge")
        if abs(left + right - whole) <= 15 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, tol / 2, depth + 1)
                + recurse(mid, hi, fmid, frm, fhi, right, tol / 2, depth + 1))

    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    if not all(map(math.isfinite, (fa, fm, fb))):
        raise NumericFailureError("integrand not finite on the quadrature range")
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def both_simpsons(fn, a, b, **kw):
    """(value or error message, evaluation points) of the oracle and of lie.adaptive_simpson."""
    out = []
    for quad in (closure_simpson, lie.adaptive_simpson):
        points = []

        def logged(s):
            points.append(s)
            return fn(s)

        try:
            result = quad(logged, a, b, **kw).hex()
        except NumericFailureError as exc:
            result = str(exc)
        out.append((result, points))
    return out


LIMITS = st.floats(-4.0, 4.0)


class TestAdaptiveSimpson:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(("polynomial", "exponential")),
           c=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=7),
           a=LIMITS, b=LIMITS, same=st.booleans())
    def test_equals_the_closure_oracle_bitwise(self, kind, c, a, b, same):
        if kind == "polynomial":
            fn = lambda s: sum(ck * s ** k for k, ck in enumerate(c))
        else:
            fn = lambda s: c[0] * math.exp(c[-1] / 4.0 * s)
        b = a if same else b
        for lo, hi in ((a, b), (b, a)):
            old, new = both_simpsons(fn, lo, hi)
            assert new == old

    @pytest.mark.parametrize("fn, a, b, kw, message", [
        (lambda s: math.exp(8.0 * s), 0.0, 4.0, {"max_depth": 3}, "did not converge"),
        (lambda s: 1.0 / s if s else math.inf, 0.0, 1.0, {}, "not finite"),
        (lambda s: math.nan if s == 0.25 else s, 0.0, 1.0, {}, "did not converge"),
        (lambda s: math.sqrt(abs(s)), -1.0, 1.0, {"tol": 1e-15, "max_depth": 8},
         "did not converge"),
    ])
    def test_raises_like_the_closure_oracle(self, fn, a, b, kw, message):
        old, new = both_simpsons(fn, a, b, **kw)
        assert new == old
        assert message in new[0]


class TestWronskianPair:
    def test_constant_seed_gives_negative_identity(self):
        g1, g2 = lie.make_wronskian_pair((1.0,))
        for z in np.linspace(-2, 2, 9):
            assert g1(z) == 1.0
            assert g2(z) == pytest.approx(-z, abs=1e-15)

    def test_linear_phi(self):
        g1, g2 = lie.make_wronskian_pair((0.0, 1.0))
        for z in np.linspace(-1.5, 1.5, 7):
            assert g2(z) == pytest.approx(-z * z / 2.0, abs=1e-15)

    def test_linear_phi_bracket_identity(self):
        # [g1 o J, g2 o J] = -J grad J, cross-checked through bracket2
        g1, g2 = lie.make_wronskian_pair((0.0, 1.0))
        f1, f2 = ScalarField(g1, HALF_SQUARE), ScalarField(g2, HALF_SQUARE)
        for x in (0.4, 1.0, 1.8):
            expected = -HALF_SQUARE.eval(x) * x
            assert bracket2(f1, f2, x) == pytest.approx(expected, rel=1e-14)

    def test_wronskian_residual(self):
        # g1 g2' - g1' g2 + phi = 0 pointwise, by the finite-difference oracle
        for phi in ((1.0,), (0.0, 1.0)):
            g1, g2 = lie.make_wronskian_pair(phi)
            for z in np.linspace(-1.5, 1.5, 9):
                d2 = fd_derivative(g2, z, 1)
                d1 = fd_derivative(g1, z, 1)
                assert abs(g1(z) * d2 - d1 * g2(z) + poly_shape(phi)(z)) <= 1e-8


class TestTripleFamily:
    def test_constant_phi_on_half_square(self):
        g1, g2, g3 = lie.make_triple_family((1.0,))
        fields = [ScalarField(g, HALF_SQUARE) for g in (g1, g2, g3)]
        for x in (-0.8, 0.5, 1.4):
            assert iterated_bracket(fields, (1, 2, 3), x) == pytest.approx(-1.0, rel=1e-15)

    def test_sqrt_gain(self):
        # phi2 = sqrt(c) realizes a pure gain c on J''
        g1, g2, g3 = lie.make_triple_family((math.sqrt(2.0),))
        fields = [ScalarField(g, HALF_SQUARE) for g in (g1, g2, g3)]
        assert iterated_bracket(fields, (1, 2, 3), 0.9) == pytest.approx(-2.0, rel=1e-15)

    def test_linear_phi_value(self):
        # at x=1, J=1/2: bracket = -(1/2)^2 * 1 = -0.25
        g1, g2, g3 = lie.make_triple_family((0.0, 1.0))
        fields = [ScalarField(g, HALF_SQUARE) for g in (g1, g2, g3)]
        assert iterated_bracket(fields, (1, 2, 3), 1.0) == pytest.approx(-0.25, rel=1e-15)


class TestQuadrupleFamily:
    def test_unit_phi_on_quartic(self):
        fam = lie.make_quadruple_family((1.0,))
        fields = [ScalarField(g, QUARTIC) for g in fam]
        assert iterated_bracket(fields, (1, 2, 3, 4), 0.0) == 24.0

    def test_vanishes_on_quadratic(self):
        quad = make_power_cost(1.0, 0.0, 2)
        fam = lie.make_quadruple_family((1.0,))
        fields = [ScalarField(g, quad) for g in fam]
        for x in (-0.7, 0.5):
            assert iterated_bracket(fields, (1, 2, 3, 4), x) == 0.0

    def test_constant_two_gives_sixteenfold(self):
        fam = lie.make_quadruple_family((2.0,))
        fields = [ScalarField(g, QUARTIC) for g in fam]
        # phi3 = 4: -phi3^2 J''' = -16 * (-24) = 384 at x=0
        assert iterated_bracket(fields, (1, 2, 3, 4), 0.0) == 384.0

    def test_linear_phi2_value(self):
        # -phi3(J)^2 J''' with phi3 = (1 + J/2)^2, on the quartic at x = 0.3
        fam = lie.make_quadruple_family((1.0, 0.5))
        fields = [ScalarField(g, QUARTIC) for g in fam]
        x = 0.3
        target = -(1.0 + 0.5 * QUARTIC.eval(x)) ** 4 * QUARTIC.analytic_derivs[2](x)
        assert iterated_bracket(fields, (1, 2, 3, 4), x) == pytest.approx(target, rel=1e-13)

    def test_closing_field_is_minus_phi3(self):
        g4 = lie.make_quadruple_family((1.0, 0.5))[3]
        assert g4.poly == (-1.0, -1.0, -0.25)
        for z in (-1.3, 0.0, 0.25, 0.7, 2.0, 40.0):
            assert g4(z) == pytest.approx(-(1.0 + 0.5 * z) ** 2, rel=1e-15)

    @pytest.mark.parametrize("phi2", [(), (math.nan,), (1.0, math.inf)])
    def test_bad_coefficients_rejected(self, phi2):
        with pytest.raises(InvalidParameterError):
            lie.make_quadruple_family(phi2)
