"""Cost models, declared derivatives, and assumption checkers."""

import math

import pytest

from liees import costs
from liees.errors import InvalidDomainError, InvalidParameterError


class TestMakePowerCost:
    def test_quartic_off_minimum(self):
        c = costs.make_power_cost(1.0, 1.0, 4)
        assert c.eval(0.0) == 1.0

    def test_minimum_value(self):
        c = costs.make_power_cost(1.0, 1.0, 4)
        assert c.eval(1.0) == 0.0
        assert c.jstar == 0.0 and c.xstar == 1.0 and c.degree == 4

    def test_first_derivative_of_half_square(self):
        c = costs.make_power_cost(0.5, 0.0, 2)
        assert costs.derivative(c, 1, 3.0) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("alpha,m", [(0.0, 4), (-1.0, 2), (1.0, 1), (1.0, 0)])
    def test_invalid_parameters(self, alpha, m):
        with pytest.raises(InvalidParameterError):
            costs.make_power_cost(alpha, 0.0, m)

    def test_power_tags_hold_doubles(self):
        # the tags the compiled kernel reads, of J and of every derivative
        c = costs.make_power_cost(1, 0, 2)
        for f in (c.eval, *c.analytic_derivs):
            coeff, xstar, _ = f.power
            assert type(coeff) is float and type(xstar) is float
        assert c.eval.power[0] == 1.0 and c.xstar == 0.0

    @pytest.mark.parametrize("alpha, xstar", [(10**400, 0.0), (1.0, -10**400)],
                             ids=["alpha", "xstar"])
    def test_parameters_beyond_a_float_rejected(self, alpha, xstar):
        with pytest.raises(InvalidParameterError, match="range of a float"):
            costs.make_power_cost(alpha, xstar, 2)

    @pytest.mark.parametrize("alpha, xstar", [(math.nan, 0.0), (math.inf, 0.0),
                                              (1.0, math.nan), (1.0, math.inf)],
                             ids=["alpha-nan", "alpha-inf", "xstar-nan", "xstar-inf"])
    def test_non_finite_parameters_rejected(self, alpha, xstar):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            costs.make_power_cost(alpha, xstar, 2)

    def test_declared_minimum_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            costs.CostFunction(eval=lambda x: x**2 + 1.0, xstar=0.0, jstar=0.0)

    def test_derivative_law_all_orders(self):
        # derivative(cost, l, x) = alpha m!/(m-l)! (x-xstar)^(m-l), rel 1e-10
        for alpha, xstar, m in [(1.0, 1.0, 4), (0.5, -0.3, 3), (2.0, 0.0, 2), (1.5, 0.2, 6)]:
            c = costs.make_power_cost(alpha, xstar, m)
            for order in range(1, min(4, m) + 1):
                coeff = alpha * math.prod(range(m - order + 1, m + 1))
                for x in (-1.0, 0.4, 2.2):
                    expected = coeff * (x - xstar) ** (m - order)
                    got = costs.derivative(c, order, x)
                    assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestDerivative:
    def test_third_order_analytic(self):
        c = costs.make_power_cost(1.0, 1.0, 4)
        assert costs.derivative(c, 3, 0.0) == pytest.approx(-24.0, rel=1e-12)

    def test_order_zero_passthrough(self):
        c = costs.make_power_cost(1.0, 1.0, 4)
        assert costs.derivative(c, 0, 2.0) == 1.0

    def test_undeclared_order_raises(self):
        # a cost without analytic derivatives has none: no finite-difference fallback
        c = costs.CostFunction(eval=math.sin)
        for order in (1, 2, 4):
            with pytest.raises(InvalidParameterError, match="order 0..0"):
                costs.derivative(c, order, 0.0)
        assert costs.derivative(c, 0, 0.5) == math.sin(0.5)

    def test_abs_cost_declares_sign_then_zero(self):
        c = costs.make_abs_cost(0.5)
        assert [costs.derivative(c, 1, x) for x in (-1.0, 0.5, 2.0)] == [-1.0, 1.0, 1.0]
        assert [costs.derivative(c, k, 0.2) for k in (2, 3, 4)] == [0.0, 0.0, 0.0]

    def test_order_out_of_range(self):
        c = costs.make_power_cost(1.0, 0.0, 2)
        with pytest.raises(InvalidParameterError):
            costs.derivative(c, 5, 0.0)


class TestCheckAssumption:
    def test_quartic_assumption2(self):
        c = costs.make_power_cost(1.0, 1.0, 4)
        rep = costs.check_assumption(c, 2, (0.0, 2.0), 33)
        assert rep.satisfied
        assert rep.constants["alpha1"] == pytest.approx(1.0, abs=1e-9)
        assert rep.constants["alpha2"] == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_assumption3_beta21_zero(self):
        c = costs.make_power_cost(1.0, 0.0, 2)
        rep = costs.check_assumption(c, 3, (-1.0, 1.0), 33)
        assert rep.satisfied
        assert rep.constants["beta21"] == 0.0
        assert rep.constants["beta22"] == pytest.approx(0.0, abs=1e-8)

    def test_abs_cost_fails_assumption2(self):
        rep = costs.check_assumption(costs.make_abs_cost(), 2, (-1.0, 1.0), 33)
        assert not rep.satisfied
        assert rep.failures == ["alpha2", "beta2"]

    def test_quartic_all_assumptions(self):
        c = costs.make_power_cost(1.0, 1.0, 4)
        for aid in (1, 2, 3):
            assert costs.check_assumption(c, aid, (0.0, 2.0), 33).satisfied, aid

    def test_matching_power_always_satisfied(self):
        # even degrees only: (x-x*)^m has no interior minimum for odd m
        for m in (2, 4):
            c = costs.make_power_cost(2.0, 0.5, m)
            rep = costs.check_assumption(c, 2, (-0.5, 1.5), 33)
            assert rep.satisfied, (m, rep.failures)

    def test_odd_degree_has_no_minimum(self):
        c = costs.make_power_cost(2.0, 0.5, 3)
        rep = costs.check_assumption(c, 2, (-0.5, 1.5), 33)
        assert not rep.satisfied

    def test_minimizer_outside_domain(self):
        c = costs.make_power_cost(1.0, 5.0, 2)
        with pytest.raises(InvalidDomainError):
            costs.check_assumption(c, 2, (0.0, 2.0))

    def test_grid_too_small(self):
        c = costs.make_power_cost(1.0, 0.5, 2)
        with pytest.raises(InvalidParameterError):
            costs.check_assumption(c, 2, (0.0, 2.0), 8)
