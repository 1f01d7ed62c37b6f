"""System builders and the full / averaged integrators."""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liees import _kernel, analysis, costs, dither, lie, sim
from liees.dither import DitherSpec, make_design
from liees.errors import (
    ConstructionError,
    DivergenceError,
    InvalidParameterError,
    NumericFailureError,
    ResolutionError,
)
from liees.sim import IntegratorConfig, build_mixed, build_three_input, build_two_input

QUARTIC = costs.make_power_cost(1.0, 1.0, 4)
QUAD = costs.make_power_cost(1.0, 0.0, 2)
B = sim.CSV_BLOCK
# Row counts on both sides of the block edges.
CSV_SIZES = st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3])


def zero_channel(shape, epsilon):
    spec = DitherSpec("custom-harmonic", 1, epsilon, amplitude=0.0,
                      harmonic=1, waveform="cos", bracket_length=2)
    return (shape, spec)


class TestBuilders:
    def test_two_input_kinds(self):
        for N, kind in ((2, "first12"), (3, "second122"), (4, "third1222")):
            system = build_two_input(QUARTIC, N, 1, 1e-4, 1.0)
            assert system.arity == 2
            assert system.dithers[0].kind == kind

    def test_fourth_order_waveform(self):
        # 2 (2 pi / eps)^(3/4) * (3 J(x) sin(6 pi t/eps) + cos(2 pi t/eps))
        eps = 1e-4
        system = build_two_input(QUARTIC, 4, 1, eps, 1.0)
        amp = 2.0 * (2.0 * math.pi / eps) ** 0.75
        for t in np.linspace(0, eps, 9):
            u1 = sim.eval_dither(system.dithers[0], t)
            u2 = sim.eval_dither(system.dithers[1], t)
            assert u1 == pytest.approx(3 * amp * math.sin(6 * math.pi * t / eps), abs=1e-9 * amp)
            assert u2 == pytest.approx(amp * math.cos(2 * math.pi * t / eps), abs=1e-9 * amp)
        # channel 1 pairs the linear shape with positive sign
        assert system.shapes[0](2.0) == 2.0
        assert system.shapes[1](2.0) == 1.0

    def test_invalid_order(self):
        with pytest.raises(InvalidParameterError):
            build_two_input(QUARTIC, 5, 1, 1e-4, 1.0)

    def test_three_input_constant_phi(self):
        system = build_three_input(QUAD, 1.0, 1e-3, 1)
        assert system.arity == 3

    def test_three_input_follows_its_averaged_field_at_kappa_2(self):
        # meta["lbs_terms"] = [(2, phi2^2)] must hold at kappa != 1 too
        cost = costs.make_power_cost(1.0, 1.0, 3)
        system = build_three_input(cost, 1.0, 1e-4, 2)
        full = sim.integrate(system, 1.3, IntegratorConfig(0.3, 512, 512))
        lbs = sim.integrate_lbs(cost, system.meta["lbs_terms"], 1.3, 0.3, 3000,
                                record_epsilon=1e-4)
        assert analysis.closeness(full, lbs) < 1e-3

    def test_averaged_terms_recorded(self):
        # the [(order, gain)] of x' = -sum gain J^(order) that integrate_lbs takes
        assert build_two_input(QUAD, 3, 1, 1e-3, 0.5).meta["lbs_terms"] == [(2, 0.5)]
        classic = build_two_input(QUARTIC, 2, 1, 1e-3, 1.0, kind="classic")
        assert classic.meta["lbs_terms"] == [(1, 1.0)]
        assert build_three_input(QUAD, -1.5, 1e-3, 1).meta["lbs_terms"] == [(2, 2.25)]
        assert "lbs_terms" not in build_three_input(QUAD, lambda z: 1.5, 1e-3, 1).meta
        mixed = build_mixed(QUARTIC, 5, 1, 0.25, 0.75, 1e-4)
        assert mixed.meta["lbs_terms"] == [(1, 0.25), (3, 0.75)]

    def test_builders_evaluate_no_bracket(self, monkeypatch):
        # the families are closed-form: the bracket oracle is for checks only
        def no_bracket(*args):
            raise AssertionError("a builder evaluated a bracket")

        monkeypatch.setattr(lie, "iterated_bracket", no_bracket)
        for N in (2, 3, 4):
            assert build_two_input(QUARTIC, N, 1, 1e-4, 1e-13).arity == 2
        assert build_mixed(QUARTIC, 5, 1, 1.0, 1e-14, 1e-4).arity == 4
        assert len(lie.make_quadruple_family((1.0, 0.0, 1.0))) == 4

    def test_three_input_zero_phi_rejected(self):
        with pytest.raises(ConstructionError):
            build_three_input(QUAD, 0.0, 1e-3, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_callable_phi2_not_finite_at_zero_rejected(self, value):
        # every stage's quadrature starts from phi2(0)
        with pytest.raises(InvalidParameterError) as err:
            build_three_input(QUAD, lambda z: value, 1e-3, 1)
        assert "\n" not in str(err.value) and "phi2(0)" in str(err.value)

    @pytest.mark.parametrize("k", [1, 2, 16, 32])
    def test_callable_phi2_zero_check_wherever_a_nan_falls(self, k):
        # zero but for a NaN at the k-th of the probe points 4 i / 32
        phi2 = lambda z: math.nan if z == k / 8 else 0.0
        with pytest.raises(ConstructionError):
            build_three_input(QUAD, phi2, 1e-3, 1)
        nonzero = lambda z: math.nan if z == k / 8 else 1e-9
        assert build_three_input(QUAD, nonzero, 1e-3, 1).arity == 3

    def test_mixed_valid_frequencies(self):
        system = build_mixed(QUARTIC, 5, 1, 1.0, 1.0, 1e-4)
        assert system.arity == 4
        assert [d.kind for d in system.dithers] == ["first12", "first12",
                                                    "third1222", "third1222"]

    def test_mixed_resonant_frequencies_rejected(self):
        with pytest.raises(ConstructionError) as err:
            build_mixed(QUAD, 1, 1, 1.0, 1.0, 1e-4)
        assert err.value.report is not None
        assert not err.value.report.ok

    def test_mixed_reads_resonances_from_the_design_table(self, monkeypatch):
        # third1222's channel 1 at harmonic 5 resonates with first12 at kappa 5;
        # a check that wrote the harmonic 3 down again would build this system
        row = dither.DESIGNS["third1222"]
        (coef, ((_, trig, amp),)), channel2 = row.channels
        monkeypatch.setitem(dither.DESIGNS, "third1222",
                            row._replace(channels=((coef, ((5, trig, amp),)), channel2)))
        with pytest.raises(ConstructionError) as err:
            build_mixed(QUAD, 5, 1, 1.0, 1.0, 1e-4)
        assert err.value.report.pairs == [(5, 1), (5, 5)]

    def test_system_period_mismatch(self):
        d1 = DitherSpec("classic", 1, 1e-3)
        d2 = DitherSpec("classic", 2, 1e-4)
        with pytest.raises(InvalidParameterError):
            sim.ESSystem(cost=QUAD, channels=((sim.linear_shape(1.0), d1),
                                              (sim.const_shape(1.0), d2)))


class TestAveragedDrift:
    """Constant-drift averages of the second-order designs on J = x^2/2."""

    def test_two_input_third_order_drift(self):
        # [[g1,g2],g2] = -c J'' = -c: the strobe drift rate is -c
        half_square = costs.make_power_cost(0.5, 0.0, 2)
        eps = 1e-3
        system = build_two_input(half_square, 3, 1, eps, 1.0)
        cfg = IntegratorConfig(total_time=50 * eps, steps_per_period=512, decimation=512)
        traj = sim.integrate(system, 0.0, cfg)
        drift = (traj.states[-1] - traj.states[0]) / (50 * eps)
        assert drift == pytest.approx(-1.0, abs=0.1)

    def test_three_input_drift(self):
        half_square = costs.make_power_cost(0.5, 0.0, 2)
        eps = 1e-3
        system = build_three_input(half_square, 1.0, eps, 1)
        cfg = IntegratorConfig(total_time=50 * eps, steps_per_period=1024, decimation=1024)
        traj = sim.integrate(system, 0.0, cfg)
        drift = (traj.states[-1] - traj.states[0]) / (50 * eps)
        assert drift == pytest.approx(-1.0, abs=0.1)

    def test_three_input_sqrt_gain(self):
        # phi2 = sqrt(2) doubles the drift
        half_square = costs.make_power_cost(0.5, 0.0, 2)
        eps = 1e-3
        system = build_three_input(half_square, math.sqrt(2.0), eps, 1)
        cfg = IntegratorConfig(total_time=50 * eps, steps_per_period=1024, decimation=1024)
        traj = sim.integrate(system, 0.0, cfg)
        drift = (traj.states[-1] - traj.states[0]) / (50 * eps)
        assert drift == pytest.approx(-2.0, abs=0.2)

    def test_mixed_average_on_quartic(self):
        # one period of the mixed design moves by -eps (gamma1 J' + gamma3 J''')
        eps = 1e-3
        system = build_mixed(QUARTIC, 5, 1, 1.0, 1.0, eps)
        x0 = 0.5
        cfg = IntegratorConfig(total_time=eps, steps_per_period=4096, decimation=4096)
        got = sim.integrate(system, x0, cfg).states[-1]
        expected = x0 + eps * (-4 * (x0 - 1) ** 3 - 24 * (x0 - 1))
        # cross-design leak terms scale as eps^(5/4)
        assert abs(got - expected) <= 20 * eps ** 1.25


class TestIntegrate:
    def test_zero_dither_constant_trajectory(self):
        system = sim.ESSystem(cost=QUAD, channels=(
            zero_channel(sim.linear_shape(1.0), 1e-3),
            zero_channel(sim.const_shape(1.0), 1e-3)))
        traj = sim.integrate(system, 0.7, IntegratorConfig(total_time=0.05,
                                                           steps_per_period=64,
                                                           decimation=8))
        assert np.all(traj.states == 0.7)

    def test_durr_system_decreasing_envelope(self):
        system = build_two_input(QUARTIC, 2, 1, 1e-4, 1.0, kind="classic")
        traj = sim.integrate(system, 0.0, IntegratorConfig(total_time=0.02,
                                                           steps_per_period=512,
                                                           decimation=512))
        d = np.abs(traj.states - 1.0)
        assert d[-1] < d[0]
        # averaged flow predicts (1 + 8t)^(-1/2)
        assert d[-1] == pytest.approx((1 + 8 * 0.02) ** -0.5, abs=0.01)

    def test_step_halving_consistency(self):
        # final state changes below 1e-6 between 4096 and 8192 steps/period
        for builder_kind in ("classic", None):
            N = 2 if builder_kind else 4
            system = build_two_input(QUARTIC, N, 1, 1e-4, 1.0, kind=builder_kind)
            finals = []
            for S in (4096, 8192):
                cfg = IntegratorConfig(total_time=0.02, steps_per_period=S, decimation=S)
                finals.append(sim.integrate(system, 0.0, cfg).states[-1])
            assert abs(finals[0] - finals[1]) < 1e-6

    def test_resolution_guard(self):
        system = build_two_input(QUARTIC, 4, 8, 1e-4, 1.0)   # fastest harmonic 24
        with pytest.raises(ResolutionError):
            sim.integrate(system, 0.0, IntegratorConfig(total_time=1e-3,
                                                        steps_per_period=128))

    def test_divergence_reported(self):
        # large eps on the quartic feeds back superlinearly and blows up
        system = build_two_input(QUARTIC, 4, 1, 1e-2, 1.0)
        with pytest.raises(DivergenceError) as err:
            sim.integrate(system, 0.0, IntegratorConfig(total_time=0.1,
                                                        steps_per_period=512,
                                                        decimation=512))
        assert err.value.last_time >= 0.0

    def test_whole_periods_rounded(self):
        # total_time need not be a multiple of eps: round(total_time / eps), at least one
        eps = 1e-3
        system = build_two_input(QUAD, 2, 1, eps, 1.0)
        for total, periods in ((0.4 * eps, 1), (2.6 * eps, 3)):
            cfg = IntegratorConfig(total_time=total, steps_per_period=64, decimation=64)
            traj = sim.integrate(system, 0.5, cfg)
            assert traj.meta["periods"] == periods
            assert len(traj.states) == periods + 1
            assert traj.times[-1] == pytest.approx(periods * eps)

    def test_decimation_must_divide(self):
        with pytest.raises(InvalidParameterError):
            IntegratorConfig(total_time=1.0, steps_per_period=512, decimation=100)

    def test_trajectory_shape_and_strobe(self):
        eps = 1e-3
        system = build_two_input(QUAD, 2, 1, eps, 1.0)
        cfg = IntegratorConfig(total_time=30 * eps, steps_per_period=256, decimation=64)
        traj = sim.integrate(system, 0.5, cfg)
        assert traj.times[0] == 0.0
        assert len(traj.times) == len(traj.states) == len(traj.cost_values)
        assert np.allclose(np.diff(traj.times), eps / 4)
        ts, xs = traj.strobe()
        assert len(ts) == 31
        assert ts[1] == pytest.approx(eps)

    def test_nonaffine_shape_path(self):
        # generic (slow) path agrees with the affine fast path
        eps = 1e-3
        fast = build_two_input(QUAD, 2, 1, eps, 1.0, kind="classic")
        slow_shapes = (lambda z: 1.0 * z, lambda z: 1.0)   # no .poly tag
        slow = sim.ESSystem(cost=QUAD, channels=tuple(
            (g, d) for g, d in zip(slow_shapes, fast.dithers)))
        cfg = IntegratorConfig(total_time=5 * eps, steps_per_period=256, decimation=256)
        xa = sim.integrate(fast, 0.4, cfg).states
        xb = sim.integrate(slow, 0.4, cfg).states
        assert np.allclose(xa, xb, atol=1e-13)


def phi2_system():
    """The three-input system on a callable phi2: its g2 = a w runs an adaptive
    Simpson quadrature at every stage."""
    return build_three_input(QUARTIC, lambda z: 0.5 + 0.3 * z, 1e-3)


def polynomial_shape_system():
    d1, d2 = make_design("first12", 1e-2, 2)
    return sim.ESSystem(cost=costs.make_power_cost(2.0, 0.5, 2), channels=(
        (lambda z: 1.0 + 0.5 * z, d1), (lambda z: z - 0.25 * z * z, d2)))


def triple_family_system():
    """make_triple_family's polynomial shapes for phi2 = 0.5 + 0.3 z on the
    triple123 dithers: not affine, so the generic columns run them."""
    dithers = make_design("triple123", 1e-3, 1)
    return sim.ESSystem(cost=QUARTIC, channels=tuple(zip(lie.make_triple_family((0.5, 0.3)),
                                                         dithers)))


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestGeneralShapePath:
    """Results of the per-column right-hand-side path, pinned bit for bit to
    the values of the sum()-over-a-generator columns it replaced."""

    def test_callable_phi2_states(self):
        cfg = IntegratorConfig(total_time=3e-3, steps_per_period=256, decimation=1)
        assert sha256(sim.integrate(phi2_system(), 0.7, cfg).states) == (
            "c8c1b5a7effe51f3ab751990b0fdacfcab3fae8375ec65870fac59ca6951be5d")

    def test_shapes_without_affine_states(self):
        cfg = IntegratorConfig(total_time=5e-2, steps_per_period=128, decimation=1)
        assert sha256(sim.integrate(polynomial_shape_system(), 1.3, cfg).states) == (
            "405b05c67a6bc17204c95c971c0ca5437b9fdb4873591f9ac247644a7f75a7bc")

    def test_callable_phi2_contraction(self):
        rep = analysis.contraction_check(phi2_system(), [0.65, 0.85, 1.1, 1.3], 1.0, 256)
        assert (rep.gamma.hex(), rep.sigma.hex()) == ("-0x1.3b9bca5681f08p+0",
                                                      "0x1.5f93b3e5723dfp+0")

    @pytest.mark.parametrize("system", [triple_family_system(), phi2_system()])
    def test_one_column_form(self, system):
        # every column is one function bound to that column's dither values
        F, _, _ = sim._system_stepper(system, 256).lists
        assert len(F) == 512 and len({f.__func__ for f in F}) == 1


class Counted:
    """fn, counting its calls and keeping their arguments."""

    def __init__(self, fn):
        self.fn, self.args = fn, []

    def __call__(self, z):
        self.args.append(z)
        return self.fn(z)


def generic_phi2_system(cost, phi2, epsilon=1e-3):
    """build_three_input's callable-phi2 shapes without the tags that fuse
    them: the generic per-shape columns run them."""
    shapes = (lie.const_shape(1.0), lambda z: -lie.adaptive_simpson(phi2, 0.0, z),
              lambda z: -phi2(z))
    dithers = make_design("triple123", epsilon, 1)
    return sim.ESSystem(cost=cost, channels=tuple(zip(shapes, dithers)))


def outcome(run, J):
    """The bytes of run()'s arrays, or its error with the number of cost
    evaluations before it: one per RK4 stage on either path."""
    J.args.clear()
    try:
        return [a.tobytes() for a in run()]
    except (DivergenceError, NumericFailureError) as err:
        return (type(err), str(err), getattr(err, "last_time", None),
                getattr(err, "last_x", None), len(J.args))


PHI2_FAMILIES = {
    "affine": lambda a, b, zc: lambda z: a + b * z,
    "quadratic": lambda a, b, zc: lambda z: a - b * z + 2.0 * z * z,
    # exp(5 z) fails the first Simpson level from d0 = 0.3 on the quartic cost
    "exp": lambda a, b, zc: lambda z: a * math.exp(b * z),
    "inf past zc": lambda a, b, zc: lambda z: a + b * z if z < zc else math.inf,
    "nan past zc": lambda a, b, zc: lambda z: a + b * z if z < zc else math.nan,
}


class TestFusedPhi2Stage:
    """The fused callable-phi2 stage against the generic columns running the
    same shapes: bit for bit, the same errors at the same stage."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(family=st.sampled_from(sorted(PHI2_FAMILIES)), a=st.floats(0.2, 1.0),
           b=st.floats(-1.0, 5.0), zc=st.floats(1e-3, 0.2), m=st.sampled_from((2, 4)),
           x0=st.one_of(st.just(1.0), st.floats(0.2, 1.8)), S=st.sampled_from((256, 512)))
    @example(family="exp", a=1.0, b=5.0, zc=0.1, m=4, x0=1.3, S=256)
    @example(family="affine", a=0.5, b=0.3, zc=0.1, m=4, x0=1.0, S=256)
    @example(family="exp", a=1.0, b=5.0, zc=0.1, m=2, x0=1.3, S=256)
    @example(family="inf past zc", a=0.5, b=0.3, zc=0.05, m=2, x0=1.3, S=256)
    def test_fused_equals_generic(self, family, a, b, zc, m, x0, S):
        J = Counted(costs.make_power_cost(1.0, 1.0, m).eval)
        cost = costs.CostFunction(eval=J, degree=m)
        phi2 = PHI2_FAMILIES[family](a, b, zc)
        fused, generic = build_three_input(cost, phi2, 1e-3), generic_phi2_system(cost, phi2)
        cfg = IntegratorConfig(total_time=1e-3, steps_per_period=S)

        def integrated(system):
            traj = sim.integrate(system, x0, cfg)
            return traj.states, traj.cost_values

        def mapped(system):
            return (sim.period_map(system, [x0, 1.0, 2.0 - x0], 1, S),)

        for run in (integrated, mapped):
            assert outcome(lambda: run(fused), J) == outcome(lambda: run(generic), J)

    def test_first_level_failure_recurses(self, monkeypatch):
        # exp(5 z) from d0 = 0.3 on the quartic cost (z up to 0.125): the
        # first Simpson level fails, and the recursion gives the generic bits
        calls = []

        def halves(*args):
            calls.append(args)
            return lie.simpson_halves(*args)

        monkeypatch.setattr(sim, "simpson_halves", halves)
        cost = costs.make_power_cost(1.0, 1.0, 4)
        phi2 = lambda z: math.exp(5.0 * z)
        cfg = IntegratorConfig(total_time=1e-3, steps_per_period=256)
        fused = sim.integrate(build_three_input(cost, phi2, 1e-3), 1.3, cfg).states
        assert calls
        generic = sim.integrate(generic_phi2_system(cost, phi2), 1.3, cfg).states
        assert fused.tobytes() == generic.tobytes()

    def test_phi2_calls(self):
        # once at 0.0 (a float) per build, then 4 per stage with the first
        # Simpson level accepted, where the generic columns make 6
        phi2 = Counted(lambda z: 0.5 + 0.3 * z)
        system = build_three_input(QUARTIC, phi2, 1e-3)
        assert phi2.args == [0.0] and type(phi2.args[0]) is float
        S = 256
        cfg = IntegratorConfig(total_time=1e-3, steps_per_period=S)
        for built, per_stage in ((system, 4), (generic_phi2_system(QUARTIC, phi2), 6)):
            phi2.args.clear()
            sim.integrate(built, 0.7, cfg)
            assert len(phi2.args) == per_stage * 4 * S
        phi2.args.clear()
        sim.period_map(system, [0.7, 1.2], 1, S)
        assert len(phi2.args) == 2 * 4 * 4 * S


def end_state_or_error(system, x0, cfg):
    """integrate's last state, or its DivergenceError as (message, time, state)."""
    try:
        return float(sim.integrate(system, x0, cfg).states[-1]).hex()
    except DivergenceError as err:
        return (str(err), err.last_time, err.last_x)


class TestPeriodMap:
    """period_map against integrate, start by start, on both paths."""

    @pytest.fixture(params=["c", "python"])
    def path(self, request, monkeypatch):
        if request.param == "python":
            monkeypatch.setattr(_kernel, "load", lambda: None)
        elif _kernel.load() is None:
            pytest.skip("the compiled kernel cannot be built here")
        return request.param

    @pytest.mark.parametrize("system, starts, S, periods", [
        (build_two_input(QUARTIC, 4, 1, 1e-3, 1.0), [0, 0.6, 1.0, 1.6], 256, 3),
        (build_mixed(QUARTIC, 5, 1, 0.7, 0.4, 1e-2), [0.3, 1.2], 512, 1),
        (polynomial_shape_system(), [0.9, 1.3], 128, 2),
    ])
    def test_each_start_equals_integrate(self, path, system, starts, S, periods):
        cfg = IntegratorConfig(total_time=periods * system.epsilon, steps_per_period=S,
                               decimation=S)
        ends = sim.period_map(system, starts, periods, S)
        assert ends.dtype == np.float64 and len(ends) == len(starts)
        assert [v.hex() for v in ends.tolist()] == [
            end_state_or_error(system, float(x), cfg) for x in starts]
        assert sim.integrate(system, 0.6, cfg).meta["kernel"] in (path, "python")

    def test_diverging_start_raises_its_error(self, path):
        system = build_two_input(QUARTIC, 4, 1, 1e-3, 1.0)
        cfg = IntegratorConfig(total_time=2e-3, steps_per_period=256, decimation=256)
        starts = [0.5, 1e80, 1.2, -2.0]
        with pytest.raises(DivergenceError) as err:
            sim.period_map(system, starts, 2, 256)
        assert (str(err.value), err.value.last_time, err.value.last_x) == (
            end_state_or_error(system, 1e80, cfg))
        assert isinstance(end_state_or_error(system, -2.0, cfg), tuple)

    def test_validation(self):
        system = build_two_input(QUARTIC, 2, 1, 1e-3, 1.0)
        for periods in (0, 1.5, True):
            with pytest.raises(InvalidParameterError):
                sim.period_map(system, [0.5], periods, 256)
        with pytest.raises(InvalidParameterError):
            sim.period_map(system, [0.5], 1, 8)
        with pytest.raises(ResolutionError):
            sim.period_map(build_two_input(QUARTIC, 2, 8, 1e-3, 1.0), [0.5], 1, 64)
        assert sim.period_map(system, [], 1, 256).shape == (0,)


class TestIntegrateLbs:
    def test_quadratic_gradient_flow(self):
        # J = x^2/2: x' = -x, exact e^{-t}
        cost = costs.make_power_cost(0.5, 0.0, 2)
        traj = sim.integrate_lbs(cost, [(1, 1.0)], 1.0, 5.0, 5000)
        exact = np.exp(-traj.times)
        assert np.max(np.abs(traj.states - exact)) <= 1e-8

    def test_cubic_flow_polynomial_decay(self):
        # J = x^4/4: x' = -x^3, exact (1+2t)^(-1/2); value 1/3 at t = 4
        cost = costs.make_power_cost(0.25, 0.0, 4)
        traj = sim.integrate_lbs(cost, [(1, 1.0)], 1.0, 10.0, 10000)
        exact = (1 + 2 * traj.times) ** -0.5
        assert np.max(np.abs(traj.states - exact)) <= 1e-6
        at4 = traj.states[np.argmin(np.abs(traj.times - 4.0))]
        assert at4 == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_third_derivative_flow(self):
        # x' = -J''' = -24(x-1), x(0)=0: x(t) = 1 - e^{-24t}
        traj = sim.integrate_lbs(QUARTIC, [(3, 1.0)], 0.0, 0.3, 30000)
        exact = 1.0 - np.exp(-24.0 * traj.times)
        assert np.max(np.abs(traj.states - exact)) <= 1e-8

    def test_gradient_cost_monotone(self):
        cost = costs.make_power_cost(1.0, 0.3, 4)
        traj = sim.integrate_lbs(cost, [(1, 0.7)], 1.5, 3.0, 3000)
        assert np.all(np.diff(traj.cost_values) <= 1e-10)

    def test_rk4_order(self):
        # global error on the linear flow scales as steps^-4
        cost = costs.make_power_cost(0.5, 0.0, 2)
        errs = []
        steps = [8, 16, 32, 64]
        for s in steps:
            traj = sim.integrate_lbs(cost, [(1, 1.0)], 1.0, 1.0, s)
            errs.append(abs(traj.states[-1] - math.exp(-1.0)))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.3)

    def test_overflow_is_divergence(self):
        # the first stage overflows float range before the post-step check
        with pytest.raises(DivergenceError) as err:
            sim.integrate_lbs(QUARTIC, [(1, 1.0)], 1e60, 1.0, 10)
        assert math.isfinite(err.value.last_time)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            sim.integrate_lbs(QUAD, [(4, 1.0)], 0.0, 1.0, 100)
        with pytest.raises(InvalidParameterError):
            sim.integrate_lbs(QUAD, [(1, -1.0)], 0.0, 1.0, 100)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        cost = costs.make_power_cost(0.5, 0.0, 2)
        traj = sim.integrate_lbs(cost, [(1, 1.0)], 1.0, 1.0, 50)
        path = tmp_path / "traj.csv"
        sim.write_trajectory_csv(traj, str(path))
        text = path.read_text().splitlines()
        assert text[0] == "t,x,J"
        back = sim.read_trajectory_csv(str(path), epsilon=traj.epsilon)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)

    def test_header_validation(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidParameterError):
            sim.read_trajectory_csv(str(p))

    def test_rewrite_is_in_place_and_cut_to_length(self, tmp_path):
        t = np.arange(B + 5) * 0.1
        long, short = (sim.Trajectory(t[:n], np.sin(t[:n]), np.cos(t[:n]), 1.0) for n in (B + 5, 7))
        path = tmp_path / "traj.csv"
        sim.write_trajectory_csv(long, str(path))
        inode = path.stat().st_ino
        sim.write_trajectory_csv(short, str(path))
        assert path.read_bytes() == oracle_csv(short.times, short.states, short.cost_values)
        assert path.stat().st_ino == inode

    def test_failed_rewrite_leaves_what_was_written(self, tmp_path, monkeypatch):
        t = np.arange(B + 5) * 0.1
        path = tmp_path / "traj.csv"
        sim.write_trajectory_csv(sim.Trajectory(t, t, t, 1.0), str(path))

        def fail(fh, columns):
            fh.write("1,2,3\n")
            raise RuntimeError("disk gone")

        monkeypatch.setattr(sim, "write_csv_rows", fail)
        with pytest.raises(RuntimeError, match="disk gone"):
            sim.write_trajectory_csv(sim.Trajectory(t, t, t, 1.0), str(path))
        assert path.read_bytes() == b"t,x,J\n1,2,3\n"

    def test_writes_to_a_device(self):
        t = np.arange(5) * 0.1
        sim.write_trajectory_csv(sim.Trajectory(t, t, t, 1.0), os.devnull)


def oracle_csv(times, states, cost_values) -> bytes:
    """The per-row writer the block writer replaced, over numpy scalars."""
    rows = "".join(f"{t:.17g},{x:.17g},{j:.17g}\n"
                   for t, x, j in zip(times, states, cost_values))
    return ("t,x,J\n" + rows).encode()


def same_bits(a, b) -> bool:
    """Bitwise equal arrays, any NaN matching any NaN."""
    return a.shape == b.shape and bool(np.all(
        (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))))


def float_columns(n):
    """n float64 values: hypothesis' floats (edge cases), or random bit patterns."""
    random_bits = st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)
        .view(np.float64))
    return st.one_of(arrays(np.float64, n, elements=st.floats(width=64)), random_bits)


def write_text(path, text):
    path.write_bytes(text.encode())
    return str(path)


class TestCsvCodec:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=CSV_SIZES)
    def test_writer_matches_per_row_oracle(self, tmp_path_factory, data, n):
        t, x, j = (data.draw(float_columns(n)) for _ in range(3))
        path = tmp_path_factory.mktemp("csv") / "traj.csv"
        sim.write_trajectory_csv(sim.Trajectory(t, x, j, 1.0), str(path))
        assert path.read_bytes() == oracle_csv(t, x, j)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=CSV_SIZES, h=st.floats(1e-9, 1e3))
    def test_read_back_is_bit_exact(self, tmp_path_factory, data, n, h):
        t = np.arange(n) * h
        x, j = data.draw(float_columns(n)), data.draw(float_columns(n))
        path = tmp_path_factory.mktemp("csv") / "traj.csv"
        sim.write_trajectory_csv(sim.Trajectory(t, x, j, 1.0), str(path))
        back = sim.read_trajectory_csv(str(path), epsilon=0.5)
        assert same_bits(back.times, t)
        assert same_bits(back.states, x)
        assert same_bits(back.cost_values, j)
        assert back.epsilon == 0.5

    def test_writer_stops_at_the_shortest_column(self, tmp_path):
        t, x, j = np.arange(B + 5) * 0.1, np.ones(B + 2), np.zeros(B + 9)
        path = tmp_path / "traj.csv"
        sim.write_trajectory_csv(sim.Trajectory(t, x, j, 1.0), str(path))
        assert path.read_bytes() == oracle_csv(t, x, j)
        sim.write_trajectory_csv(sim.Trajectory(list(t), list(x), list(j), 1.0), str(path))
        assert path.read_bytes() == oracle_csv(t, x, j)

    def test_malformed_row_in_second_block_names_its_line(self, tmp_path):
        rows = [f"{k * 1e-3!r},0.5,0.25\n" for k in range(B + 10)]
        rows[B + 4] = "0.1,0.5\n"
        path = write_text(tmp_path / "bad.csv", "t,x,J\n" + "".join(rows))
        with pytest.raises(InvalidParameterError,
                           match=f"line {B + 6}: expected three numbers t,x,J, got '0.1,0.5'"):
            sim.read_trajectory_csv(path)
        rows[B + 4] = "0.1,0.5,zero\n"
        path = write_text(tmp_path / "bad.csv", "t,x,J\n" + "".join(rows))
        with pytest.raises(InvalidParameterError, match=f"line {B + 6}: "):
            sim.read_trajectory_csv(path)
        # four fields then two: the block has the right number of fields
        rows[B + 4:B + 6] = ["0.1,0.5,0.25,7\n", "0.1,0.5\n"]
        path = write_text(tmp_path / "bad.csv", "t,x,J\n" + "".join(rows))
        with pytest.raises(InvalidParameterError, match=f"line {B + 6}: .* got '0.1,0.5,0.25,7'"):
            sim.read_trajectory_csv(path)

    def test_line_endings_read_alike(self, tmp_path):
        body = "".join(f"{k / 8!r},{k * 0.5 - 3!r},{k ** 2 / 7!r}\n" for k in range(B + 3))
        lf = sim.read_trajectory_csv(write_text(tmp_path / "lf.csv", "t,x,J\n" + body))
        for name, text in (("crlf", ("t,x,J\n" + body).replace("\n", "\r\n")),
                           ("open", "t,x,J\n" + body.rstrip("\n"))):
            other = sim.read_trajectory_csv(write_text(tmp_path / f"{name}.csv", text))
            for k in ("times", "states", "cost_values"):
                assert getattr(other, k).tobytes() == getattr(lf, k).tobytes()

    def test_float_spellings_read_as_before(self, tmp_path):
        text = "t,x,J\n 0 , 1_0.5 ,nan\n0.25,-inf, 2e-3 \n"
        back = sim.read_trajectory_csv(write_text(tmp_path / "odd.csv", text))
        assert same_bits(back.times, np.array([0.0, 0.25]))
        assert same_bits(back.states, np.array([10.5, -np.inf]))
        assert same_bits(back.cost_values, np.array([np.nan, 2e-3]))

    # the line named is the later row of the step that deviates most from the
    # mean step: a gap, not the first of the steps the gap shifts the mean from
    UNEVEN = [
        ([0.0, 0.1, 0.3, 0.4], 4),
        ([k * 0.1 + (k == B + 500) * 1e-6 for k in range(2 * B)], B + 502),
        ([0.0, 0.2, 0.1], 3),
        ([0.0, 0.0, 0.0], 3),
        ([1.0, 0.5, 0.0], 3),
        ([0.0, float("nan"), 0.2], 3),
        ([0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8], 6),
        ([0.0, 0.1, 0.5, 0.6, float("nan"), 0.8, 0.9], 6),
    ]

    @pytest.mark.parametrize("times, line", UNEVEN)
    def test_uneven_times_are_rejected(self, tmp_path, times, line):
        text = "t,x,J\n" + "".join(f"{t!r},1,1\n" for t in times)
        with pytest.raises(InvalidParameterError, match=f"line {line}: times must be evenly"):
            sim.read_trajectory_csv(write_text(tmp_path / "uneven.csv", text))

    def test_spacing_checked_in_small_blocks_names_the_same_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "SPACING_BLOCK", 3)
        for times, line in self.UNEVEN:
            self.test_uneven_times_are_rejected(tmp_path, times, line)

    def test_rounded_even_times_pass(self, tmp_path):
        n = 3 * B
        t = np.arange(n) * (1e-4 / 512) + 7.0
        path = tmp_path / "traj.csv"
        sim.write_trajectory_csv(sim.Trajectory(t, np.zeros(n), np.zeros(n), 1e-4), str(path))
        assert sim.read_trajectory_csv(str(path)).times.tobytes() == t.tobytes()
        single = write_text(tmp_path / "one.csv", "t,x,J\n3.5,1,2\n")
        assert sim.read_trajectory_csv(single).dt == 0.0


@pytest.fixture(scope="class")
def python_codec():
    """The loader finds no compiled library for the whole class."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        yield


@pytest.mark.usefixtures("python_codec")
class TestCsvCodecPython(TestCsvCodec):
    """TestCsvCodec on the Python codec, the fallback when there is no compiler.

    Hypothesis runs a wrapped test for one instance only, so the two property
    tests get wrappers of their own around the same bodies.
    """

    test_writer_matches_per_row_oracle = settings(max_examples=30, deadline=None)(
        given(data=st.data(), n=CSV_SIZES)(
            TestCsvCodec.test_writer_matches_per_row_oracle.hypothesis.inner_test))
    test_read_back_is_bit_exact = settings(max_examples=30, deadline=None)(
        given(data=st.data(), n=CSV_SIZES, h=st.floats(1e-9, 1e3))(
            TestCsvCodec.test_read_back_is_bit_exact.hypothesis.inner_test))

    def test_runs_on_the_python_codec(self):
        assert _kernel.load() is None
