"""Envelope extraction, rate fitting, closeness, contraction probe."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liees import analysis, costs, lie, sim
from liees.analysis import Envelope, closeness, contraction_check, envelope, fit_rate
from liees.errors import InsufficientSignalError, InvalidParameterError
from liees.sim import Trajectory, build_two_input


def synthetic_traj(times, states, epsilon):
    states = np.asarray(states, dtype=float)
    return Trajectory(times=np.asarray(times, dtype=float), states=states,
                      cost_values=states**2, epsilon=epsilon, meta={})


class TestEnvelope:
    def test_constant_at_minimizer(self):
        t = np.arange(0, 30) * 0.01
        traj = synthetic_traj(t, np.full_like(t, 0.4), 0.01)
        env = envelope(traj, 0.4)
        assert np.all(env.distances == 0.0)

    def test_lbs_exponential_samples(self):
        cost = costs.make_power_cost(0.5, 0.0, 2)
        traj = sim.integrate_lbs(cost, [(1, 1.0)], 1.0, 1.0, 1000,
                                 record_epsilon=0.01)
        env = envelope(traj, 0.0)
        ks = np.arange(len(env.distances))
        assert np.max(np.abs(env.distances - np.exp(-0.01 * ks))) <= 1e-6

    def test_too_short_rejected(self):
        t = np.arange(0, 10) * 0.01
        traj = synthetic_traj(t, np.ones_like(t), 0.01)
        with pytest.raises(InvalidParameterError):
            envelope(traj, 0.0)


class TestFitRate:
    def test_exact_exponential_recovery(self):
        t = np.arange(1, 501) * 0.02
        est = fit_rate(Envelope(t, np.exp(-2.0 * t)))
        assert est.rate_class == "exponential"
        assert est.lam == pytest.approx(2.0, abs=0.02 * 2.0)
        assert est.r_squared > 0.999
        assert not est.ambiguous

    def test_exact_polynomial_recovery(self):
        # (1 + 2t)^(-1/2) fitted in its scaling regime
        t = np.arange(1, 20001) * 0.05
        est = fit_rate(Envelope(t, (1 + 2.0 * t) ** -0.5))
        assert est.rate_class == "polynomial"
        assert est.power_exponent == pytest.approx(-0.5, abs=0.05)
        assert est.r_squared > 0.99

    def test_polynomial_recovery_within_ten_percent(self):
        for p in (-0.5, -1.0):
            t = np.arange(1, 20001) * 0.05
            est = fit_rate(Envelope(t, (1 + 2.0 * t) ** p))
            assert est.rate_class == "polynomial"
            assert abs(est.power_exponent - p) <= 0.1 * abs(p)

    def test_constant_is_stalled(self):
        t = np.arange(1, 200) * 0.01
        est = fit_rate(Envelope(t, np.full_like(t, 0.8)))
        assert est.rate_class == "stalled"

    @pytest.mark.parametrize("growth, expected", [(0.0, "stalled"), (0.04, "stalled"),
                                                  (-0.04, "stalled"), (0.05, "receding"),
                                                  (12.0, "receding")])
    def test_growth_past_the_stall_band_is_receding(self, growth, expected):
        t = np.arange(1, 201) * 0.01
        est = fit_rate(Envelope(t, np.where(t <= 1.0, 0.5, 0.5 * (1.0 + growth))))
        assert (est.rate_class, est.lam, est.power_exponent) == (expected, None, None)

    def test_drift_away_from_the_minimizer_is_receding(self):
        # N = 3 on a quadratic: the averaged field -c J''(x) = -2c is a drift,
        # which carries x from 0.5 away from x* = 1
        cost = costs.make_power_cost(1.0, 1.0, 2)
        traj = sim.integrate(build_two_input(cost, 3, 1, 1e-4, 1.0), 0.5,
                             sim.IntegratorConfig(total_time=0.05, steps_per_period=128,
                                                  decimation=128))
        env = envelope(traj, 1.0)
        assert env.distances[-1] > 1.1 * env.distances[0]
        assert fit_rate(env).rate_class == "receding"

    def test_floor_recovery(self):
        # exponential decay onto a visible floor
        t = np.arange(1, 2001) * 0.01
        d = np.exp(-1.5 * t) + 0.003
        est = fit_rate(Envelope(t, d))
        assert est.rate_class == "exponential"
        assert est.rho == pytest.approx(0.003, rel=0.05)
        assert est.lam == pytest.approx(1.5, rel=0.05)

    # Recovery from noisy envelopes.  The tolerances were fixed before the
    # first run, at the bounds of the noise-free tests above: lambda and rho
    # within 5%, p within 10%.  The noise multiplies each sample by
    # exp(sigma xi), xi standard normal, sigma up to 2%.  Measured worst over
    # 400 draws each: lambda 0.26%, rho 0.46%, p 3.0% (p in [-1.5, -0.2]).
    @staticmethod
    def noisy(d, sigma, seed):
        return d * np.exp(sigma * np.random.default_rng(seed).standard_normal(len(d)))

    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(0.5, 5.0), amp=st.floats(0.5, 2.0), floor=st.floats(1e-3, 1e-2),
           sigma=st.floats(0.0, 0.02), seed=st.integers(0, 2**32 - 1))
    def test_noisy_exponential_with_floor(self, lam, amp, floor, sigma, seed):
        t = np.arange(1, 2001) * (30.0 / lam / 2000)    # 30 decay times, most on the floor
        est = fit_rate(Envelope(t, self.noisy(amp * np.exp(-lam * t) + floor, sigma, seed)))
        assert est.rate_class == "exponential"
        assert est.lam == pytest.approx(lam, rel=0.05)
        assert est.rho == pytest.approx(floor, rel=0.05)

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(-1.5, -0.2), c=st.floats(0.5, 5.0),
           sigma=st.floats(0.0, 0.02), seed=st.integers(0, 2**32 - 1))
    def test_noisy_polynomial(self, p, c, sigma, seed):
        t = np.arange(1, 20001) * 0.05
        est = fit_rate(Envelope(t, self.noisy((1 + c * t) ** p, sigma, seed)))
        assert est.rate_class == "polynomial"
        assert abs(est.power_exponent - p) <= 0.1 * abs(p)

    def test_insufficient_signal(self):
        t = np.arange(1, 30) * 0.01
        with pytest.raises(InsufficientSignalError):
            fit_rate(Envelope(t[:10], np.exp(-t[:10])))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       special=st.lists(st.sampled_from([math.inf, -math.inf, math.nan, 0.0, 1e308]),
                        max_size=4))
@example(n=2, seed=0, special=[1e308, 1e308])  # the two middle entries overflow their sum
def test_median_equals_numpy(n, seed, special):
    rng = np.random.default_rng(seed)
    # repeated values too, so that the two middle entries can be equal
    a = rng.standard_normal(n) if seed % 2 else rng.integers(0, 4, n) / 3.0
    a[rng.permutation(n)[: len(special)]] = special[:n]
    got = analysis._median(a.copy())
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.median(a)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestCloseness:
    def test_identical_is_zero(self):
        t = np.arange(0, 50) * 0.01
        a = synthetic_traj(t, np.exp(-t), 0.01)
        assert closeness(a, a) == 0.0

    def test_symmetry(self):
        t = np.arange(0, 50) * 0.01
        a = synthetic_traj(t, np.exp(-t), 0.01)
        b = synthetic_traj(t, np.exp(-1.2 * t), 0.01)
        assert closeness(a, b) == closeness(b, a)

    def test_span_mismatch(self):
        a = synthetic_traj(np.arange(0, 50) * 0.01, np.zeros(50), 0.01)
        b = synthetic_traj(np.arange(0, 30) * 0.01, np.zeros(30), 0.01)
        with pytest.raises(InvalidParameterError):
            closeness(a, b)

    def test_constant_versus_moving(self):
        t = np.arange(0, 101) * 0.01
        a = synthetic_traj(t, np.full_like(t, 1.0), 0.01)
        b = synthetic_traj(t, 1.0 - t, 0.01)
        assert closeness(a, b) == pytest.approx(1.0)


class TestTimeToBand:
    def test_basic(self):
        t = np.arange(0, 200) * 0.01
        traj = synthetic_traj(t, np.exp(-3.0 * t), 0.01)
        ttb = analysis.time_to_band(traj, 0.0, band=0.05)
        assert ttb == pytest.approx(math.log(20) / 3.0, abs=0.01)

    def test_never_reached(self):
        t = np.arange(0, 50) * 0.01
        traj = synthetic_traj(t, np.ones_like(t), 0.01)
        assert analysis.time_to_band(traj, 0.0, band=0.05) == math.inf


def loop_closeness(full, averaged):
    """Per-sample reference for closeness (the indices it must reproduce)."""
    period = full.epsilon if full.epsilon > 0 else averaged.epsilon
    n = int(math.floor(round(min(full.times[-1], averaged.times[-1]) / period, 9)))
    worst = 0.0
    for k in range(n + 1):
        ia = min(int(round(k * period / full.dt)), len(full.states) - 1)
        ib = min(int(round(k * period / averaged.dt)), len(averaged.states) - 1)
        worst = max(worst, abs(float(full.states[ia]) - float(averaged.states[ib])))
    return worst


def loop_time_to_band(traj, xstar, band):
    """Per-sample reference for time_to_band."""
    ts, xs = traj.strobe()
    inside = np.abs(xs - xstar) <= band
    return next((float(ts[k]) for k in range(len(ts)) if inside[k:].all()), math.inf)


class TestVectorisedIndexing:
    # dt values that put strobe and closeness sample times on half steps,
    # where round-half-to-even decides the index
    CASES = ((1e-3, 4e-4, 2000), (0.01, 0.004, 3001), (1e-4, 1e-4 / 3, 5000))

    def test_matches_per_sample_loops(self):
        rng = np.random.default_rng(3)
        for eps, dt, n in self.CASES:
            t = np.arange(n) * dt
            x = 1.0 + np.exp(-3.0 * t / t[-1]) * rng.uniform(-1.0, 1.0, n)
            traj = synthetic_traj(t, x, eps)
            stride = eps / dt
            m = int(math.floor(round(t[-1] / eps, 9)))
            idx = [min(int(round(k * stride)), n - 1) for k in range(m + 1)]
            ts, xs = traj.strobe()
            assert ts.tobytes() == t[idx].tobytes() and xs.tobytes() == x[idx].tobytes()
            for band in (0.01, 0.2, 0.5, 2.0):
                assert analysis.time_to_band(traj, 1.0, band) == loop_time_to_band(traj, 1.0, band)
            coarse = synthetic_traj(t[::2], x[::2], 0.0)
            assert closeness(traj, coarse) == loop_closeness(traj, coarse)
            assert closeness(coarse, traj) == loop_closeness(coarse, traj)


class TestContraction:
    def test_fourth_order_system_contracts(self):
        quartic = costs.make_power_cost(1.0, 1.0, 4)
        system = build_two_input(quartic, 4, 1, 1e-3, 1.0)
        rep = contraction_check(system, [0.0, 0.25, 0.5, 0.75], 1.0,
                                steps_per_period=2048)
        assert rep.contracts
        assert rep.gamma > 1.0
        assert all(p["holds"] for p in rep.points)

    def test_third_order_on_quadratic_stalls(self):
        quad = costs.make_power_cost(1.0, 0.0, 2)
        system = build_two_input(quad, 4, 1, 1e-3, 1.0)
        rep = contraction_check(system, [0.3, 0.5, 0.7, 0.9], 0.0,
                                steps_per_period=2048)
        assert abs(rep.gamma) < 1.0   # no meaningful contraction rate

    def test_zero_dither_trivial(self):
        quad = costs.make_power_cost(1.0, 0.0, 2)
        from liees.dither import DitherSpec

        def zchan(shape):
            return (shape, DitherSpec("custom-harmonic", 1, 1e-3, amplitude=0.0,
                                      harmonic=1, waveform="cos", bracket_length=2))

        system = sim.ESSystem(cost=quad, channels=(zchan(lie.linear_shape(1.0)),
                                                   zchan(lie.const_shape(1.0))))
        rep = contraction_check(system, [0.2, 0.5, 0.8], 0.0, steps_per_period=64)
        assert rep.gamma == pytest.approx(0.0, abs=1e-9)
        assert rep.sigma == pytest.approx(0.0, abs=1e-9)
        assert not rep.contracts
        assert all(p["holds"] for p in rep.points)

    def test_empty_grid_is_refused_before_integrating(self, monkeypatch):
        system = build_two_input(costs.make_power_cost(1.0, 1.0, 4), 4, 1, 1e-3, 1.0)
        monkeypatch.setattr(analysis, "period_map", lambda *a: pytest.fail("integrated"))
        with pytest.raises(InvalidParameterError, match="at least one start") as err:
            contraction_check(system, [], 1.0)
        assert "\n" not in str(err.value)

    def test_rescaling_preserves_sign(self):
        # J -> 2J with the gain halved gives identical fields, identical gamma
        a = build_two_input(costs.make_power_cost(1.0, 1.0, 4), 4, 1, 1e-3, 1.0)
        b = build_two_input(costs.make_power_cost(2.0, 1.0, 4), 4, 1, 1e-3, 0.5)
        ra = contraction_check(a, [0.25, 0.5, 0.75], 1.0, steps_per_period=1024)
        rb = contraction_check(b, [0.25, 0.5, 0.75], 1.0, steps_per_period=1024)
        assert math.copysign(1.0, ra.gamma) == math.copysign(1.0, rb.gamma)
        assert ra.gamma == pytest.approx(rb.gamma, rel=1e-9)
