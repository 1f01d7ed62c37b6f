"""Dither waveforms: values, periodicity, zero mean, scaling, resonances."""

import math

import numpy as np
import pytest

from liees import dither
from liees.chenfliess import compute_signature
from liees.dither import DitherSpec, eval_dither
from liees.errors import InvalidParameterError

ALL_PAIR_KINDS = ["first12", "classic", "second122", "third1222"]


def period_mean(spec):
    """The level-one signature entry I_(1) = eps * mean, divided by eps."""
    sig = compute_signature([spec], depth=1)
    return sig.entry((1,)) / spec.epsilon


def reference_signal(spec, tau):
    """The per-kind evaluator that the DESIGNS table replaced, kept as the
    oracle of its bits: each kind's own factor and angle order."""
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
        for freqs, amps in zip(dither.TRIPLE123_FREQS, dither.TRIPLE123_AMPS):
            val += amps[j] * np.cos(2.0 * math.pi * freqs[j] * kap * tau)
        return pre * kap ** (2.0 / 3.0) * val
    ang = 2.0 * math.pi * spec.harmonic * kap * tau
    return pre * spec.amplitude * (np.cos(ang) if spec.waveform == "cos" else np.sin(ang))


class TestDesignTable:
    # The table must reproduce the per-kind evaluator bit for bit: the
    # trajectories, coefficient tables and benchmark digests are pinned to
    # its values.  Both sides run here, so no digest of numpy's cos/sin
    # (which may differ across CPUs) is stored.
    @staticmethod
    def assert_bitwise(spec, ts):
        got = eval_dither(spec, ts)
        want = reference_signal(spec, ts / spec.epsilon)
        assert got.tobytes() == want.tobytes(), spec
        for t in ts[::97].tolist():
            scalar = eval_dither(spec, t)
            assert type(scalar) is float
            ref = float(reference_signal(spec, np.asarray(t) / spec.epsilon))
            assert np.float64(scalar).tobytes() == np.float64(ref).tobytes(), (spec, t)

    @pytest.mark.parametrize("kind", list(dither.DESIGNS))
    def test_builtin_kinds_match_reference_bitwise(self, kind):
        S = 4096
        for eps in (1e-2, 1e-4, 1e-6):
            grids = (np.arange(2 * S) * (eps / (2 * S)), np.linspace(0.0, eps, 4097))
            for kappa in range(1, 9):
                for spec in dither.make_design(kind, eps, kappa):
                    for ts in grids:
                        self.assert_bitwise(spec, ts)

    def test_custom_harmonics_match_reference_bitwise(self):
        for eps in (1e-2, 1e-4, 1e-6):
            ts = np.arange(1024) * (eps / 1024)
            for waveform in ("cos", "sin"):
                for harmonic in (1, 2, 3):
                    for kappa in (1, 2, 3):
                        spec = DitherSpec("custom-harmonic", 1, eps, kappa, amplitude=1.5,
                                          harmonic=harmonic, waveform=waveform,
                                          bracket_length=1 + harmonic)
                        self.assert_bitwise(spec, ts)

    def test_channel_counts_and_lengths(self):
        counts = {kind: len(d.channels) for kind, d in dither.DESIGNS.items()}
        assert counts == {"first12": 2, "classic": 2, "second122": 2, "third1222": 2,
                          "triple123": 3}
        assert {kind: d.length for kind, d in dither.DESIGNS.items()} == {
            "first12": 2, "classic": 2, "second122": 3, "third1222": 4, "triple123": 3}
        assert dither.DESIGNS["classic"] is dither.DESIGNS["first12"]

    def test_make_design_rejects_custom_and_unknown_kinds(self):
        for kind in ("custom-harmonic", "nope"):
            with pytest.raises(InvalidParameterError, match="not a built-in dither kind"):
                dither.make_design(kind, 1e-3)

    @pytest.mark.parametrize("kappa", [1, 2, 5])
    def test_fastest_harmonic_per_channel(self, kappa):
        # each channel reports its own fastest harmonic; a full design takes
        # the fastest of its channels
        own = {"first12": (1, 1), "classic": (1, 1), "second122": (2, 1),
               "third1222": (3, 1), "triple123": (4, 11, 15)}
        for kind, harmonics in own.items():
            design = dither.make_design(kind, 1e-3, kappa)
            assert tuple(d.fastest_harmonic for d in design) == tuple(
                kappa * h for h in harmonics), kind
            assert max(d.fastest_harmonic for d in design) == kappa * max(harmonics)


class TestEvalExamples:
    def test_third1222_channel1_sine_vanishes_at_zero(self):
        spec = DitherSpec("third1222", 1, 1e-4)
        assert eval_dither(spec, 0.0) == 0.0

    def test_classic_channel1_amplitude(self):
        spec = DitherSpec("classic", 1, 1.0)
        assert eval_dither(spec, 0.0) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-15)

    def test_first12_channel2_vanishes_at_zero(self):
        for kappa in (1, 3):
            for eps in (1.0, 1e-3):
                assert eval_dither(DitherSpec("first12", 2, eps, kappa), 0.0) == 0.0

    def test_classic_equals_first12(self):
        a = DitherSpec("classic", 1, 1e-2)
        b = DitherSpec("first12", 1, 1e-2)
        for t in np.linspace(0, 1e-2, 7):
            assert eval_dither(a, t) == eval_dither(b, t)


def every_spec(epsilon):
    specs = [s for kind in ALL_PAIR_KINDS + ["triple123"] for kappa in (1, 3)
             for s in dither.make_design(kind, epsilon, kappa)]
    specs += [DitherSpec("custom-harmonic", 1, epsilon, 2, amplitude=1.5, harmonic=h,
                         waveform=w, bracket_length=4)
              for w, h in (("cos", 0), ("cos", 3), ("sin", 3))]
    return specs


class TestArrayEval:
    @pytest.mark.parametrize("grid", ["rk4_table", "linspace"])
    def test_array_equals_scalar_bitwise(self, grid):
        eps = 1e-4
        if grid == "rk4_table":
            m = 2 * 512
            ts = np.arange(m) * (eps / m)
        else:
            ts = np.linspace(0.0, eps, 4097)
        for spec in every_spec(eps):
            values = eval_dither(spec, ts)
            scalar = np.array([eval_dither(spec, t) for t in ts.tolist()])
            assert values.shape == ts.shape
            assert values.tobytes() == scalar.tobytes(), spec

    def test_scalar_time_gives_float(self):
        for spec in every_spec(1e-3):
            assert type(eval_dither(spec, 2.5e-4)) is float


class TestInvariants:
    @pytest.mark.parametrize("kind", ALL_PAIR_KINDS + ["triple123"])
    def test_periodicity(self, kind):
        eps = 1e-3
        for spec in dither.make_design(kind, eps):
            amp = max(abs(eval_dither(spec, t)) for t in np.linspace(0, eps, 257))
            for t in np.linspace(0, eps, 17):
                assert abs(eval_dither(spec, t + eps) - eval_dither(spec, t)) <= 1e-12 * amp

    @pytest.mark.parametrize("kind", ALL_PAIR_KINDS + ["triple123"])
    def test_zero_mean(self, kind):
        for spec in dither.make_design(kind, 1e-3, kappa=2):
            amp = max(abs(eval_dither(spec, t)) for t in np.linspace(0, 1e-3, 257))
            assert abs(period_mean(spec)) <= 1e-8 * amp

    @pytest.mark.parametrize("kind", ALL_PAIR_KINDS + ["triple123"])
    def test_amplitude_scaling(self, kind):
        # sup |u| * eps^(1 - 1/N) must not depend on eps
        taus = np.linspace(0.0, 1.0, 2049)
        for ch in range(1, len(dither.DESIGNS[kind].channels) + 1):
            sups = []
            for eps in (1e-2, 1e-3, 1e-4):
                spec = DitherSpec(kind, ch, eps)
                sup = max(abs(eval_dither(spec, tau * eps)) for tau in taus)
                sups.append(sup * eps ** float(1 - 1 / spec.length))
            assert max(sups) - min(sups) <= 1e-10 * max(sups)

    def test_first12_quadrature_phase(self):
        # channel2(t) = channel1(t - eps/(4 kappa))
        eps, kappa = 1e-2, 3
        c1 = DitherSpec("first12", 1, eps, kappa)
        c2 = DitherSpec("first12", 2, eps, kappa)
        shift = eps / (4 * kappa)
        for t in np.linspace(0, eps, 23):
            assert eval_dither(c2, t) == pytest.approx(eval_dither(c1, t - shift), abs=1e-11)


class TestPeriodMean:
    def test_classic_mean_zero(self):
        assert abs(period_mean(DitherSpec("classic", 1, 1.0))) <= 1e-10

    def test_cos_harmonic_zero_is_the_constant_term(self):
        spec = DitherSpec("custom-harmonic", 1, 1.0, harmonic=0, bracket_length=3,
                          amplitude=2.5)
        assert spec.fastest_harmonic == 0
        assert np.all(eval_dither(spec, np.linspace(0.0, 1.0, 17)) == 2.5)
        assert period_mean(spec) == pytest.approx(2.5, rel=1e-15)

    def test_third1222_channel2_mean_zero(self):
        assert abs(period_mean(DitherSpec("third1222", 2, 1e-4))) <= 1e-10


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            DitherSpec("nope", 1, 1.0)

    def test_bad_channel(self):
        with pytest.raises(InvalidParameterError):
            DitherSpec("first12", 3, 1.0)

    def test_bad_epsilon(self):
        with pytest.raises(InvalidParameterError):
            DitherSpec("first12", 1, -1.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon(self, epsilon):
        with pytest.raises(InvalidParameterError, match="epsilon"):
            DitherSpec("first12", 1, epsilon)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude(self, amplitude):
        with pytest.raises(InvalidParameterError, match="amplitude"):
            DitherSpec("custom-harmonic", 1, 1.0, amplitude=amplitude, bracket_length=2)

    def test_bad_kappa(self):
        with pytest.raises(InvalidParameterError):
            DitherSpec("first12", 1, 1.0, kappa=0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa(self, kappa):
        with pytest.raises(InvalidParameterError, match="kappa"):
            DitherSpec("first12", 1, 1e-4, kappa=kappa)

    @pytest.mark.parametrize("waveform", ["cos", "sin"])
    @pytest.mark.parametrize("harmonic", [math.nan, math.inf, -math.inf])
    def test_non_finite_harmonic(self, waveform, harmonic):
        with pytest.raises(InvalidParameterError, match="harmonic"):
            DitherSpec("custom-harmonic", 1, 1e-4, harmonic=harmonic, waveform=waveform,
                       bracket_length=2)

    @pytest.mark.parametrize("kind", ALL_PAIR_KINDS + ["triple123"])
    @pytest.mark.parametrize("field", [{"amplitude": 5.0}, {"harmonic": 2}, {"waveform": "sin"},
                                       {"bracket_length": 3}])
    def test_builtin_kind_rejects_custom_fields(self, kind, field):
        with pytest.raises(InvalidParameterError, match=f"takes no {next(iter(field))}"):
            DitherSpec(kind, 1, 1.0, **field)

    def test_custom_needs_bracket_length(self):
        with pytest.raises(InvalidParameterError):
            DitherSpec("custom-harmonic", 1, 1.0)

    @pytest.mark.parametrize("waveform, harmonic", [("sin", 0), ("cos", -1), ("abscos", 1)])
    def test_custom_rejects_waveform_and_harmonic(self, waveform, harmonic):
        with pytest.raises(InvalidParameterError, match=f"{waveform}|harmonic"):
            DitherSpec("custom-harmonic", 1, 1.0, harmonic=harmonic, waveform=waveform,
                       bracket_length=2)


class TestResonances:
    def test_mixed_design_frequencies_clean(self):
        rep = dither.check_resonances([5], [1, 3])
        assert rep.ok and not rep.violations

    def test_equal_frequencies_resonate(self):
        rep = dither.check_resonances([1], [1])
        assert not rep.ok
        assert ((1, 1), (1, -1)) in rep.violations

    def test_double_frequency_resonates_at_order_three(self):
        rep = dither.check_resonances([2], [1])
        assert not rep.ok
        assert any(n == (1, -2) for _, n in rep.violations)

    def test_invalid_frequency(self):
        with pytest.raises(InvalidParameterError):
            dither.check_resonances([0], [1])
        with pytest.raises(InvalidParameterError):
            dither.check_resonances([], [1])
