"""Signatures, logarithm projection, excitation checks, endpoint prediction."""

import gc
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liees import chenfliess, costs, dither, lie, sim
from liees.chenfliess import (
    basis_labels,
    compute_signature,
    expand_bracket,
    log_signature,
    shuffle_residual,
    shuffles,
    tensor_exp,
    tensor_log,
    verify_excitation,
)
from liees.dither import DitherSpec, eval_dither, make_design
from liees.errors import InvalidParameterError
from quad_oracle import quad_signature

# samples per period of the path-length estimates
LENGTH_SAMPLES = 1 << 14


def reversed_words(sig):
    """The level list of sig with every word reversed (the path-ordered signature)."""
    n = sig.n_channels
    return [None] + [v.reshape((n,) * k).T.ravel() for k, v in enumerate(sig.levels[1:], start=1)]


def zero_dither(epsilon=1.0):
    return DitherSpec("custom-harmonic", 1, epsilon, amplitude=0.0,
                      harmonic=1, waveform="cos", bracket_length=2)


class TestBasis:
    def test_two_letter_labels(self):
        assert basis_labels(2, 1) == ((1,), (2,))
        assert basis_labels(2, 2) == ((1, 2),)
        assert set(basis_labels(2, 3)) == {(1, 2, 2), (1, 2, 1)}
        labels4 = basis_labels(2, 4)
        assert len(labels4) == 3 and (1, 2, 2, 2) in labels4

    def test_three_letter_labels(self):
        assert (1, 2, 3) in basis_labels(3, 3)
        assert len(basis_labels(3, 2)) == 3
        assert len(basis_labels(3, 3)) == 8

    def test_four_letter_labels_pinned(self):
        # the greedy sweep's picks, fixed so that a faster rank test cannot change them
        assert basis_labels(3, 4) == (
            (1, 2, 1, 3), (1, 2, 2, 2), (1, 2, 2, 3), (1, 2, 3, 2), (1, 2, 3, 3), (1, 3, 2, 2),
            (1, 3, 2, 3), (1, 3, 3, 2), (1, 3, 3, 3), (2, 3, 3, 3), (1, 2, 1, 1), (1, 2, 1, 2),
            (1, 2, 3, 1), (1, 3, 1, 1), (1, 3, 1, 2), (1, 3, 1, 3), (2, 3, 2, 2), (2, 3, 2, 3),
        )
        assert basis_labels(4, 4) == (
            (1, 2, 1, 3), (1, 2, 1, 4), (1, 2, 2, 2), (1, 2, 2, 3), (1, 2, 2, 4), (1, 2, 3, 2),
            (1, 2, 3, 3), (1, 2, 3, 4), (1, 2, 4, 2), (1, 2, 4, 3), (1, 2, 4, 4), (1, 3, 1, 4),
            (1, 3, 2, 2), (1, 3, 2, 3), (1, 3, 2, 4), (1, 3, 3, 2), (1, 3, 3, 3), (1, 3, 3, 4),
            (1, 3, 4, 2), (1, 3, 4, 3), (1, 3, 4, 4), (1, 4, 2, 2), (1, 4, 2, 3), (1, 4, 2, 4),
            (1, 4, 3, 2), (1, 4, 3, 3), (1, 4, 3, 4), (1, 4, 4, 2), (1, 4, 4, 3), (1, 4, 4, 4),
            (2, 3, 2, 4), (2, 3, 3, 3), (2, 3, 3, 4), (2, 3, 4, 3), (2, 3, 4, 4), (2, 4, 3, 3),
            (2, 4, 3, 4), (2, 4, 4, 3), (2, 4, 4, 4), (3, 4, 4, 4), (1, 2, 1, 1), (1, 2, 1, 2),
            (1, 2, 3, 1), (1, 2, 4, 1), (1, 3, 1, 1), (1, 3, 1, 2), (1, 3, 1, 3), (1, 3, 4, 1),
            (1, 4, 1, 1), (1, 4, 1, 2), (1, 4, 1, 3), (1, 4, 1, 4), (2, 3, 2, 2), (2, 3, 2, 3),
            (2, 3, 4, 2), (2, 4, 2, 2), (2, 4, 2, 3), (2, 4, 2, 4), (3, 4, 3, 3), (3, 4, 3, 4),
        )

    @pytest.mark.parametrize("n, dims", [(2, (2, 1, 2, 3, 6)), (3, (3, 3, 8, 18, 48)),
                                         (4, (4, 6, 20, 60))])
    def test_dimension_is_witts_formula(self, n, dims):
        # the dimensions of the free Lie algebra's homogeneous components
        assert tuple(len(basis_labels(n, ell)) for ell in range(1, len(dims) + 1)) == dims

    def test_expand_bracket_antisymmetry(self):
        # [[e1,e2],e2] = e122 - 2 e212 + e221
        assert expand_bracket((1, 2, 2)) == {(1, 2, 2): 1, (2, 1, 2): -2, (2, 2, 1): 1}

    def test_shuffle_enumeration(self):
        out = list(shuffles((1,), (2, 3)))
        assert sorted(out) == [(1, 2, 3), (2, 1, 3), (2, 3, 1)]


class TestSignature:
    def test_classic_pair_closed_form(self):
        # closed-form integration of the cos/sin pair gives -eps and +eps
        eps = 1.0
        sig = compute_signature(make_design("classic", eps), depth=2)
        assert sig.entry((1, 2)) == pytest.approx(-eps, rel=1e-6)
        assert sig.entry((2, 1)) == pytest.approx(+eps, rel=1e-6)

    def test_zero_mean_word(self):
        sig = compute_signature(make_design("classic", 1.0), depth=1)
        assert abs(sig.entry((1,))) <= 1e-10
        assert abs(sig.entry((2,))) <= 1e-10

    def test_repeated_letter_word(self):
        # I_(1,1) = (int u1)^2 / 2 = 0 for a zero-mean channel
        sig = compute_signature(make_design("classic", 1.0), depth=2)
        assert abs(sig.entry((1, 1))) <= 1e-10

    @pytest.mark.parametrize("kind", ["classic", "second122", "third1222"])
    def test_shuffle_identity(self, kind):
        sig = compute_signature(make_design(kind, 1.0), depth=4)
        assert shuffle_residual(sig) <= 1e-6

    # The shuffle identity holds for the signature of any path (Reizenstein
    # and Graham, "The iisignature library", ACM TOMS 46, 2020).  Its
    # tolerance was fixed before measuring: the pair-kind bound above, about
    # ten times the (2 pi 3 / 16384)^2 / 12 ~ 1.1e-7 trapezoid error per
    # entry at the fastest harmonic drawn.  The first runs measured it with
    # shuffle_residual, which scales by the largest entry, and failed where
    # the truncated signature vanishes or nearly does: two equal cos channels
    # (every entry roundoff) read 0.14, and cos with a rectified cos (largest
    # entry 2e-3 of L^3 / 3!) read 1.3e-6, falling as 1/steps^2.  Each pair of
    # words is therefore held to the tolerance times L^k / k!, the bound on
    # level k of the signature of a path of length L.  Measured worst over
    # 300 random designs: 4.1e-9 of L^k / k!.  The constant channel (cos at
    # harmonic 0) has nonzero mean, so its level-one entries enter every
    # product.
    @settings(max_examples=25, deadline=None)
    @given(channels=st.lists(st.tuples(st.sampled_from([("cos", 0), ("cos", 1), ("cos", 2),
                                                        ("cos", 3), ("sin", 1), ("sin", 2),
                                                        ("sin", 3)]),
                                       st.floats(0.1, 10.0), st.integers(2, 4)),
                             min_size=2, max_size=2),
           eps=st.floats(1e-4, 1.0))
    @example(channels=[(("cos", 1), 1.0, 2), (("cos", 1), 1.0, 2)], eps=1.0)
    @example(channels=[(("cos", 1), 0.125, 2), (("cos", 0), 2.0, 2)], eps=1.0)
    def test_shuffle_identity_on_random_designs(self, channels, eps):
        specs = [DitherSpec("custom-harmonic", 1, eps, amplitude=amp, harmonic=harmonic,
                            waveform=waveform, bracket_length=length)
                 for (waveform, harmonic), amp, length in channels]
        sig = compute_signature(specs, depth=4)
        ts = np.linspace(0.0, eps, LENGTH_SAMPLES + 1)
        length = sum(np.abs(eval_dither(d, ts)).mean() * eps for d in specs)
        words = [w for w, _ in sig.items() if len(w) <= 3]
        for w1, w2 in product(words, words):
            k = len(w1) + len(w2)
            if k <= 4:
                lhs = sig.entry(w1) * sig.entry(w2)
                rhs = sum(sig.entry(w) for w in shuffles(w1, w2))
                assert abs(lhs - rhs) <= 1e-6 * length ** k / math.factorial(k), (w1, w2)

    # Chen's identity (Reizenstein and Graham, "The iisignature library", ACM
    # TOMS 46, 2020): the signature of a path run twice is the square of its
    # signature.  The relative tolerance was fixed before measuring, at 40
    # times the (2 pi / 512)^2 / 12 ~ 1.3e-5 trapezoid error per level at 512
    # steps per period of the fastest harmonic.  The first run showed that a
    # level whose entries all vanish (level 1 of a zero-mean design) differs
    # by roundoff only, so each level also gets an absolute floor of CHEN_ATOL
    # times L^k / k!, the bound on level k of the signature of a path of
    # length L.  Measured worst: 1.4e-4 of the tolerance.
    CHEN_RTOL = 5e-4
    CHEN_ATOL = 1e-12

    @staticmethod
    def chen_design(kind, eps, kappa):
        """A two-channel design whose signals depend on t only through
        kappa t / eps: every pair kind scales its amplitude as kappa^(1 - 1/N).
        The biased design has a constant channel (cos at harmonic 0) of
        nonzero mean, so that every level of the square carries products of
        lower levels."""
        if kind != "biased":
            return make_design(kind, eps, kappa)
        amp = math.sqrt(kappa)
        return (DitherSpec("custom-harmonic", 1, eps, kappa, amplitude=amp, harmonic=0,
                           bracket_length=2),
                DitherSpec("custom-harmonic", 1, eps, kappa, amplitude=amp, harmonic=2,
                           waveform="sin", bracket_length=2))

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(["first12", "classic", "second122", "third1222", "biased"]),
           kappa=st.integers(1, 3), eps=st.floats(1e-4, 1.0))
    @example(kind="biased", kappa=2, eps=1e-2)
    def test_chen_identity_over_two_periods(self, kind, kappa, eps):
        # the design at period 2 eps with every frequency doubled (kappa ->
        # 2 kappa) is the eps design run for two periods
        depth = chenfliess.MAX_DEPTH
        one, two = self.chen_design(kind, eps, kappa), self.chen_design(kind, 2 * eps, 2 * kappa)
        steps = 512 * max(d.fastest_harmonic for d in one)
        S = compute_signature(one, depth).levels
        S2 = compute_signature(two, depth).levels
        SS = chenfliess._tensor_mul(S, S, depth)
        ts = np.linspace(0.0, 2 * eps, 2 * steps + 1)
        length = sum(np.abs(eval_dither(d, ts)).mean() * 2 * eps for d in two)
        for k in range(1, depth + 1):
            chen = 2.0 * S[k] + (SS[k] if SS[k] is not None else 0.0)
            tol = (self.CHEN_RTOL * np.max(np.abs(S2[k]))
                   + self.CHEN_ATOL * length ** k / math.factorial(k))
            assert np.max(np.abs(S2[k] - chen)) <= tol, k

    def test_frees_its_arrays_without_the_collector(self):
        # the suffix arrays (about 16 MB for a triple at 16k steps) must go
        # when the call returns, not at some later garbage collection
        gc.collect()
        gc.disable()
        try:
            compute_signature(make_design("triple123", 1.0), depth=4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_mismatched_periods(self):
        d1 = DitherSpec("classic", 1, 1.0)
        d2 = DitherSpec("classic", 2, 0.5)
        with pytest.raises(InvalidParameterError):
            compute_signature([d1, d2], depth=2)


class TestLogSignature:
    def test_classic_first_order_coefficient(self):
        sig = compute_signature(make_design("classic", 1.0), depth=2)
        co = log_signature(sig)
        assert co.coefficient((1, 2)) == pytest.approx(1.0, abs=1e-6)
        assert abs(co.coefficient((1,))) <= 1e-6
        assert abs(co.coefficient((2,))) <= 1e-6

    def test_third1222_isolates_length_four_bracket(self):
        sig = compute_signature(make_design("third1222", 1e-4), depth=4)
        co = log_signature(sig)
        c4 = co.coefficient((1, 2, 2, 2))
        # the built-in amplitude normalization makes the target coefficient exactly 1
        assert c4 == pytest.approx(1.0, abs=1e-5)
        for w, v in co.coefficients.items():
            if w != (1, 2, 2, 2):
                assert abs(v) <= 1e-3 * abs(c4), (w, v)

    def test_second122_isolates_length_three_bracket(self):
        sig = compute_signature(make_design("second122", 1e-4), depth=4)
        co = log_signature(sig)
        c3 = co.coefficient((1, 2, 2))
        assert c3 == pytest.approx(1.0, abs=1e-5)
        for w, v in co.coefficients.items():
            if w != (1, 2, 2):
                assert abs(v) <= 1e-3 * abs(c3), (w, v)

    def test_zero_dither_all_zero(self):
        sig = compute_signature([zero_dither()], depth=3)
        co = log_signature(sig)
        assert all(v == 0.0 for v in co.coefficients.values())

    def test_length_one_coefficients_are_period_means(self):
        # a deliberately biased channel (cos at harmonic 0, a constant) beside
        # a zero-mean one
        eps = 1e-2
        biased = DitherSpec("custom-harmonic", 1, eps, amplitude=0.75, harmonic=0,
                            bracket_length=2)
        zero_mean = DitherSpec("custom-harmonic", 1, eps, amplitude=2.0, waveform="sin",
                               bracket_length=2)
        sig = compute_signature([biased, zero_mean], depth=1)
        co = log_signature(sig)
        assert co.coefficient((1,)) == pytest.approx(0.75 * eps ** -0.5, rel=1e-12)
        assert abs(co.coefficient((2,))) <= 1e-12

    def test_log_exp_round_trip(self):
        # the biased design's nonzero level one puts every power of X up to
        # the fourth into the series; third1222's levels one and two nearly
        # vanish
        for kind in ("third1222", "biased"):
            sig = compute_signature(TestSignature.chen_design(kind, 1.0, 1), depth=4)
            std = reversed_words(sig)
            back = tensor_exp(tensor_log(std, 4), 4)
            scale = max(float(np.abs(v).max()) for v in std[1:])
            for k in range(1, 5):
                assert np.abs(back[k] - std[k]).max() <= 1e-9 * max(scale, 1.0), (kind, k)

    def test_projection_residual_small(self):
        sig = compute_signature(make_design("second122", 1.0), depth=4)
        co = log_signature(sig)
        assert co.projection_residual <= 1e-6


class TestVerifyExcitation:
    def test_classic_first_order_target(self):
        rep = verify_excitation(make_design("classic", 1e-6), (1, 2), tol=1e-3)
        assert rep.ok
        assert rep.target_coeff == pytest.approx(1.0, abs=1e-4)

    def test_classic_swapped_target_sign(self):
        rep = verify_excitation(make_design("classic", 1e-6), (2, 1), tol=1e-3)
        assert rep.ok
        assert rep.target_coeff == pytest.approx(-1.0, abs=1e-4)

    def test_third1222_wrong_target_rejected(self):
        rep = verify_excitation(make_design("third1222", 1e-4), (1, 2), tol=1e-3)
        assert not rep.ok

    def test_second122_target(self):
        rep = verify_excitation(make_design("second122", 1e-4), (1, 2, 2), tol=1e-3)
        assert rep.ok

    def test_triple123_target(self):
        rep = verify_excitation(make_design("triple123", 1e-4), (1, 2, 3), tol=1e-3)
        assert rep.ok
        assert rep.target_coeff == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    @pytest.mark.parametrize("kind, target", [
        ("first12", (1, 2)), ("classic", (1, 2)), ("second122", (1, 2, 2)),
        ("third1222", (1, 2, 2, 2)), ("triple123", (1, 2, 3))])
    def test_target_coefficient_is_one_at_every_kappa(self, kind, target, kappa):
        dithers = make_design(kind, 1e-4, kappa)
        rep = verify_excitation(dithers, target, tol=1e-3)
        assert rep.target_coeff == pytest.approx(1.0, abs=1e-4)

    def test_non_basis_target_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_excitation(make_design("classic", 1e-4), (1, 1), tol=1e-3)


class TestEndpointPrediction:
    def test_classic_gradient_endpoint(self):
        # x0 - eps J'(x0) with J = (x-1)^2: prediction 2 eps at x0 = 0
        eps = 1e-3
        cost = costs.make_power_cost(1.0, 1.0, 2)
        system = sim.build_two_input(cost, 2, 1, eps, 1.0, kind="classic")
        pred = chenfliess.endpoint_prediction(system, 0.0, order=2)
        assert pred == pytest.approx(2 * eps, rel=1e-4)

    def test_prediction_matches_integration(self):
        eps = 1e-3
        cost = costs.make_power_cost(1.0, 1.0, 2)
        system = sim.build_two_input(cost, 2, 1, eps, 1.0, kind="classic")
        pred = chenfliess.endpoint_prediction(system, 0.0, order=2)
        cfg = sim.IntegratorConfig(total_time=eps, steps_per_period=8192, decimation=8192)
        got = sim.integrate(system, 0.0, cfg).states[-1]
        # agreement up to the Chen remainder O(eps^{3/2})
        assert abs(pred - got) <= 10 * eps ** 1.5

    def test_third_order_design_on_quadratic_is_stationary(self):
        eps = 1e-3
        cost = costs.make_power_cost(1.0, 0.0, 2)
        system = sim.build_two_input(cost, 4, 1, eps, 1.0)
        pred = chenfliess.endpoint_prediction(system, 0.5, order=4)
        assert pred == pytest.approx(0.5, abs=1e-6)

    def test_zero_dithers_fixed_point(self):
        cost = costs.make_power_cost(1.0, 0.0, 2)
        ch = ((lie.linear_shape(1.0), zero_dither()),
              (lie.const_shape(1.0), zero_dither()))
        system = sim.ESSystem(cost=cost, channels=ch)
        pred = chenfliess.endpoint_prediction(system, 0.3, order=3)
        assert pred == 0.3


# The dict-of-words tensor algebra that the level arrays replaced, kept as the
# oracle: each coefficient accumulates word pair by word pair.

def dict_tensor_mul(A: dict, B: dict, depth: int) -> dict:
    out: dict = {}
    for wa, ca in A.items():
        for wb, cb in B.items():
            w = wa + wb
            if len(w) <= depth:
                out[w] = out.get(w, 0.0) + ca * cb
    return out


def dict_tensor_log(entries: dict, depth: int) -> dict:
    out: dict = {}
    power = dict(entries)
    sign = 1.0
    for k in range(1, depth + 1):
        for w, c in power.items():
            out[w] = out.get(w, 0.0) + sign * c / k
        if k < depth:
            power = dict_tensor_mul(power, entries, depth)
        sign = -sign
    return out


def dict_tensor_exp(entries: dict, depth: int) -> dict:
    out: dict = {}
    power = dict(entries)
    fact = 1.0
    for k in range(1, depth + 1):
        fact *= k
        for w, c in power.items():
            out[w] = out.get(w, 0.0) + c / fact
        if k < depth:
            power = dict_tensor_mul(power, entries, depth)
    return out


def levels(n: int, depth: int, entries: dict, lowest: int = 1) -> list:
    """The level list of a dict holding every word of length lowest..depth."""
    return [None] * lowest + [np.array([entries[w] for w in product(range(1, n + 1), repeat=k)])
                              for k in range(lowest, depth + 1)]


def level_bytes(L: list) -> list:
    return [None if v is None else v.tobytes() for v in L]


# mixed signs, magnitudes 1e-8 to 1e3, and zeros of both signs
COEFFICIENTS = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1.0, -1.0)),
                         st.one_of(st.just(0.0), st.floats(-8, 3).map(lambda e: 10.0 ** e)))


def seeded_coefficients(size):
    """The same ranges with full mantissas, so that sums in another order round
    differently."""
    def draw(seed):
        rng = np.random.default_rng(seed)
        values = rng.choice((1.0, -1.0), size) * 10.0 ** rng.uniform(-8, 3, size)
        values[rng.random(size) < 0.1] *= 0.0
        return values.tolist()
    return st.integers(0, 2**32 - 1).map(draw)


def words_up_to(n, depth):
    """The words of length 1..depth over the letters 1..n, shortest first, each
    level in product order."""
    return [w for k in range(1, depth + 1) for w in product(range(1, n + 1), repeat=k)]


@st.composite
def truncated_tensors(draw):
    """(n, depth, X) with every word of X present, in log_signature's order:
    the words of compute_signature, shortest first, each reversed."""
    n, depth = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    words = words_up_to(n, depth)
    size = len(words)
    values = draw(st.one_of(st.lists(COEFFICIENTS, min_size=size, max_size=size),
                            seeded_coefficients(size)))
    return n, depth, {tuple(reversed(w)): v for w, v in zip(words, values)}


class TestTensorLevels:
    @settings(max_examples=40, deadline=None)
    @given(truncated_tensors())
    def test_levels_equal_the_dict_oracle_bitwise(self, tensor):
        n, depth, X = tensor
        XL = levels(n, depth, X)
        assert (level_bytes(chenfliess._tensor_mul(XL, XL, depth))
                == level_bytes(levels(n, depth, dict_tensor_mul(X, X, depth), lowest=2)))
        for new, oracle in ((tensor_log, dict_tensor_log), (tensor_exp, dict_tensor_exp)):
            want = oracle(X, depth)
            assert level_bytes(new(XL, depth)) == level_bytes(levels(n, depth, want))

    @settings(max_examples=30, deadline=None)
    @given(truncated_tensors())
    def test_exp_of_twice_the_log_is_the_square(self, tensor):
        # exp(2 log(1 + X)) - 1 = (1 + X)^2 - 1 = 2X + X (x) X; level k is a sum
        # of products of k entries, so its scale is max(1, max |X|)^k
        n, depth, X = tensor
        XL = levels(n, depth, X)
        lhs = tensor_exp([None] + [2.0 * v for v in tensor_log(XL, depth)[1:]], depth)
        square = chenfliess._tensor_mul(XL, XL, depth)
        scale = max(1.0, max(float(np.abs(v).max()) for v in XL[1:]))
        for k in range(1, depth + 1):
            rhs = 2.0 * XL[k] + (0.0 if square[k] is None else square[k])
            assert float(np.abs(lhs[k] - rhs).max()) <= 1e-12 * scale ** k, k


# The per-word quadrature that the level loop of the trapezoid chain
# (quad_oracle) replaced, kept as the oracle of that loop: a dict from each
# word to its running integral, built from the running integral of the word
# without its first letter.

def dict_signature(dithers, depth: int, steps: int) -> dict:
    eps = dithers[0].epsilon
    dt = eps / steps
    us = [eval_dither(d, np.linspace(0.0, eps, steps + 1)) for d in dithers]
    suffix = {(): np.ones(steps + 1)}
    entries = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for w in words_up_to(len(dithers), depth):
            y = us[w[0] - 1] * suffix[w[1:]]
            val = np.empty_like(y)
            val[0] = 0.0
            np.cumsum((y[1:] + y[:-1]) * (0.5 * dt), out=val[1:])
            entries[w] = float(val[-1])
            suffix[w] = val
    return entries


@st.composite
def channel_lists(draw, max_size=4):
    """1-max_size channels of one period: channels of the built-in designs and
    custom cos/sin harmonics (cos at harmonic 0 is a constant), mixed."""
    eps = draw(st.sampled_from([1e-4, 0.3, 1.0]))
    builtin = st.builds(lambda kind, ch, kappa: DitherSpec(kind, ch, eps, kappa),
                        st.sampled_from(["first12", "second122", "third1222"]),
                        st.integers(1, 2), st.integers(1, 3))
    triple = st.builds(lambda ch, kappa: DitherSpec("triple123", ch, eps, kappa),
                       st.integers(1, 3), st.integers(1, 3))
    custom = st.builds(lambda wave, h, amp, kappa: DitherSpec(
        "custom-harmonic", 1, eps, kappa, amplitude=amp, harmonic=h + (wave == "sin"),
        waveform=wave, bracket_length=2), st.sampled_from(["cos", "sin"]), st.integers(0, 3),
        st.floats(-3.0, 3.0), st.integers(1, 3))
    return draw(st.lists(st.one_of(builtin, triple, custom), min_size=1, max_size=max_size))


class TestSignatureLevels:
    @settings(max_examples=30, deadline=None)
    @given(dithers=channel_lists(), depth=st.integers(1, 4))
    @example(dithers=list(make_design("triple123", 1e-4)), depth=4)
    @example(dithers=list(make_design("first12", 1e-4, 5) + make_design("third1222", 1e-4)),
             depth=4)
    def test_levels_equal_the_per_word_oracle_bitwise(self, dithers, depth):
        # the level loop of the quadrature oracle, and the entry and items of
        # a Signature holding its levels
        steps = 100 * max(d.fastest_harmonic for d in dithers) + 64
        n = len(dithers)
        sig = chenfliess.Signature(depth, n, dithers[0].epsilon,
                                   levels=quad_signature(dithers, depth, steps))
        want = dict_signature(dithers, depth, steps)
        assert level_bytes(sig.levels) == level_bytes(levels(n, depth, want))
        assert list(sig.items()) == list(want.items())
        assert all(sig.entry(w) == v for w, v in want.items())
        for bad in [(), (0,), (n + 1,), (1,) * (depth + 1)]:
            with pytest.raises(KeyError):
                sig.entry(bad)


# The closed form of compute_signature: exact values, and the trapezoid chain
# of quad_oracle, whose error falls as 1/steps^2.

TARGETS = [("first12", (1, 2)), ("classic", (1, 2)), ("second122", (1, 2, 2)),
           ("third1222", (1, 2, 2, 2)), ("triple123", (1, 2, 3))]


def oracle_tolerance(dithers, k: int, steps: int) -> float:
    """The bound on level k of |closed form - trapezoid chain| on steps
    intervals, fixed before the first comparison.  With S = eps * sum of the
    channels' sup norms (each at most |factor| times its amplitudes) and H the
    fastest harmonic, each of the k nested trapezoid integrals errs by at most
    about (2 pi H / steps)^2 / 4 * S^k / (k - 1)!, Bernstein's inequality
    bounding each derivative of a channel by 2 pi H / eps times its sup norm;
    H is raised to the depth for channels with no harmonic, whose running
    integrals are polynomials.  The tolerance is four times the sum of the k
    errors."""
    eps = dithers[0].epsilon
    S = eps * sum(abs(factor) * sum(abs(a) for _, _, a in terms)
                  for factor, terms in (d.series for d in dithers))
    H = max(max(d.fastest_harmonic for d in dithers), chenfliess.MAX_DEPTH)
    return k * (2 * math.pi * H / steps) ** 2 * S ** k / math.factorial(k - 1)


@st.composite
def oracle_designs(draw):
    """A DESIGNS row at kappa 1-3, 1-3 custom-harmonic channels of bracket
    lengths 2-4 (cos at harmonic 0 included), or a mix of channel_lists."""
    eps = draw(st.sampled_from([1e-4, 1e-2, 1.0]))
    row = st.builds(lambda kind, kappa: list(make_design(kind, eps, kappa)),
                    st.sampled_from(sorted(dither.DESIGNS)), st.integers(1, 3))
    custom = st.lists(st.builds(lambda wave, h, amp, length, kappa: DitherSpec(
        "custom-harmonic", 1, eps, kappa, amplitude=amp, harmonic=h + (wave == "sin"),
        waveform=wave, bracket_length=length), st.sampled_from(["cos", "sin"]),
        st.integers(0, 5), st.floats(-3.0, 3.0), st.integers(2, 4), st.integers(1, 3)),
        min_size=1, max_size=3)
    return draw(st.one_of(row, custom, channel_lists(max_size=3)))


class TestClosedForm:
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    @pytest.mark.parametrize("kind, target", TARGETS)
    def test_target_coefficient_is_exactly_one(self, kind, target, kappa):
        rep = verify_excitation(make_design(kind, 1e-4, kappa), target)
        assert abs(rep.target_coeff - 1.0) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_first12_strobe_offset_coefficient(self, eps):
        # the one off-target coefficient of the first-order design
        co = log_signature(compute_signature(make_design("first12", eps)))
        want = -math.sqrt(eps / math.pi)
        assert abs(co.coefficient((1, 2, 2)) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("eps", [1.0, 1e-3])
    def test_classic_pair_is_exact(self, eps):
        sig = compute_signature(make_design("classic", eps), depth=2)
        assert abs(sig.entry((1, 2)) + eps) <= 1e-12 * eps
        assert abs(sig.entry((2, 1)) - eps) <= 1e-12 * eps

    def test_shuffle_residual_of_equal_cos_channels(self):
        # every entry of this signature is roundoff or a product of the two
        # channels' equal integrals; the trapezoid chain read 0.142 at 16384 steps
        spec = DitherSpec("custom-harmonic", 1, 1.0, amplitude=1.0, harmonic=1,
                          bracket_length=2)
        assert shuffle_residual(compute_signature([spec, spec], depth=4)) <= 1e-12

    def test_harmonics_count_in_units_of_their_divisor(self):
        # a kappa of 10^12 shifts by whole units of 10^12 harmonics: the band
        # stays that of kappa 1
        rep = verify_excitation(make_design("first12", 1e-4, 10 ** 12), (1, 2))
        assert abs(rep.target_coeff - 1.0) <= 1e-12

    def test_unsizable_band_is_rejected(self):
        coprime = [DitherSpec("custom-harmonic", 1, 1.0, harmonic=h, bracket_length=2)
                   for h in (10 ** 20, 10 ** 20 + 1)]
        with pytest.raises(InvalidParameterError, match="more than an array of doubles"):
            compute_signature(coprime)
        with pytest.raises(InvalidParameterError, match="too large for a float"):
            compute_signature(make_design("first12", 1e-4, 10 ** 400))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dithers=oracle_designs(), depth=st.integers(1, 4))
    @example(dithers=list(make_design("triple123", 1e-2, 3)), depth=4)
    @example(dithers=[DitherSpec("custom-harmonic", 1, 1.0, amplitude=0.5, harmonic=0,
                                 bracket_length=3),
                      DitherSpec("custom-harmonic", 1, 1.0, amplitude=2.0, harmonic=2,
                                 waveform="sin", bracket_length=4)], depth=4)
    def test_levels_match_the_trapezoid_chain(self, dithers, depth):
        steps = 1 << 16
        exact = compute_signature(dithers, depth).levels
        quad = quad_signature(dithers, depth, steps)
        for k in range(1, depth + 1):
            err = float(np.abs(exact[k] - quad[k]).max())
            assert err <= oracle_tolerance(dithers, k, steps), (k, err)

    def test_triple123_at_the_reference_resolution(self):
        # the quadrature's agreement at 2^18 steps, 5e-11..6e-8 of the
        # largest entry on the designs, is held to 1e-6
        dithers = make_design("triple123", 1e-4)
        exact = compute_signature(dithers).levels
        quad = quad_signature(dithers, 4, 1 << 18)
        scale = max(float(np.abs(v).max()) for v in quad[1:])
        for k in range(1, 5):
            assert float(np.abs(exact[k] - quad[k]).max()) <= 1e-6 * scale, k
