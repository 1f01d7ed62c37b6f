"""The compiled library: the RK4 kernel against sim._rk4, the CSV codec
against Python's, and the loader."""

import decimal
import importlib.resources
import locale
import math
import os
import shutil
import subprocess
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liees import _kernel, chenfliess, cli, costs, sim
from liees.dither import make_design
from liees.errors import DivergenceError, InvalidParameterError, NumericFailureError
from liees.sim import IntegratorConfig, build_two_input

QUARTIC = costs.make_power_cost(1.0, 1.0, 4)

needs_kernel = pytest.mark.skipif(_kernel.load() is None,
                                  reason="the compiled kernel cannot be built here")


@pytest.fixture
def fresh_loader():
    """Clear the loader's memo before and after the test."""
    _kernel.load.cache_clear()
    yield
    _kernel.load.cache_clear()


def outcome(integrator, *args):
    """States and cost values as bytes, or the failure as (type, message,
    time, state), the floats as hex so that NaNs compare equal."""
    try:
        traj = integrator(*args)
    except (DivergenceError, NumericFailureError) as err:
        where = [getattr(err, a, None) for a in ("last_time", "last_x")]
        return (type(err).__name__, str(err),
                *[v.hex() if isinstance(v, float) else v for v in where]), None
    return ("ok", traj.states.tobytes(), traj.cost_values.tobytes()), traj.meta["kernel"]


def both_paths(integrator, *args):
    """The outcomes of integrator(*args) on the compiled and the Python path."""
    compiled, path_c = outcome(integrator, *args)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        python, path_py = outcome(integrator, *args)
    assert path_py in ("python", None)
    assert path_c in ("c", None)
    return compiled, python


@pytest.fixture(params=["liees_rk4", "liees_rk4_split"])
def rk4_build(request, monkeypatch):
    """Run the kernel through one build: liees_rk4, which runs the build the
    library chose at load, or the portable build with Dekker's split, which
    runs on any CPU."""
    lib = _kernel.load()
    monkeypatch.setattr(lib, "rk4", _kernel.rk4_entry(getattr(lib.cdll, request.param)))


def cpu_flags():
    """The feature flags /proc/cpuinfo lists for an x86 CPU, or None."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return line.split(":", 1)[1].split()
    except OSError:
        pass
    return None


@needs_kernel
def test_loader_chooses_the_fma_build_exactly_when_the_cpu_has_fma():
    flags = cpu_flags()
    if flags is None:
        pytest.skip("no x86 feature flags in /proc/cpuinfo")
    assert bool(_kernel.load().cdll.liees_rk4_uses_fma()) == ("fma" in flags)


def fig1_we():
    ref = importlib.resources.files("liees") / "configs" / "fig1_we.json"
    return cli.build_from_config(cli.load_config(str(ref)))


@needs_kernel
@pytest.mark.parametrize("eps, x0, kind", [
    (1e-3, -2.0, "state exceeded 1e+12"),
    (1e-4, 1e80, "state overflow at t=0"),
    (1e-2, 0.0, "state overflow"),
    (1e-3, 3.0, "state overflow"),
])
def test_divergence_matches_python(eps, x0, kind):
    system = build_two_input(QUARTIC, 4, 1, eps, 1.0)
    config = IntegratorConfig(total_time=0.5, steps_per_period=512, decimation=512)
    compiled, python = both_paths(sim.integrate, system, x0, config)
    assert compiled[0] == "DivergenceError" and kind in compiled[1]
    assert compiled == python
    assert np.isfinite(float.fromhex(compiled[3]))


def test_python_path_sets_last_x(monkeypatch):
    monkeypatch.setattr(_kernel, "load", lambda: None)
    system = build_two_input(QUARTIC, 4, 1, 1e-4, 1.0)
    config = IntegratorConfig(total_time=1e-3, steps_per_period=512, decimation=512)
    with pytest.raises(DivergenceError) as err:
        sim.integrate(system, 1e80, config)
    assert (err.value.last_time, err.value.last_x) == (0.0, 1e80)


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(design=st.sampled_from([(2, None), (3, None), (4, None), (2, "classic")]),
       kappa=st.integers(1, 3),
       eps=st.floats(1e-4, 1e-2),
       x0=st.floats(-3.0, 3.0),
       dec=st.sampled_from([1, 16, 96, 384]),
       periods=st.integers(1, 12),
       m=st.integers(2, 6),
       alpha=st.floats(0.05, 4.0),
       xstar=st.floats(-2.0, 2.0))
def test_kernel_equals_python_stepper(design, kappa, eps, x0, dec, periods, m, alpha, xstar):
    N, kind = design
    system = build_two_input(costs.make_power_cost(alpha, xstar, m), N, kappa, eps, 1.0,
                             kind=kind)
    config = IntegratorConfig(total_time=periods * eps, steps_per_period=384, decimation=dec)
    compiled, python = both_paths(sim.integrate, system, x0, config)
    assert compiled == python


@needs_kernel
@pytest.mark.parametrize("dec", [512, 128, 1])
def test_fig1_we_states_and_costs_match_python(dec, rk4_build):
    config = IntegratorConfig(total_time=0.02, steps_per_period=512, decimation=dec)
    compiled, python = both_paths(sim.integrate, fig1_we(), 0.0, config)
    assert compiled[0] == "ok"
    assert compiled == python


GAINS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0)


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 6),
       terms=st.lists(st.tuples(st.integers(1, 3), GAINS), min_size=1, max_size=2),
       alpha=st.floats(0.05, 4.0),
       xstar=st.floats(-2.0, 2.0),
       offset=st.sampled_from([0.0]) | st.floats(-3.0, 3.0),
       total_time=st.floats(0.01, 2.0),
       steps=st.integers(1, 300))
@example(m=2, terms=[(3, 1.0)], alpha=1.0, xstar=1.0, offset=0.5, total_time=1.0, steps=10)
@example(m=3, terms=[(3, 1.0), (1, 0.5)], alpha=1.0, xstar=1.0, offset=-0.5,
         total_time=1.0, steps=10)
@example(m=4, terms=[(1, 0.0), (3, 2.0)], alpha=1.0, xstar=1.0, offset=0.0,
         total_time=1.0, steps=10)
# the parity of p, taken in C, on a negative base: p = 3 (odd) and p = 2 (even)
@example(m=4, terms=[(1, 1.0)], alpha=1.0, xstar=1.0, offset=-0.5, total_time=1.0, steps=10)
@example(m=4, terms=[(2, 1.0)], alpha=1.0, xstar=1.0, offset=-0.5, total_time=1.0, steps=10)
def test_lbs_kernel_equals_python_stepper(m, terms, alpha, xstar, offset, total_time, steps):
    # orders above m give a zero field, order m a constant one; x0 == x* is offset 0
    cost = costs.make_power_cost(alpha, xstar, m)
    compiled, python = both_paths(sim.integrate_lbs, cost, terms, xstar + offset,
                                  total_time, steps)
    assert compiled == python


@needs_kernel
def test_integer_parameter_cost_integrates_like_the_float_one():
    # make_power_cost holds its parameters as doubles: the same tags, the same bits
    config = IntegratorConfig(total_time=0.02, steps_per_period=256, decimation=16)
    runs = {}
    for params in ((1, 1, 4), (1.0, 1.0, 4)):
        cost = costs.make_power_cost(*params)
        runs[params] = (both_paths(sim.integrate, build_two_input(cost, 4, 1, 1e-3, 1.0), 0.0,
                                   config),
                        both_paths(sim.integrate_lbs, cost, [(1, 1.0), (3, 0.5)], 0.0, 0.5, 50))
    assert runs[(1, 1, 4)] == runs[(1.0, 1.0, 4)]
    assert all(o[0] == "ok" for pair in runs[(1, 1, 4)] for o in pair)


@needs_kernel
@pytest.mark.parametrize("cost, terms, x0, total_time, steps, kind", [
    (QUARTIC, [(2, 1.0)], 0.0, 1.0, 10, "DivergenceError: state exceeded 1e+12"),
    (QUARTIC, [(1, 1.0)], 1e60, 1.0, 10, "DivergenceError: state overflow at t=0"),
    (QUARTIC, [(1, 1.0), (3, 1.0)], -1e100, 1.0, 10, "DivergenceError: state overflow"),
    (QUARTIC, [(1, 1.0)], math.inf, 1.0, 10, "NumericFailureError: analytic derivative"),
    (QUARTIC, [(3, 1.0), (1, 1.0)], math.nan, 1.0, 10,
     "NumericFailureError: analytic derivative of order 3 at x=nan"),
    # the first stage is finite; the second, at x0 + h/2 k1, is not
    (costs.make_power_cost(1e300, 0.0, 2), [(1, 1.0)], 1.5, 1.0, 10,
     "NumericFailureError: analytic derivative of order 1 at x=-1.5e+299"),
])
def test_lbs_failures_match_python(cost, terms, x0, total_time, steps, kind):
    compiled, python = both_paths(sim.integrate_lbs, cost, terms, x0, total_time, steps)
    assert compiled == python
    assert kind in ": ".join(map(str, compiled[:2]))


def typed_runs(start):
    """integrate, period_map and integrate_lbs of a quartic from start, each
    as ("ok", states, costs, their dtypes, meta["kernel"]) or the failure as
    (type, message, time, state)."""
    system = build_two_input(QUARTIC, 4, 1, 1e-3, 1.0)
    config = IntegratorConfig(total_time=2e-3, steps_per_period=256, decimation=16)
    runs = []
    for run in (lambda: sim.integrate(system, start, config),
                lambda: sim.period_map(system, [start], 1, 256),
                lambda: sim.integrate_lbs(QUARTIC, [(3, 1.0)], start, 1.0, 50)):
        try:
            out = run()
        except (DivergenceError, NumericFailureError) as err:
            runs.append((type(err).__name__, str(err), err.last_time, err.last_x))
            continue
        if isinstance(out, np.ndarray):
            runs.append(("ok", out.tobytes(), None, {out.dtype}, None))
        else:
            runs.append(("ok", out.states.tobytes(), out.cost_values.tobytes(),
                         {out.states.dtype, out.cost_values.dtype}, out.meta["kernel"]))
    return runs


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(v=st.floats(-3.0, 3.0))
@example(v=2.5)  # state exceeded 1e+12
@example(v=1e30)  # state overflow at t=0
def test_the_type_of_a_start_never_shows(v):
    # each start against the float start it converts to, on both paths
    r = round(v)
    starts = [(np.float64(v), v), (np.float32(v), float(np.float32(v))), (Fraction(v), v),
              (r, float(r))]
    if abs(r) < 2 ** 63:
        starts.append((np.int64(r), float(r)))
    for load in (_kernel.load, lambda: None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_kernel, "load", load)
            kernel = "c" if _kernel.load() is not None else "python"
            for start, ref in starts:
                runs = typed_runs(start)
                assert runs == typed_runs(ref), (type(start).__name__, start)
                for run in runs:
                    if run[0] == "ok":
                        assert run[3] == {np.dtype(np.float64)}
                        assert run[4] in (None, kernel)


@pytest.mark.parametrize("start", [1j, np.complex128(1.0), "0.5", Decimal("0.5"), None,
                                   10 ** 400],
                         ids=["complex", "complex128", "str", "Decimal", "None", "10**400"])
@pytest.mark.parametrize("library", [True, False])
def test_a_start_with_no_float_value_is_refused(start, library, monkeypatch):
    if not library:
        monkeypatch.setattr(_kernel, "load", lambda: None)
    system = build_two_input(QUARTIC, 4, 1, 1e-3, 1.0)
    config = IntegratorConfig(total_time=1e-3, steps_per_period=256, decimation=16)
    for run in (lambda: sim.integrate(system, start, config),
                lambda: sim.period_map(system, [start], 1, 256),
                lambda: sim.integrate_lbs(QUARTIC, [(3, 1.0)], start, 1.0, 50)):
        with pytest.raises(InvalidParameterError, match="the start") as err:
            run()
        assert "\n" not in str(err.value)


def test_lbs_records_its_path(monkeypatch):
    args = ([(1, 1.0)], 0.0, 1.0, 10)
    # analytic derivatives without make_power_cost's .power tags
    untagged = costs.CostFunction(
        eval=lambda x: QUARTIC.eval(x), xstar=1.0, jstar=0.0, degree=4,
        analytic_derivs=tuple(lambda x, d=d: d(x) for d in QUARTIC.analytic_derivs))
    assert sim.integrate_lbs(untagged, *args).meta["kernel"] == "python"
    # an int start runs where a float start runs
    kernel = "python" if _kernel.load() is None else "c"
    assert sim.integrate_lbs(QUARTIC, [(1, 1.0)], 0, 1.0, 10).meta["kernel"] == kernel
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert sim.integrate_lbs(QUARTIC, *args).meta["kernel"] == "python"


@needs_kernel
@pytest.mark.parametrize("drift, overflows", [(29.0, False), (100.0, True)])
def test_cost_of_last_state(drift, overflows):
    # x' = P: the stages all sit at x0 and one step moves x by `drift`, so only
    # the cost (x - 0)^200 of the last stored state can overflow
    J = costs.make_power_cost(1.0, 0.0, 200).eval
    h = 1e-3
    P, Q = np.array([0.0, 0.0, 6.0 * drift / h, 0.0]), np.zeros(4)
    states = [1.0]
    sim._rk4([J] * 4, P.tolist(), Q.tolist(), 1.0, h, 1, 1, states.append)
    if overflows:
        with pytest.raises(OverflowError):
            [J(v) for v in states]
        with pytest.raises(OverflowError):
            sim._Stepper(J, h, P, Q).run(1.0, 1, 1)
        return
    xs, js, path = sim._Stepper(J, h, P, Q).run(1.0, 1, 1)
    assert path == "c"
    assert xs.tobytes() == np.array(states).tobytes()
    assert js.tobytes() == np.array([J(v) for v in states]).tobytes()


def _drift_run(J, targets):
    """Drive the kernel through the states `targets` by x' = P, with h = 6 so
    that one step adds 2 * (P[b] + P[b]) = targets[k+1] - targets[k] exactly,
    and return its states and stored costs.  Each difference, and so each
    step, is exact when consecutive targets share a sign within a factor of
    two (Sterbenz), pass through 0, or are integers below 2^53."""
    n = len(targets) - 1
    P = np.zeros(2 * n)
    P[1::2] = np.diff(targets) / 4.0
    xs, js, path = sim._Stepper(J, 6.0, P, np.zeros(2 * n)).run(float(targets[0]), n, 1)
    assert path == "c"
    return xs, js


@needs_kernel
def test_kernel_powers_equal_python(rk4_build):
    # every stored cost of >= 10^6 distinct states, bitwise against CPython's
    # float ** int: m = 2..4 take the kernel's exact-power path, 5 and 6 pow's,
    # and |x - x*| runs across 2^-64 and 2^64 with 0, +-1 and negative values;
    # in each build of the loop, as the two forms of the products must agree
    rng = np.random.default_rng(10)
    edges = [2.0 ** -64, math.nextafter(2.0 ** -64, 0.0), math.nextafter(2.0 ** -64, 1.0),
             1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 3.0]  # 3^m is exact
    seen = []
    for m in range(2, 7):
        # x* = 0, x from -2^39 through -2^-80, 0 and 2^-80 to 2^39
        mags = np.sort(np.concatenate([np.exp2(rng.uniform(-80.0, 39.0, 110_000)), edges]))
        near_zero = np.concatenate([-mags[::-1], [0.0], mags])
        # x* = -+2^64, x integral in (-2^39, 2^39): x - x* at 2^64 +- 2^39, either sign
        ints = rng.integers(-2 ** 39, 2 ** 39, 50_000).astype(float)
        near_big = np.concatenate([ints, [0.0, 2048.0, -2048.0, 4096.0, -4096.0]])
        for xstar, targets in ((0.0, near_zero), (-2.0 ** 64, near_big),
                               (2.0 ** 64, 0.0 - near_big)):
            J = costs.make_power_cost(1.0, xstar, m).eval
            xs, js = _drift_run(J, targets)
            assert xs.tobytes() == targets.tobytes()
            assert js.tobytes() == np.array([J(v) for v in xs.tolist()]).tobytes()
            seen.append(xs)
    assert len(np.unique(np.concatenate(seen))) >= 10 ** 6


def test_ineligible_systems_use_python():
    config = IntegratorConfig(total_time=2e-3, steps_per_period=256, decimation=256)
    abs_cost = build_two_input(costs.make_abs_cost(1.0), 2, 1, 1e-3, 1.0)
    assert sim.integrate(abs_cost, 0.0, config).meta["kernel"] == "python"
    quad = build_two_input(QUARTIC, 2, 1, 1e-3, 1.0)
    callable_shapes = sim.ESSystem(cost=QUARTIC, channels=tuple(
        (lambda z, g=g: g(z), d) for g, d in quad.channels))
    assert sim.integrate(callable_shapes, 0.0, config).meta["kernel"] == "python"


@needs_kernel
def test_no_compiler_falls_back(tmp_path, monkeypatch, fresh_loader):
    system = fig1_we()
    config = IntegratorConfig(total_time=0.01, steps_per_period=512, decimation=16)
    compiled = sim.integrate(system, 0.0, config)
    assert compiled.meta["kernel"] == "c"

    lbs_args = (system.cost, [(3, 1.0)], 0.0, 0.01, 400)
    lbs = sim.integrate_lbs(*lbs_args)
    assert lbs.meta["kernel"] == "c"

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(tmp_path))
    _kernel.load.cache_clear()
    assert _kernel.load() is None
    for slow, fast in ((sim.integrate(system, 0.0, config), compiled),
                       (sim.integrate_lbs(*lbs_args), lbs)):
        assert slow.meta["kernel"] == "python"
        assert slow.states.tobytes() == fast.states.tobytes()
        assert slow.cost_values.tobytes() == fast.cost_values.tobytes()


@pytest.mark.skipif(shutil.which(_kernel.COMPILER) is None, reason="no cc on PATH")
def test_source_needs_unsigned_int128():
    # a compiler without the type fails the build, and load() returns None
    # (test_failed_compile_falls_back)
    done = subprocess.run([shutil.which(_kernel.COMPILER), "-fsyntax-only",
                           "-U__SIZEOF_INT128__", _kernel.SOURCE], capture_output=True,
                          text=True, stdin=subprocess.DEVNULL, timeout=120)
    assert done.returncode != 0
    assert "unsigned __int128" in done.stderr


def test_failed_compile_falls_back(tmp_path, monkeypatch, fresh_loader):
    fake = tmp_path / _kernel.COMPILER
    fake.write_text("#!/bin/sh\nexit 1\n")
    fake.chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(tmp_path))
    assert _kernel.load() is None
    assert not [p for p in (tmp_path / "cache" / "liees").iterdir()]


@pytest.fixture
def copy_compile(tmp_path_factory, monkeypatch, fresh_loader):
    """Stub _compile with a copy of the library this process built, so a
    loader test builds no library of its own; returns the list of the
    (source, target) pairs it was called with."""
    built = tmp_path_factory.getbasetemp() / "kernel.so"
    if not built.exists():
        # a library built outside a usable cache is gone once loaded
        loaded = _kernel.load().cdll._name
        if os.path.exists(loaded):
            shutil.copyfile(loaded, built)
        else:
            _kernel._compile(_kernel.SOURCE, str(built))
    _kernel.load.cache_clear()
    calls = []
    monkeypatch.setattr(_kernel, "_compile",
                        lambda *a: calls.append(a) or shutil.copyfile(built, a[1]))
    return calls


@needs_kernel
def test_cached_library_is_reused(tmp_path, monkeypatch, copy_compile):
    calls = copy_compile
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = _kernel.load()
    assert first is not None and len(calls) == 1
    assert _kernel.load() is first
    _kernel.load.cache_clear()
    assert _kernel.load() is not None
    assert len(calls) == 1
    assert [p.name for p in (tmp_path / "liees").iterdir()] == [calls[0][1].split("/")[-1]]


@needs_kernel
def test_unsafe_cache_dir_is_not_used(tmp_path, monkeypatch, copy_compile):
    shared = tmp_path / "liees"
    shared.mkdir()
    shared.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernel.load() is not None
    assert len(copy_compile) == 1
    assert list(shared.iterdir()) == []


# The signature's overflow: a numeric failure naming the first word that is
# not finite, the same whether the compiled library loads or not (signatures
# are computed in numpy, in closed form).

def signature_failure(dithers, depth):
    """The failure of compute_signature as (type, message), or None."""
    try:
        chenfliess.compute_signature(dithers, depth)
    except NumericFailureError as err:
        return type(err).__name__, str(err)
    return None


@pytest.mark.parametrize("kind, eps, word", [
    ("first12", 1e160, "1111"), ("first12", 1e300, "111"), ("triple123", 1e300, "1111")])
def test_signature_overflow_fails_alike(kind, eps, word):
    failure = signature_failure(make_design(kind, eps), 4)
    assert failure == ("NumericFailureError", f"signature entry {word} is nan at epsilon {eps:g}")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        assert signature_failure(make_design(kind, eps), 4) == failure


# The CSV codec: the compiled writer and reader against the Python ones.

# one parameter, named for the build: the codec tests keep their [default] ids
@pytest.fixture(scope="session", params=["default"])
def codec_lib():
    """The compiled codec: the library the loader returns."""
    lib = _kernel.load()
    if lib is None:
        pytest.skip("the compiled codec cannot be built here")
    return lib


@pytest.fixture
def codec(codec_lib, monkeypatch):
    """Run liees.sim's codec on codec_lib."""
    monkeypatch.setattr(_kernel, "load", lambda: codec_lib)


def python_codec(fn, *args):
    """fn(*args) with the loader finding no compiled library."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        return fn(*args)


def csv_bytes(path, columns) -> bytes:
    with open(path, "w") as fh:
        sim.write_csv_rows(fh, columns)
    return path.read_bytes()


def decimal_ties():
    """Doubles k 2^-j whose exact decimal value has 18 significant digits,
    the last a 5: "%.17g" rounds each at an exact tie."""
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min((10 ** 18 - 1) // 5 ** j, 2 ** 53 - 1)
        ks = {k | 1 for k in (lo, lo + 2, (lo + hi) // 2, (lo + hi) // 2 + 1, hi - 2)}
        ties += [k / 2 ** j for k in sorted(ks) if lo <= k <= hi]
    return ties


def neighbours(v):
    return [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]


def binade_ends(v):
    """The powers of two around v, and the largest double below the upper one."""
    e = math.frexp(v)[1]
    return [math.ldexp(1.0, e - 1), math.nextafter(math.ldexp(1.0, e), 0.0), math.ldexp(1.0, e)]


# Doubles near 1e-17 (three limbs) whose 17-digit cut leaves a remainder a
# hair above one half: the bits that say it is not a tie lie in the low limb.
STICKY = [float.fromhex(h) for h in ("0x1.4a1d7ddd69ddep-55", "0x1.6e0551fe15d6ep-55",
                                     "0x1.e663ab8551e23p-56", "0x1.509dc5795f722p-56")]
TENS = [float(f"1e{k}") for k in range(-38, 39)]
# The cases of the compiled writer's exact path (see the _kernel.c header).
BOUNDARIES = [s * v for s in (1.0, -1.0) for v in [
    0.0,
    # its ends: 1e-38, just below 10^-38, falls back to snprintf, as does 2^128
    *neighbours(1e-38), *neighbours(2.0 ** 128),
    # the switch from 128 bits (j = 32, down to 2^-53) to three limbs (j = 33)
    *neighbours(2.0 ** -53), *neighbours(1e-16), *neighbours(1e-17), *STICKY,
    # each power of ten with the powers of two around it: from 10^k up to the
    # end of its binade the estimate of the decimal exponent is one low
    *TENS, *[math.nextafter(t, 0.0) for t in TENS],
    *[v for t in TENS for v in binade_ends(t)],
]]

NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
            0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF]
POWERS = [float(f"1e{k}") for k in range(-323, 309)]
SPECIALS = np.concatenate([
    np.array(NAN_BITS, dtype=np.uint64).view(np.float64),
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
     math.nextafter(2.2250738585072014e-308, 0.0), math.inf, -math.inf,
     1.7976931348623157e308, -1.7976931348623157e308],
    POWERS, [math.nextafter(p, 0.0) for p in POWERS], [-p for p in POWERS],
    decimal_ties(), [-t for t in decimal_ties()], BOUNDARIES,
])


def test_decimal_ties_are_ties():
    ties = decimal_ties()
    assert len(ties) > 60
    for v in ties:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    # both rounding directions of round-half-even occur
    assert {Decimal(v).as_tuple().digits[16] % 2 for v in ties} == {0, 1}


def test_boundaries_reach_the_carry_and_the_sticky_bit():
    # 1e-14 lies below 10^-14 and is the one double of the exact path whose
    # 17 digits all round up, to 10^17
    assert Fraction(1e-14) < Fraction(1, 10 ** 14) and "%.17g" % 1e-14 == "1e-14"
    for v in STICKY:
        scaled = Fraction(v) * 10 ** 33  # 17 digits at the 10^-17 decade
        assert 10 ** 16 <= scaled < 10 ** 17
        assert 0 < scaled - math.floor(scaled) - Fraction(1, 2) < Fraction(1, 2 ** 10)
    assert {math.floor(Fraction(v) * 10 ** 33) % 2 for v in STICKY} == {0, 1}


def test_writer_bytes_equal_python_on_a_sweep(tmp_path, codec):
    gen = np.random.default_rng(13)
    log_uniform = 10.0 ** gen.uniform(-40.0, 40.0, 200_000) * gen.choice([-1.0, 1.0], 200_000)
    bit_patterns = gen.integers(0, 2 ** 64, 50_000, dtype=np.uint64).view(np.float64)
    columns = np.concatenate([log_uniform, bit_patterns]).reshape(5, -1)
    compiled = csv_bytes(tmp_path / "c.csv", columns)
    assert compiled == python_codec(csv_bytes, tmp_path / "py.csv", columns)


@needs_kernel
@pytest.mark.parametrize("ncol", [3, 5])
def test_writer_bytes_equal_python_on_edge_values(tmp_path, ncol):
    values = np.concatenate([SPECIALS, SPECIALS[::-1]])
    values = values[:len(values) // ncol * ncol]
    for columns in (values.reshape(ncol, -1), values.reshape(-1, ncol).T):
        compiled = csv_bytes(tmp_path / "c.csv", columns)
        python = python_codec(csv_bytes, tmp_path / "py.csv", columns)
        assert compiled == python
    assert b"-nan" not in compiled and b"-2.2250738585072014e-308" in compiled


@needs_kernel
@settings(max_examples=15, deadline=None)
@given(data=st.data(), ncol=st.sampled_from([3, 5]),
       n=st.sampled_from([1, sim.CSV_BLOCK - 1, sim.CSV_BLOCK + 1]))
def test_writer_bytes_equal_python(tmp_path_factory, data, ncol, n):
    values = st.floats(width=64) | st.sampled_from(SPECIALS.tolist())
    columns = [data.draw(arrays(np.float64, n, elements=values)) for _ in range(ncol)]
    path = tmp_path_factory.mktemp("csv")
    compiled = csv_bytes(path / "c.csv", columns)
    assert compiled == python_codec(csv_bytes, path / "py.csv", columns)


# values for the split tests: every special, subnormals, and the ends of the
# writer's exact path, 1e-38 and 2^128
EDGE_VALUES = (st.sampled_from(SPECIALS.tolist())
               | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
               | st.sampled_from([s * v for s in (1.0, -1.0)
                                  for v in (*neighbours(1e-38), *neighbours(2.0 ** 128))])
               | st.floats(1e-39, 1e-37) | st.floats(2.0 ** 127, 2.0 ** 129)
               | st.floats(width=64))


def python_lines(columns, sep="\n") -> list[str]:
    """The Python codec's CSV lines of the rows zip(*columns)."""
    return [",".join("%.17g" % v for v in row) + sep for row in zip(*columns)]


def test_part_count_follows_the_cpus_and_the_work(monkeypatch):
    monkeypatch.setattr(_kernel, "cpus", lambda: 4)
    per_part = _kernel.PARSE_PART_BYTES
    assert [_kernel.part_count(w, per_part) for w in (0, per_part - 1, per_part,
                                                      3 * per_part, 100 * per_part)] \
        == [1, 1, 1, 3, 4]
    monkeypatch.setattr(_kernel, "cpus", lambda: 1000)
    assert _kernel.part_count(10 ** 12, 1) == _kernel.MAX_PARTS


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), ncol=st.integers(1, 5), parts=st.integers(1, 4),
       n=st.sampled_from([0, 1]) | st.integers(0, 200))
def test_writer_bytes_do_not_depend_on_the_part_count(codec_lib, data, ncol, parts, n):
    block = np.empty((ncol, n))
    for row in block:
        row[:] = data.draw(arrays(np.float64, n, elements=EDGE_VALUES))
    buf = np.empty(_kernel.FIELD_BYTES * block.size, np.uint8)
    one = bytes(buf[:codec_lib.format_rows(block, n, buf, 1)])
    assert bytes(buf[:codec_lib.format_rows(block, n, buf, parts)]) == one
    assert one == "".join(python_lines(block.tolist())).encode()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), parts=st.integers(2, 4), n=st.sampled_from([0, 1]) | st.integers(0, 120),
       sep=st.sampled_from(["\n", "\r\n"]),
       flaw=st.sampled_from([None, "-nan", "missing field", "open end"]))
def test_reader_result_does_not_depend_on_the_part_count(codec_lib, data, parts, n, sep, flaw):
    columns = [data.draw(arrays(np.float64, n, elements=EDGE_VALUES)) for _ in range(3)]
    lines = python_lines([c.tolist() for c in columns], sep)
    if flaw == "open end" and lines:
        lines[-1] = lines[-1].rstrip(sep)
    elif flaw is not None and lines:
        row, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))
        fields = lines[row].rstrip(sep).split(",")
        if flaw == "-nan":
            fields[k] = "-nan"
        else:
            del fields[k]
        lines[row] = ",".join(fields) + sep
    text = "".join(lines).encode()
    # the output may end before the text does
    fill, room = data.draw(st.integers(0, 3)), data.draw(st.integers(max(0, n - 3), n + 2))
    results = []
    for p in (1, parts):
        out = np.full((3, fill + room), -1.5)
        rows, used = codec_lib.parse_rows(text, out, fill, p)
        results.append(((rows, used), out[:, fill:fill + rows].tobytes()))
    assert results[1] == results[0]
    if flaw is None and room >= n:
        assert results[0][0] == (n, len(text))


def read_outcome(path):
    """The arrays read from path as bytes, or the error message."""
    try:
        traj = sim.read_trajectory_csv(str(path))
    except InvalidParameterError as err:
        return str(err)
    return traj.times.tobytes(), traj.states.tobytes(), traj.cost_values.tobytes()


B = sim.CSV_BLOCK
ROWS = [f"{k * 1.25e-3:.17g},{math.sin(k) * 1e-7:.17g},{k ** 4 / 3:.17g}\n"
        for k in range(2 * B + 3)]


def csv_file(row=None, line=None, rows=ROWS, header="t,x,J\n", end=""):
    """The rows, with rows[row] replaced by line, as a CSV text."""
    rows = list(rows)
    if row is not None:
        rows[row] = line
    return header + "".join(rows) + end


CSV_FILES = {
    "clean": csv_file(),
    "underscore": csv_file(B + 4, f"{(B + 4) * 1.25e-3!r}, 1_0.5 ,+1\n"),
    "spellings": csv_file(B + 4, f"{(B + 4) * 1.25e-3!r},Infinity,-nan\n"),
    "exponents": csv_file(B + 4, f"{(B + 4) * 1.25e-3!r},1E5,.5e-3\n"),
    "lone-cr": csv_file(B + 4, f"{(B + 4) * 1.25e-3!r},1,2\r"),
    "too-few": csv_file(B + 4, "0.1,0.5\n"),
    "too-many": csv_file(B + 4, "0.1,0.5,0.25,7\n"),
    "word": csv_file(B + 4, "0.1,0.5,zero\n"),
    "blank": csv_file(B + 4, "\n"),
    "non-utf8": csv_file(B + 4, "0.1,\udcff,1\n"),
    "crlf": csv_file().replace("\n", "\r\n"),
    "crlf-rows": "t,x,J\n" + "".join(ROWS).replace("\n", "\r\n"),
    "open-end": csv_file().rstrip("\n"),
    "open-odd-end": csv_file().rstrip("\n") + " ",
    "blank-end": csv_file(end="\n"),
    "nan-inf": csv_file(rows=ROWS[:B + 4] + [f"{(B + 4) * 1.25e-3!r},nan,-inf\n",
                                            f"{(B + 5) * 1.25e-3!r},inf,-0\n"]),
    "huge-tiny": csv_file(B + 4, f"{(B + 4) * 1.25e-3!r},1e400,-1e-400\n"),
    "huge-tiny-signed": csv_file(B + 4, f"{(B + 4) * 1.25e-3!r},1e+400,-1e-400\n"),
    "subnormal-halves": csv_file(
        B + 4, f"{(B + 4) * 1.25e-3!r},2.4703282292062327e-324,-2.4703282292062328e-324\n"),
    "overflow-all": csv_file(rows=[f"{k}e-3,1e+400,1e-400\n" for k in range(B + 5)]),
    "header-crlf": csv_file(header="t,x,J\r\n"),
    "header-spaces": csv_file(header=" t,x,J \n"),
    "header-only": "t,x,J\n",
    "bad-header": csv_file(header="t,x,y\n"),
    "uneven": csv_file(B + 4, f"{(B + 4) * 1.25e-3 + 1e-6!r},1,2\n"),
}


@pytest.fixture(scope="session", params=["default", "no-int128"])
def reader_lib(request, tmp_path_factory):
    """What the loader returns: the library it builds here, or, with a
    compiler that has no unsigned __int128, None, the build stopped by the
    guard at the u128 typedef (its stderr says so)."""
    lib = _kernel.load()
    if lib is None:
        pytest.skip("the compiled codec cannot be built here")
    if request.param == "default":
        return lib
    home = tmp_path_factory.mktemp("no-int128")
    fake, log = home / _kernel.COMPILER, home / "stderr.txt"
    fake.write_text(f'#!/bin/sh\nexec "{shutil.which(_kernel.COMPILER)}" '
                    f'-U__SIZEOF_INT128__ "$@" 2>>"{log}"\n')
    fake.chmod(0o755)
    with pytest.MonkeyPatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(home / "cache"))
        m.setenv("PATH", str(home) + os.pathsep + os.environ.get("PATH", ""))
        _kernel.load.cache_clear()
        try:
            built = _kernel.load()
        finally:
            _kernel.load.cache_clear()
    assert built is None
    assert "unsigned __int128" in log.read_text()
    return built


# 1 << 16 was the reader's buffer before it grew to CSV_CHUNK; both must agree
@pytest.mark.parametrize("chunk", [97, 1 << 16, sim.CSV_CHUNK])
@pytest.mark.parametrize("name", CSV_FILES)
def test_reader_equals_python(tmp_path, monkeypatch, reader_lib, name, chunk):
    # each build reads each file as the Python and the compiled reader do
    path = tmp_path / f"{name}.csv"
    path.write_bytes(CSV_FILES[name].encode(errors="surrogateescape"))
    monkeypatch.setattr(sim, "CSV_CHUNK", chunk)
    outcomes = []
    for lib in (reader_lib, None, _kernel.load()):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_kernel, "load", lambda: lib)
            outcomes.append(read_outcome(path))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    monkeypatch.setattr(_kernel, "load", lambda: reader_lib)
    with open(path, "rb") as raw:
        whole = sim._read_compiled(raw)
        assert (whole is not None) == (reader_lib is not None and name in READ_WHOLE)
        if whole is None:
            assert raw.tell() == 0


# the files the compiled reader reads whole: every line in the writer's own
# grammar, each ending in a line end; Python reads every other file
READ_WHOLE = {"clean", "crlf", "crlf-rows", "nan-inf", "huge-tiny-signed", "subnormal-halves",
              "overflow-all", "header-crlf", "header-only", "uneven"}


@needs_kernel
def test_reader_declines_a_long_open_line_in_linear_time(tmp_path, monkeypatch):
    # each parse gets at most the whole lines of one chunk, never the whole of
    # a line that has none
    path = tmp_path / "open.csv"
    path.write_bytes(b"t,x,J\n" + ROWS[0].encode() + b"1" * 100_000)
    monkeypatch.setattr(sim, "CSV_CHUNK", 64)
    lib = _kernel.load()
    parse, sizes = lib.parse_rows, []

    def parse_rows(text, out, fill):
        sizes.append(len(text))
        return parse(text, out, fill)

    monkeypatch.setattr(lib, "parse_rows", parse_rows)
    with open(path, "rb") as raw:
        assert sim._read_compiled(raw) is None and raw.tell() == 0
    assert sizes and max(sizes) <= 64


def test_compiled_reader_reads_every_written_file_whole(tmp_path, codec):
    # writer and grammar must not drift apart: a written line outside the
    # grammar would send the whole file to the Python reader
    gen = np.random.default_rng(14)
    bit_patterns = gen.integers(0, 2 ** 64, 60_000, dtype=np.uint64).view(np.float64)
    log_uniform = 10.0 ** gen.uniform(-40.0, 40.0, 120_000) * gen.choice([-1.0, 1.0], 120_000)
    values = np.concatenate([SPECIALS, bit_patterns, log_uniform])
    columns = values[:len(values) // 3 * 3].reshape(3, -1)
    path = tmp_path / "written.csv"
    with open(path, "w") as fh:
        fh.write("t,x,J\n")
        sim.write_csv_rows(fh, columns)
    with open(path, "rb") as raw:
        got = sim._read_compiled(raw)
    assert got is not None and got.shape == columns.shape
    nan = np.isnan(columns)
    assert (np.isnan(got) == nan).all()
    assert (got[~nan].view(np.uint64) == columns[~nan].view(np.uint64)).all()


def read_fields(lib, fields):
    """The doubles the compiled reader lib reads from fields, one a line."""
    text = "".join(f + "\n" for f in fields).encode()
    out = np.empty((1, len(fields)))
    assert lib.parse_rows(text, out, 0) == (len(fields), len(text))
    return out[0]


def assert_read_as_float(lib, fields):
    for f, v in zip(fields, read_fields(lib, fields)):
        assert v.tobytes() == np.float64(float(f)).tobytes(), f


def field(digits: str, e: int, point: int, sign: str = "", spell_e0: bool = False) -> str:
    """The field of value digits 10^e with the point after digits[:point]
    (none when point is len(digits)): it carries an exponent unless that is
    0 and spell_e0 is false."""
    frac = len(digits) - point
    x = e + frac
    return (sign + digits[:point] + ("." + digits[point:] if frac else "")
            + (f"e{x:+d}" if x or spell_e0 else ""))


@st.composite
def decimal_fields(draw):
    """Fields of w 10^e: w of 1-40 significant digits after up to three
    leading zeros, e from -56 to 56 (the reader's table ends at +-55)."""
    n = draw(st.integers(1, 40))
    digits = "0" * draw(st.integers(0, 3)) + str(draw(st.integers(10 ** (n - 1), 10 ** n - 1)))
    return field(digits, draw(st.integers(-56, 56)), draw(st.integers(1, len(digits))),
                 draw(st.sampled_from(["", "-"])), draw(st.booleans()))


EXACT = decimal.Context(prec=2000)


def midpoint_fields(v: float) -> list[str]:
    """The exact decimal midpoint of v and the next double up, and the
    decimals one unit above and below it in its last digit."""
    mid = EXACT.divide(EXACT.add(Decimal(v), Decimal(math.nextafter(v, math.inf))), 2)
    mid = mid.normalize(EXACT)
    unit = Decimal((0, (1,), mid.as_tuple().exponent))
    return [format(d, "e") for d in (mid, EXACT.add(mid, unit), EXACT.subtract(mid, unit))]


# doubles m 2^q: the midpoint (2m + 1) 2^(q-1) has at most 19 significant
# digits for nearly every m at -3 <= q <= 10, where the fast path must decline
# the ties, and more digits elsewhere, where strtod reads it
MIDPOINTS = st.builds(math.ldexp, st.integers(2 ** 52, 2 ** 53 - 1),
                      st.integers(-3, 10) | st.integers(-1074, 970)).filter(
    lambda v: math.isfinite(math.nextafter(v, math.inf)))
BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: "%.17g" % np.array(b, np.uint64).view(np.float64))
# subnormal, underflowing and overflowing fields, and zeros
EXTREMES = ["-0", "0", "000", "0.000", "-0.0e-5", "0e+999", "00012.5", "1e-400", "-1e+400",
            "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
            "2.2250738585072011e-308", "1.7976931348623158e+308", "1.7976931348623159e+308",
            *["%.17g" % v for v in SPECIALS]]


def test_midpoint_fields_are_exact_ties():
    assert midpoint_fields(2.0 ** 53) == ["9.007199254740993e+15", "9.007199254740994e+15",
                                          "9.007199254740992e+15"]
    assert float("9.007199254740993e+15") == 2.0 ** 53


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(groups=st.lists((BIT_PATTERNS | decimal_fields() | st.sampled_from(EXTREMES)).map(
    lambda f: [f]) | MIDPOINTS.map(midpoint_fields), min_size=30, max_size=60))
def test_reader_reads_as_float(codec_lib, groups):
    assert_read_as_float(codec_lib, [f for group in groups for f in group])


def test_reader_reads_as_float_at_every_exponent(codec_lib):
    # each decimal exponent through the table's ends and past them, at each
    # length from 1 to 40 significant digits, the point after the first digit
    # or none
    gen = np.random.default_rng(21)
    fields = [field("".join(map(str, [gen.integers(1, 10), *gen.integers(0, 10, n - 1)])),
                    e, point)
              for e in range(-56, 57) for n in range(1, 41) for point in (1, n)]
    assert_read_as_float(codec_lib, fields)


@needs_kernel
def test_reader_peak_memory_is_its_arrays(tmp_path):
    n = 200_000
    t = np.arange(n) * 1e-5
    path = tmp_path / "long.csv"
    sim.write_trajectory_csv(sim.Trajectory(t, np.sin(t), np.cos(t), 1.0), str(path))
    tracemalloc.start()
    try:
        traj = sim.read_trajectory_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = traj.times.nbytes + traj.states.nbytes + traj.cost_values.nbytes
    assert arrays == 3 * 8 * n and traj.times.tobytes() == t.tobytes()
    assert peak <= 1.2 * arrays


def write_file(tmp_path, text):
    path = tmp_path / "plain.csv"
    path.write_text(text)
    return path


@needs_kernel
def test_reader_reads_a_pipe_as_before(tmp_path):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(CSV_FILES["spellings"])

    for read in (read_outcome, lambda p: python_codec(read_outcome, p)):
        writer = threading.Thread(target=feed)
        writer.start()
        got = read(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == read_outcome(write_file(tmp_path, CSV_FILES["spellings"]))


COMMA_LOCALES = ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "ru_RU.UTF-8",
                 "es_ES.UTF-8", "it_IT.UTF-8", "nl_NL.UTF-8", "pt_BR.UTF-8")


def set_comma_locale(tmp_path, monkeypatch) -> bool:
    """Set LC_NUMERIC to an installed locale with a decimal comma or, when
    there is none, to de_DE.ISO-8859-1 built by localedef under tmp_path
    (LOCPATH pointing there, until monkeypatch restores it).  Returns False when neither can be set."""
    for name in COMMA_LOCALES:
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
            return True
        except locale.Error:
            pass
    localedef = shutil.which("localedef")
    if localedef is None:
        return False
    name, locales = "de_DE.ISO-8859-1", tmp_path / "locales"
    locales.mkdir()
    done = subprocess.run([localedef, "-i", "de_DE", "-f", "ISO-8859-1", str(locales / name)],
                          capture_output=True, stdin=subprocess.DEVNULL, timeout=60)
    if done.returncode != 0:
        return False
    monkeypatch.setenv("LOCPATH", str(locales))
    try:
        locale.setlocale(locale.LC_NUMERIC, name)
    except locale.Error:
        return False
    return True


@needs_kernel
def test_codec_ignores_a_decimal_comma_locale(tmp_path, monkeypatch):
    columns = np.stack([np.arange(len(SPECIALS)) * 0.1, SPECIALS, SPECIALS[::-1]])
    expected = python_codec(csv_bytes, tmp_path / "py.csv", columns)
    path = tmp_path / "c.csv"
    path.write_bytes(b"t,x,J\n" + expected)
    expected_read = python_codec(read_outcome, path)
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        if not set_comma_locale(tmp_path, monkeypatch):
            pytest.skip("no locale with a decimal comma is installed or can be built")
        assert locale.localeconv()["decimal_point"] == ","
        assert csv_bytes(tmp_path / "c.csv", columns) == expected
        path.write_bytes(b"t,x,J\n" + expected)
        assert read_outcome(path) == expected_read
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)
