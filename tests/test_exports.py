"""The package's public names resolve: every __all__ entry and every name the
benchmark's span recorder wraps."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import liees

MODULES = sorted(m.name for m in pkgutil.iter_modules(liees.__path__)
                 if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"liees.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_root_binds_only_its_submodules():
    # each public name has one home, its module: the package re-exports none,
    # and binds each submodule on first use, so `import liees` loads no
    # submodule and no numpy (checked in a fresh interpreter)
    code = """
import sys
import liees
print(sorted(m for m in sys.modules if m.startswith("liees.")), "numpy" in sys.modules)
names = sorted(n for n in dir(liees) if not n.startswith("_"))
print(names)
print(all(getattr(liees, n) is sys.modules["liees." + n] for n in names))
from liees import sim
print(sim.__name__, liees.__version__)
try:
    liees.nope
except AttributeError as exc:
    print(exc)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(liees.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, stdin=subprocess.DEVNULL, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[] False", str(MODULES), "True",
                                        "liees.sim 0.1.0",
                                        "module 'liees' has no attribute 'nope'"]


def test_bracket_paths_import_no_heavy_modules():
    # numpy.polynomial costs about 2.7 ms at import, numpy.ma about 15 ms (see
    # analysis._median) and hashlib about 3 MB of resident memory (see
    # _kernel.py); the exact brackets, the verify suites and a prediction need none
    code = """
import sys
import liees
from liees import chenfliess, costs, sim, verify
verify.brackets()
verify.lemma3()
system = sim.build_mixed(costs.make_power_cost(1.0, 1.0, 4), 5, 1, 0.7, 0.4, 1e-3)
chenfliess.endpoint_prediction(system, 0.6, order=4)
print(sorted(m for m in ("numpy.polynomial", "numpy.ma", "hashlib") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(liees.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, stdin=subprocess.DEVNULL, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def load_tracing():
    """perfbench/tracing.py, read as it is, under a name of its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_names_resolve():
    # perfbench/tracing.py swaps these names for timing wrappers by attribute
    # lookup: a name it misses fails only the traced benchmark run
    tracing = load_tracing()
    from liees import dither, sim

    for module, name, _ in tracing.SPANNED:
        assert callable(getattr(module, name, None)), (module.__name__, name)
    assert callable(dither.sample_dither) and callable(dither.eval_dither)
    assert callable(sim.Trajectory.strobe)
    for fn in tracing._LRU:
        fn.cache_info()
        assert callable(fn.cache_clear)
    tracing.clear_caches()

    # one traced operation runs every hook and probe, then the originals return
    from liees import chenfliess, costs

    integrate = sim.integrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        system = sim.build_two_input(costs.make_power_cost(1.0, 1.0, 2), 2, epsilon=1e-3)
        sim.integrate(system, 0.0, sim.IntegratorConfig(2e-3, 64, 64))
        chenfliess.log_signature(chenfliess.compute_signature(system.dithers, 2))
        probes = tracer.run_probes()
        summary = tracer.take(0.0, 1.0)
    finally:
        tracer.uninstall()
    assert sim.integrate is integrate
    assert probes["cost_evals"] > 0
    assert summary["counts"]["sim.steps"] == 128


def test_benchmark_tracer_spans_the_signature_chain():
    # the signature and log hooks read sig.quadrature_steps (0: the signature
    # samples no grid, so the probe times one sample per channel) and
    # projection_residual; a rename would break only the traced run
    tracing = load_tracing()
    from liees import chenfliess, dither

    originals = [getattr(module, name) for module, name, _ in tracing.SPANNED]
    eval_dither = dither.eval_dither
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dithers = dither.make_design("second122", 1e-3)
        sig = chenfliess.compute_signature(dithers, 3)
        coeffs = chenfliess.log_signature(sig)
        assert [p[:3] for p in tracer.probes] == [("dither", d, 0) for d in dithers]
        summary = tracer.take(0.0, 1.0)
    finally:
        tracer.uninstall()
    assert [s[0] for s in summary["spans"]] == ["chenfliess.signature",
                                                "chenfliess.log_signature",
                                                "chenfliess.basis_labels",
                                                "chenfliess.basis_labels",
                                                "chenfliess.basis_labels"]
    assert summary["residual"] == coeffs.projection_residual
    assert [getattr(module, name) for module, name, _ in tracing.SPANNED] == originals
    assert dither.eval_dither is eval_dither


@pytest.mark.parametrize("path", sorted(Path(liees.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_sources_parse_at_the_python_floor(path):
    # pyproject.toml declares requires-python >= 3.10: syntax new in 3.11
    # (except*, for one) would break every import there
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
