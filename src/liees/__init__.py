"""liees: simulation and verification toolkit for higher-order Lie-bracket
extremum-seeking control.

Submodules: costs (objectives, declared derivatives, assumption checkers),
dither (bracket-exciting inputs), lie (exact brackets and field families),
chenfliess (iterated integrals and excitation verification), sim (system
builders and integrators), analysis (rate fits and closeness metrics), verify
(the property checks of `liees verify` and the acceptance tests), cli, errors
(the exception classes).  Each public name lives in its module only, as
sim.integrate or errors.LieesError: the package binds each submodule on first
use (liees.sim, or from liees import sim), so `import liees` loads none.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = "analysis chenfliess cli costs dither errors lie sim verify".split()


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
