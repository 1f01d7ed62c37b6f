"""liees: simulation and verification toolkit for higher-order Lie-bracket
extremum-seeking control.

Submodules: costs (objectives, declared derivatives, assumption checkers),
dither (bracket-exciting inputs), lie (exact brackets and field families),
chenfliess (iterated integrals and excitation verification), sim (system
builders and integrators), analysis (rate fits and closeness metrics), verify
(the property checks of `liees verify` and the acceptance tests), cli, errors
(the exception classes).  Each public name lives in its module only, as
sim.integrate or errors.LieesError: the package binds the submodules.
"""

from . import analysis, chenfliess, cli, costs, dither, lie, sim, verify

__version__ = "0.1.0"
