"""liees: simulation and verification toolkit for higher-order Lie-bracket
extremum-seeking control.

Submodules: costs (objectives, differentiation, assumption checkers), dither
(bracket-exciting inputs), lie (numeric brackets and field families),
chenfliess (iterated integrals and excitation verification), sim (system
builders and integrators), analysis (rate fits and closeness metrics), verify
(the property checks of `liees verify` and the acceptance tests), cli.
"""

from . import analysis, chenfliess, cli, costs, dither, lie, sim, verify
from .analysis import Envelope, RateEstimate, closeness, envelope, fit_rate, time_to_band
from .chenfliess import (
    BracketCoefficients,
    Signature,
    compute_signature,
    endpoint_prediction,
    log_signature,
    verify_excitation,
)
from .costs import CostFunction, check_assumption, derivative, make_power_cost
from .dither import DitherSpec, check_resonances, eval_dither, make_design
from .errors import (
    ConstructionError,
    DivergenceError,
    InsufficientSignalError,
    InvalidDomainError,
    InvalidParameterError,
    LieesError,
    NumericFailureError,
    ResolutionError,
)
from .lie import (
    ScalarField,
    bracket2,
    iterated_bracket,
    make_generating_pair,
    make_quadruple_family,
    make_triple_family,
    make_wronskian_pair,
)
from .sim import (
    ESSystem,
    IntegratorConfig,
    Trajectory,
    build_mixed,
    build_three_input,
    build_two_input,
    integrate,
    integrate_lbs,
    period_map,
)

__version__ = "0.1.0"
