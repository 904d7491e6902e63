"""Mean-field toolkit for shortest-of-d load-balancing networks.

A discrete-event simulator for N parallel FIFO servers under
power-of-d routing, a finite-difference solver for the matching
fluid (mean-field) equations with general service times, and the
metrics layer that compares the two.
"""

from .arrivals import (
    ArrivalProfile,
    ConstantRate,
    PeriodicRate,
    PiecewiseRate,
    Segment,
    profile_from_config,
)
from .ctmc import TransientTails, queue_tail_marginals
from .distributions import (
    Exponential,
    GammaService,
    HyperExponential,
    LogNormalService,
    ParetoService,
    ServiceDistribution,
    SurvivalUnderflow,
    WeibullService,
    distribution_from_config,
)
from .fluid import (
    FluidGrid,
    FluidSolver,
    FluidTrajectory,
    InstabilityError,
    backlog_grid,
    exponential_ode_tails,
    fixed_point_tails,
    initial_grid,
)
from .metrics import (
    EffectiveRateSolver,
    MetricSeries,
    mean_virtual_wait,
    relaxation_time,
)
from .scenario import (
    ConfigError,
    Scenario,
    parse_scenario,
    render_scenario,
    scenario_from_dict,
)
from .simulator import (
    EnsembleResult,
    Network,
    RunResult,
    ensemble,
    initial_network,
    run,
)
from .validation import ValidationReport, ValidationRow, validate_scenario

__version__ = "0.1.0"

__all__ = [
    "ArrivalProfile",
    "ConstantRate",
    "PeriodicRate",
    "PiecewiseRate",
    "Segment",
    "profile_from_config",
    "ServiceDistribution",
    "Exponential",
    "ParetoService",
    "LogNormalService",
    "GammaService",
    "HyperExponential",
    "WeibullService",
    "SurvivalUnderflow",
    "distribution_from_config",
    "FluidGrid",
    "FluidSolver",
    "FluidTrajectory",
    "InstabilityError",
    "backlog_grid",
    "exponential_ode_tails",
    "fixed_point_tails",
    "initial_grid",
    "EffectiveRateSolver",
    "MetricSeries",
    "mean_virtual_wait",
    "relaxation_time",
    "Network",
    "RunResult",
    "EnsembleResult",
    "initial_network",
    "run",
    "ensemble",
    "TransientTails",
    "queue_tail_marginals",
    "ConfigError",
    "Scenario",
    "parse_scenario",
    "render_scenario",
    "scenario_from_dict",
    "ValidationReport",
    "ValidationRow",
    "validate_scenario",
    "__version__",
]
