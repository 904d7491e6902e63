"""Canned fluid-model studies behind the scenario-* command verbs.

Two experiments, both pure fluid-solver runs:

* backlog: hold the nominal rate, overload the system for a short
  window, then watch the mean virtual wait relax back.  The time for the
  wait to drop halfway back is compared across service distributions.
* periodic: square-wave arrivals; find the constant rate whose long-run
  wait matches the periodic pattern's period-averaged wait.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrivals import ConstantRate, PiecewiseRate
from .distributions import _FAMILIES, distribution_from_config
from .fluid import FluidSolver, backlog_grid
from .metrics import EffectiveRateSolver, relaxation_time, wait_stride

__all__ = [
    "BACKLOG_CURVE_SHAPES", "BACKLOG_TABLE_SHAPES", "PERIODIC_SHAPES",
    "PERIODIC_DELTAS", "BacklogCurve", "EffectiveRateRow", "make_dist",
    "backlog_curve", "backlog_relaxation_table", "periodic_rate_study",
]

# Headline wait-relaxation curves: a light and a heavy Pareto tail.
BACKLOG_CURVE_SHAPES = (("pareto", 1.25), ("pareto", 2.5))

# Shape sweeps for the relaxation-versus-median table, ordered by
# increasing median within each family.
BACKLOG_TABLE_SHAPES = {
    "pareto": (1.25, 1.75, 2.5),
    "lognormal": (1.5, 1.0, 0.5),
    "weibull": (0.6, 0.8, 1.2),
}

PERIODIC_SHAPES = (("pareto", 1.5), ("pareto", 3.0))
PERIODIC_DELTAS = (0.0, 0.175, 0.35, 0.525, 0.7)


def make_dist(family: str, shape: float | None):
    """Unit-mean service distribution from a family name and its single
    shape parameter (None for exponential)."""
    cls = _FAMILIES.get(family)
    if cls is None or len(cls.fields) > 1:
        raise ValueError(f"no single-shape family named {family!r}")
    return distribution_from_config({"family": family,
                                     **dict(zip(cls.fields, [shape]))})


@dataclass
class BacklogCurve:
    family: str
    shape: float
    median: float
    times: object           # wait sample times, t = 0 at the surge end
    waits: object
    relaxation: float | None


@dataclass
class EffectiveRateRow:
    family: str
    shape: float
    delta: float
    lambda_eff: float


def backlog_curve(family: str, shape: float, levels: int = 12,
                  r_max: float = 20.0, delta: float = 2e-3,
                  horizon: float = 40.0, nominal_rate: float = 0.6,
                  surge_rate: float = 5.0, surge_duration: float = 2.0,
                  lead: float = 10.0, wait_resolution: float = 0.05,
                  d: int = 2) -> BacklogCurve:
    """Wait relaxation after a rate surge.

    The system runs at nominal_rate for `lead`, at surge_rate for
    `surge_duration`, and the surge end is relabeled t = 0; the solver
    then continues at nominal_rate for `horizon` while the mean virtual
    wait is recorded every `wait_resolution`.
    """
    dist = make_dist(family, shape)
    schedule = PiecewiseRate([(lead, nominal_rate),
                              (surge_duration, surge_rate)], repeat=False)
    grid = backlog_grid(dist, schedule, levels, r_max, delta, d=d)
    solver = FluidSolver(dist, ConstantRate(nominal_rate), levels, r_max,
                         delta, d=d)
    traj = solver.solve(grid, horizon,
                        wait_stride=wait_stride(delta, wait_resolution))
    relax = relaxation_time(traj.wait_times, traj.wait_values)
    return BacklogCurve(family=family, shape=shape,
                        median=float(dist.inverse_ccdf(0.5)),
                        times=traj.wait_times, waits=traj.wait_values,
                        relaxation=relax)


def backlog_relaxation_table(table: dict | None = None,
                             **kwargs) -> list[BacklogCurve]:
    """Relaxation times across shape sweeps; kwargs as backlog_curve."""
    if table is None:
        table = BACKLOG_TABLE_SHAPES
    rows = []
    for family in sorted(table):
        for shape in table[family]:
            rows.append(backlog_curve(family, shape, **kwargs))
    return rows


def periodic_rate_study(shapes=PERIODIC_SHAPES, deltas=PERIODIC_DELTAS,
                        mean_rate: float = 0.7, period: float = 2.0,
                        tol: float = 1e-3, levels: int = 10,
                        r_max: float = 20.0, delta: float = 5e-3,
                        d: int = 2) -> list[EffectiveRateRow]:
    """Effective constant rate of a square-wave pattern per amplitude,
    with one EffectiveRateSolver per distribution."""
    rows = []
    for family, shape in shapes:
        dist = make_dist(family, shape)
        solver = EffectiveRateSolver(dist, levels=levels, r_max=r_max,
                                     delta=delta, d=d)
        for amp in deltas:
            lam = solver.effective_rate(mean_rate, amp, period, tol=tol)
            rows.append(EffectiveRateRow(family=family, shape=shape,
                                         delta=float(amp),
                                         lambda_eff=float(lam)))
    return rows
