"""Canned fluid-model studies behind the scenario-* command verbs.

Two experiments, both pure fluid-solver runs:

* backlog: hold the nominal rate, overload the system for a short
  window, then watch the mean virtual wait relax back.  The time for the
  wait to drop halfway back is compared across service distributions.
* periodic: square-wave arrivals; find the constant rate whose long-run
  wait matches the periodic pattern's period-averaged wait.

Each study's parameters are declared once, with their defaults, in
`BACKLOG` and `PERIODIC`: the keys of its `--config` document.
`parse_backlog` and `parse_periodic` read a document's overrides and
refuse a bad value at its key; `check_pattern` is the square-wave check
the periodic study shares with the `effective-rate` verb.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrivals import ConstantRate, PeriodicRate, PiecewiseRate
from .config import (ConfigError, check_keys, expect_mapping, number,
                     on_mesh, parse_json)
from .distributions import FAMILIES
from .fluid import FluidSolver, initial_grid
from .metrics import (MAX_HORIZON, EffectiveRateSolver, relaxation_time,
                      wait_stride)

__all__ = [
    "BACKLOG", "PERIODIC", "BacklogCurve", "EffectiveRateRow", "make_dist",
    "parse_backlog", "parse_periodic", "check_pattern", "backlog_curve",
    "backlog_relaxation_table", "periodic_rate_study",
]

# The backlog study: headline wait-relaxation curves for a light and a
# heavy Pareto tail on the step `delta`, and shape sweeps for the
# relaxation-versus-median table, ordered by increasing median within each
# family, on the step `table_delta`.
BACKLOG = {
    "curve_shapes": (("pareto", 1.25), ("pareto", 2.5)),
    "table_shapes": {"pareto": (1.25, 1.75, 2.5),
                     "lognormal": (1.5, 1.0, 0.5),
                     "weibull": (0.6, 0.8, 1.2)},
    "levels": 12, "r_max": 20.0, "delta": 2e-3, "table_delta": 5e-3,
    "horizon": 40.0, "nominal_rate": 0.6, "surge_rate": 5.0,
    "surge_duration": 2.0, "lead": 10.0, "wait_resolution": 0.05, "d": 2,
}

# The periodic study: every amplitude in `deltas` for each law in `shapes`.
PERIODIC = {
    "shapes": (("pareto", 1.5), ("pareto", 3.0)),
    "deltas": (0.0, 0.175, 0.35, 0.525, 0.7),
    "mean_rate": 0.7, "period": 2.0, "levels": 10, "r_max": 20.0,
    "delta": 5e-3, "d": 2,
}


def make_dist(family: str, shape: float | None):
    """Unit-mean service distribution from a family name and its single
    shape parameter (None for exponential, which has none)."""
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None or len(cls.fields) > 1:
        raise ValueError(f"no single-shape family named {family!r}")
    if not cls.fields and shape is not None:
        raise ValueError(f"{family} takes no shape, got {shape!r}")
    return cls(shape) if cls.fields else cls()


def _overrides(text, table) -> dict:
    """`table` with the values of the JSON object `text` (None: none)."""
    doc = {} if text is None else expect_mapping(parse_json(text),
                                                 "study parameters")
    check_keys(doc, "study parameters", required=(), optional=table)
    return {**table, **doc}


def _checked(build, path, *args):
    """Build a study's service law or arrival profile from its parameters;
    a value they reject is a config error at `path`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _shape_pairs(value, path) -> tuple:
    """Check a study's [[family, shape], ...] list, law by law."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of [family, shape]")
    for i, pair in enumerate(value):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError(f"{path}[{i}]: expected [family, shape]")
        _checked(make_dist, f"{path}[{i}]", *pair)
    return tuple(map(tuple, value))


def _check_mesh(params, deltas, spans, positive):
    """Check a study's mesh: level count and d, positive step sizes and
    `positive` keys, and every span (a sum of keys) a whole number of each
    step."""
    for key in ("levels", "d"):
        number(params[key], key, lo=1, integer=True)
    for key in ("r_max",) + deltas + positive:
        number(params[key], key, above=0)
    for key in deltas:
        for span in spans:
            on_mesh(sum(params[k] for k in span), params[key],
                    " + ".join(span))


def parse_backlog(text: str | None = None) -> dict:
    """The backlog study's parameters: BACKLOG with the overrides of the
    JSON object `text`; a ConfigError at the key of a bad value."""
    params = _overrides(text, BACKLOG)
    params["curve_shapes"] = _shape_pairs(params["curve_shapes"],
                                          "curve_shapes")
    table = expect_mapping(params["table_shapes"], "table_shapes")
    for family, shapes in table.items():
        if not isinstance(shapes, (list, tuple)):
            raise ConfigError(f"table_shapes.{family}: expected a list")
        for i, shape in enumerate(shapes):
            _checked(make_dist, f"table_shapes.{family}[{i}]", family, shape)
    params["table_shapes"] = {family: tuple(shapes)
                              for family, shapes in table.items()}
    for key in ("nominal_rate", "surge_rate"):
        number(params[key], key, lo=0)
    _check_mesh(params, ("delta", "table_delta"),
                (("r_max",), ("horizon",), ("lead", "surge_duration")),
                ("horizon", "lead", "surge_duration", "wait_resolution"))
    return params


def parse_periodic(text: str | None = None) -> dict:
    """The periodic study's parameters: PERIODIC with the overrides of the
    JSON object `text`; a ConfigError at the key of a bad value."""
    params = _overrides(text, PERIODIC)
    params["shapes"] = _shape_pairs(params["shapes"], "shapes")
    _check_mesh(params, ("delta",), (("r_max",),), ("period",))
    check_pattern(params["mean_rate"], params["period"], params["delta"],
                  params["d"])
    if not isinstance(params["deltas"], (list, tuple)):
        raise ConfigError("deltas: expected a list")
    for i, amp in enumerate(params["deltas"]):
        _checked(PeriodicRate, f"deltas[{i}]", params["mean_rate"], amp,
                 params["period"])
    params["deltas"] = tuple(params["deltas"])
    return params


def check_pattern(mean_rate, period, delta, d, prefix="",
                  delta_path="delta"):
    """Check a square wave the effective-rate solver can average on its
    mesh: a mean rate in (0, 1); delta * d below 1, which the plateau
    fixed points need at rates up to 1; a period of whole steps that
    holds the 8 wait samples `EffectiveRateSolver.periodic_average` needs;
    and two periods within `metrics.MAX_HORIZON`, since the first, from
    the empty grid, cannot find the start that one period leaves in place.
    The solver records the wait every `wait_stride(delta)` steps, one per
    `metrics.WAIT_RESOLUTION` time units, so 7 strides give 8 samples.
    A `delta_path` of None means the document sets no delta: it runs on
    the mesh of PERIODIC, and a delta * d of 1 or more is d's fault."""
    if not 0.0 < number(mean_rate, prefix + "mean_rate") < 1.0:
        raise ConfigError(f"{prefix}mean_rate: must lie in (0, 1)")
    if delta * d >= 1.0:
        if delta_path is None:
            raise ConfigError(f"d: {d} times delta = {delta!r} must stay "
                              "below 1; with no pde section, the mesh is the "
                              "one in studies.PERIODIC")
        raise ConfigError(f"{delta_path}: {delta!r} times d = {d} must stay "
                          "below 1")
    stride = wait_stride(delta)
    if on_mesh(period, delta, prefix + "period") < 7 * stride:
        raise ConfigError(f"{prefix}period: {period!r} holds fewer than 8 "
                          f"wait samples, one every {stride * delta:g}")
    if MAX_HORIZON / period < 2:
        raise ConfigError(f"{prefix}period: {period!r} fits fewer than 2 "
                          f"periods within t = {MAX_HORIZON:g}")


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


def backlog_curve(family: str, shape: float, params: dict = BACKLOG,
                  delta: float | None = None) -> BacklogCurve:
    """Wait relaxation after a rate surge, with the settings `params`
    (keys as BACKLOG) on the step `delta` (default: params["delta"]).

    The system runs at nominal_rate for `lead`, at surge_rate for
    `surge_duration`, and the surge end is relabeled t = 0; the solver
    then continues at nominal_rate for `horizon` while the mean virtual
    wait is recorded every `wait_resolution`.
    """
    if delta is None:
        delta = params["delta"]
    mesh = (params["levels"], params["r_max"], delta)
    nominal, d = params["nominal_rate"], params["d"]
    dist = make_dist(family, shape)
    schedule = PiecewiseRate([(params["lead"], nominal),
                              (params["surge_duration"],
                               params["surge_rate"])])
    grid = initial_grid(dist, *mesh, kind="backlog", schedule=schedule,
                        d=d)
    solver = FluidSolver(dist, ConstantRate(nominal), *mesh, d=d)
    traj = solver.solve(grid, params["horizon"], wait_stride=wait_stride(
        delta, params["wait_resolution"]))
    relax = relaxation_time(traj.wait_times, traj.wait_values)
    return BacklogCurve(family=family, shape=shape,
                        median=float(dist.inverse_ccdf(0.5)),
                        times=traj.wait_times, waits=traj.wait_values,
                        relaxation=relax)


def backlog_relaxation_table(params: dict = BACKLOG) -> list[BacklogCurve]:
    """Relaxation times across params["table_shapes"], on the step
    params["table_delta"]."""
    table = params["table_shapes"]
    return [backlog_curve(family, shape, params, params["table_delta"])
            for family in sorted(table) for shape in table[family]]


def periodic_rate_study(params: dict = PERIODIC,
                        tol: float = 1e-3) -> list[EffectiveRateRow]:
    """Effective constant rate of a square-wave pattern per amplitude,
    with one EffectiveRateSolver per distribution; `params` as PERIODIC."""
    rows = []
    for family, shape in params["shapes"]:
        dist = make_dist(family, shape)
        solver = EffectiveRateSolver(dist, params["levels"], params["r_max"],
                                     params["delta"], d=params["d"])
        for amp in params["deltas"]:
            lam = solver.effective_rate(params["mean_rate"], amp,
                                        params["period"], tol=tol)
            rows.append(EffectiveRateRow(family=family, shape=shape,
                                         delta=float(amp),
                                         lambda_eff=float(lam)))
    return rows
