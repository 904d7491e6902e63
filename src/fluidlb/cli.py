"""Command line interface.

Verbs:
  solve-pde         fluid solver run from a scenario config
  simulate          Monte Carlo ensemble from a scenario config
  validate          run both and compare (exit 1 on mismatch)
  scenario-backlog  canned rate-surge relaxation study
  scenario-periodic canned square-wave effective-rate sweep
  effective-rate    effective rate of one configured periodic pattern
  oracle-ctmc       exact transient marginals for small exponential systems

All outputs are CSV files under --out (default: current directory).
Exit codes: 0 success, 1 validation failure, 2 bad config or arguments
(ConfigError), 3 numerical instability or failure (InstabilityError,
RuntimeError), 4 a fault inside the program: any other exception, which
`main` lets through for `python -m fluidlb` and the `fluidlb` entry point
to report with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .arrivals import profile_from_config
from .ctmc import CAP, queue_tail_marginals
from .fluid import InstabilityError
from .metrics import EffectiveRateSolver, wait_stride
from .scenario import ConfigError, number, on_mesh, parse_scenario
from .simulator import ensemble
from .studies import (BACKLOG_CURVE_SHAPES, BACKLOG_TABLE_SHAPES,
                      PERIODIC_DELTAS, PERIODIC_SHAPES, backlog_curve,
                      backlog_relaxation_table, make_dist,
                      periodic_rate_study)
from .validation import ensemble_args, fluid_parts, validate_scenario

__all__ = ["main"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # plain shortest-repr float, also for numpy scalars
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    print(f"wrote {path}")


# rows formatted at once by `_write_chunks`: large enough to amortise the
# per-chunk calls, small enough that the cell text stays a few hundred KB
_CHUNK_ROWS = 2048


def _cells(values) -> list[str]:
    """CSV text of each element of a numeric array, as `_fmt` writes it."""
    return list(map(repr, values.tolist()))


def _write_chunks(path: Path, header, chunks):
    """Write the same bytes as `_write_csv`, a chunk of rows at a time.

    Each chunk is (lead, columns): the cells shared by its rows and, for
    the remaining cells, equal-length lists of their text (`_cells`).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lead, columns in chunks:
            row = "".join(_fmt(v) + "," for v in lead)
            row += ",".join(["{}"] * len(columns)) + "\r\n"
            fh.write("".join(map(row.format, *columns)))
    print(f"wrote {path}")


def _load_scenario(args):
    if args.config is None:
        raise ConfigError("this command needs --config")
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    scenario = parse_scenario(text)
    if getattr(args, "seed", None) is not None:
        scenario.require("sim")["seed"] = args.seed
    if getattr(args, "reps", None) is not None:
        if args.reps < 2:
            raise ConfigError("--reps must be at least 2")
        scenario.require("sim")["replications"] = args.reps
    return scenario


def _load_params(args) -> dict:
    """Optional parameter document for the self-contained study verbs."""
    if args.config is None:
        return {}
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    import json
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("study parameters: expected an object")
    return data


def _take(params: dict, allowed: dict) -> dict:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"study parameters: unknown keys {sorted(unknown)}")
    out = dict(allowed)
    out.update(params)
    return out


def _checked(build, path, *args):
    """Build a study's service law or arrival profile from its parameters;
    a value they reject is a config error at `path`."""
    try:
        return build(*args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _shape_pairs(value, path) -> list:
    """Check a study's [[family, shape], ...] list, law by law."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of [family, shape]")
    for i, pair in enumerate(value):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"{path}[{i}]: expected [family, shape]")
        _checked(make_dist, f"{path}[{i}]", *pair)
    return [tuple(pair) for pair in value]


def _positive(params, keys):
    for key in keys:
        if number(params[key], key) <= 0:
            raise ConfigError(f"{key}: must be positive")


def _check_mesh(params, deltas, spans):
    """Check a study's mesh: level count and d, positive step sizes, and
    every span a whole number of each step."""
    for key in ("levels", "d"):
        number(params[key], key, lo=1, integer=True)
    _positive(params, ("r_max",) + deltas)
    for key in deltas:
        for path, span in spans.items():
            on_mesh(span, params[key], path)


def _check_pattern(mean_rate, period, delta, d, prefix="",
                   delta_path="delta"):
    """Check a square wave the effective-rate solver can average on its
    mesh: a mean rate in (0, 1); delta * d below 1, which the plateau
    fixed points need at rates up to 1; and a period of whole steps that
    holds the 8 wait samples `EffectiveRateSolver.periodic_average` needs.
    The solver records the wait every `wait_stride(delta)` steps, one per
    `metrics.WAIT_RESOLUTION` time units, so 7 strides give 8 samples."""
    if not 0.0 < number(mean_rate, prefix + "mean_rate") < 1.0:
        raise ConfigError(f"{prefix}mean_rate: must lie in (0, 1)")
    if delta * d >= 1.0:
        raise ConfigError(f"{delta_path}: {delta!r} times d = {d} must stay "
                          "below 1")
    stride = wait_stride(delta)
    if on_mesh(period, delta, prefix + "period") < 7 * stride:
        raise ConfigError(f"{prefix}period: {period!r} holds fewer than 8 "
                          f"wait samples, one every {stride * delta:g}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve_pde(args) -> int:
    scenario = _load_scenario(args)
    pde = scenario.require("pde")
    solver, grid = fluid_parts(scenario)
    output_times = pde.get("output_times", [])
    stride = pde.get("wait_stride", wait_stride(pde["delta"]))
    traj = solver.solve(grid, horizon=pde["horizon"],
                        slice_times=output_times, wait_stride=stride)
    out = _out_dir(args)

    levels = solver.levels
    steps = max(1, _CHUNK_ROWS // levels)
    ell = _cells(np.tile(np.arange(1, levels + 1), steps))

    def tail_chunks():
        for m in range(0, traj.times.size, steps):
            tails = traj.tails[m:m + steps].ravel()
            # each time formatted once, then repeated on its levels' rows
            times = [cell for cell in _cells(traj.times[m:m + steps])
                     for _ in range(levels)]
            yield (), (times, ell[:tails.size], _cells(tails))

    _write_chunks(out / "pde_tails.csv", ["t", "ell", "Z_at_r0"],
                  tail_chunks())

    if output_times:
        r = _cells(grid.r_grid)
        chunks = (((t, level + 1),
                   (r[j:j + _CHUNK_ROWS],
                    _cells(traj.slice_at(t)[level, j:j + _CHUNK_ROWS])))
                  for t in output_times for level in range(levels)
                  for j in range(0, len(r), _CHUNK_ROWS))
        _write_chunks(out / "pde_slices.csv", ["t", "ell", "r", "Z"], chunks)

    if traj.wait_times is not None:
        rows = zip(traj.wait_times.tolist(), traj.wait_values.tolist())
        _write_csv(out / "pde_wait.csv", ["t", "W"], rows)
    return 0


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    ens = ensemble(**ensemble_args(scenario))
    rows = []
    for name in sorted(ens.series):
        series = ens.series[name]
        level = int(name.rsplit("_", 1)[1]) if name.startswith("tail_ge_") \
            else None
        for j, t in enumerate(series.times):
            se = None if series.stderr is None else float(series.stderr[j])
            rows.append((float(t), name, level, float(series.values[j]),
                         se, series.replications))
    _write_csv(_out_dir(args) / "metrics.csv",
               ["t", "metric", "ell", "mean", "stderr", "replications"],
               rows)
    return 0


def cmd_validate(args) -> int:
    scenario = _load_scenario(args)
    report = validate_scenario(scenario, tolerance=args.tolerance)
    rows = [(row.source, row.metric, row.level, row.time, row.reference,
             row.estimate, row.stderr, row.deviation, row.envelope,
             row.enforced, row.passed) for row in report.rows]
    _write_csv(_out_dir(args) / "validation.csv",
               ["source", "metric", "ell", "t", "pde", "estimate", "stderr",
                "deviation", "allowed", "enforced", "passed"],
               rows)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_scenario_backlog(args) -> int:
    params = _take(_load_params(args), {
        "curve_shapes": [list(p) for p in BACKLOG_CURVE_SHAPES],
        "table_shapes": {k: list(v) for k, v in BACKLOG_TABLE_SHAPES.items()},
        "levels": 12, "r_max": 20.0, "delta": 2e-3, "table_delta": 5e-3,
        "horizon": 40.0, "nominal_rate": 0.6, "surge_rate": 5.0,
        "surge_duration": 2.0, "lead": 10.0, "wait_resolution": 0.05,
        "d": 2,
    })
    _shape_pairs(params["curve_shapes"], "curve_shapes")
    if not isinstance(params["table_shapes"], dict):
        raise ConfigError("table_shapes: expected an object")
    for family, shapes in params["table_shapes"].items():
        if not isinstance(shapes, list):
            raise ConfigError(f"table_shapes.{family}: expected a list")
        for i, shape in enumerate(shapes):
            _checked(make_dist, f"table_shapes.{family}[{i}]", family, shape)
    _positive(params, ("horizon", "lead", "surge_duration",
                       "wait_resolution"))
    for key in ("nominal_rate", "surge_rate"):
        number(params[key], key, lo=0)
    _check_mesh(params, ("delta", "table_delta"), {
        "r_max": params["r_max"], "horizon": params["horizon"],
        "lead + surge_duration": params["lead"] + params["surge_duration"]})
    common = {k: params[k] for k in ("levels", "r_max", "horizon",
                                     "nominal_rate", "surge_rate",
                                     "surge_duration", "lead",
                                     "wait_resolution", "d")}
    out = _out_dir(args)

    wait_rows = []
    for family, shape in params["curve_shapes"]:
        curve = backlog_curve(family, shape, delta=params["delta"], **common)
        for t, w in zip(curve.times.tolist(), curve.waits.tolist()):
            wait_rows.append((family, shape, t, w))
    _write_csv(out / "backlog_wait.csv", ["family", "shape", "t", "wait"],
               wait_rows)

    table = backlog_relaxation_table(params["table_shapes"],
                                     delta=params["table_delta"], **common)
    rows = [(c.family, c.shape, c.median, c.relaxation) for c in table]
    _write_csv(out / "backlog_relaxation.csv",
               ["family", "shape", "median", "relaxation_time"], rows)
    return 0


def cmd_scenario_periodic(args) -> int:
    params = _take(_load_params(args), {
        "shapes": [list(p) for p in PERIODIC_SHAPES],
        "deltas": list(PERIODIC_DELTAS),
        "mean_rate": 0.7, "period": 2.0, "levels": 10, "r_max": 20.0,
        "delta": 5e-3, "d": 2,
    })
    shapes = _shape_pairs(params["shapes"], "shapes")
    _positive(params, ("period",))
    _check_mesh(params, ("delta",), {"r_max": params["r_max"]})
    _check_pattern(params["mean_rate"], params["period"], params["delta"],
                   params["d"])
    if not isinstance(params["deltas"], list):
        raise ConfigError("deltas: expected a list")
    for i, amp in enumerate(params["deltas"]):
        _checked(profile_from_config, f"deltas[{i}]", {
            "kind": "periodic", "mean_rate": params["mean_rate"],
            "delta": amp, "period": params["period"]})
    rows = periodic_rate_study(
        shapes=shapes, deltas=params["deltas"],
        mean_rate=params["mean_rate"], period=params["period"],
        tol=args.tolerance, levels=params["levels"], r_max=params["r_max"],
        delta=params["delta"], d=params["d"])
    _write_csv(_out_dir(args) / "effective_rate.csv",
               ["family", "shape", "delta", "lambda_eff"],
               [(r.family, r.shape, r.delta, r.lambda_eff) for r in rows])
    return 0


def cmd_effective_rate(args) -> int:
    scenario = _load_scenario(args)
    if scenario.arrival["kind"] != "periodic":
        raise ConfigError("effective-rate needs arrival.kind == 'periodic'")
    arr = scenario.arrival
    pde = scenario.pde or {}
    solver = EffectiveRateSolver(
        scenario.service_distribution(),
        levels=pde.get("L0", 10), r_max=pde.get("R0", 20.0),
        delta=pde.get("delta", 5e-3), d=scenario.d)
    on_mesh(solver.r_max, solver.delta, "pde.R0")
    _check_pattern(arr["mean_rate"], arr["period"], solver.delta, solver.d,
                   "arrival.", "pde.delta")
    lam = solver.effective_rate(arr["mean_rate"], arr["delta"],
                                arr["period"], tol=args.tolerance)
    family = scenario.service["family"]
    shapes = [v for k, v in sorted(scenario.service.items())
              if k != "family"]
    shape = shapes[0] if len(shapes) == 1 else None
    _write_csv(_out_dir(args) / "effective_rate.csv",
               ["family", "shape", "delta", "lambda_eff"],
               [(family, shape, arr["delta"], lam)])
    print(f"effective rate: {lam!r}")
    return 0


def cmd_oracle_ctmc(args) -> int:
    scenario = _load_scenario(args)
    sim = scenario.require("sim")
    if scenario.service["family"] != "exponential":
        raise ConfigError("oracle-ctmc supports exponential service only")
    if scenario.arrival["kind"] != "constant":
        raise ConfigError("oracle-ctmc supports constant arrivals only")
    if scenario.init["kind"] != "fixed":
        raise ConfigError("oracle-ctmc supports the fixed start only")
    if sim["n"] > 3:
        raise ConfigError("oracle-ctmc is exact and only tractable for "
                          "n <= 3")
    if scenario.init["jobs_per_queue"] > CAP:
        raise ConfigError(f"init.jobs_per_queue: the oracle's lattice holds "
                          f"at most {CAP} jobs per server")
    times = scenario.sample_times()
    result = queue_tail_marginals(
        sim["n"], scenario.arrival["rate"], times, d=scenario.d,
        jobs_per_queue=scenario.init["jobs_per_queue"],
        max_level=min(sim["max_level"], 3))
    rows = ((float(t), level + 1, float(result.tails[j, level]))
            for j, t in enumerate(times)
            for level in range(result.tails.shape[1]))
    _write_csv(_out_dir(args) / "ctmc_tails.csv", ["t", "ell", "prob"], rows)
    return 0


def _positive_float(text: str) -> float:
    # a bisection to a tolerance of 0 or less never ends
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidlb",
        description="Fluid-model and Monte Carlo analysis of "
                    "shortest-of-d load balancing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        if flags.get("config"):
            p.add_argument("--config", metavar="PATH",
                           required=flags["config"] == "required")
        if flags.get("out", True):
            p.add_argument("--out", metavar="DIR", default=".")
        if flags.get("seed"):
            p.add_argument("--seed", type=int, metavar="U64")
        if flags.get("reps"):
            p.add_argument("--reps", type=int, metavar="N")
        if flags.get("tolerance"):
            p.add_argument("--tolerance", type=_positive_float,
                           default=flags["tolerance"], metavar="F")
        p.set_defaults(func=func)
        return p

    add("solve-pde", cmd_solve_pde, config="required")
    add("simulate", cmd_simulate, config="required", seed=True, reps=True)
    add("validate", cmd_validate, config="required", seed=True, reps=True,
        tolerance=0.03)
    add("scenario-backlog", cmd_scenario_backlog, config="optional")
    add("scenario-periodic", cmd_scenario_periodic, config="optional",
        tolerance=1e-3)
    add("effective-rate", cmd_effective_rate, config="required",
        tolerance=1e-3)
    add("oracle-ctmc", cmd_oracle_ctmc, config="required")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
