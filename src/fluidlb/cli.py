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
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .config import ConfigError, number, on_mesh
from .ctmc import CAP, queue_tail_marginals
from .fluid import InstabilityError
from .metrics import EffectiveRateSolver, wait_stride
from .scenario import parse_scenario
from .simulator import ensemble
from .studies import (PERIODIC, backlog_curve, backlog_relaxation_table,
                      check_pattern, parse_backlog, parse_periodic,
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


# rows formatted at once by `_write_chunks`: large enough to amortise the
# per-chunk calls, small enough that the cell text stays a few hundred KB
_CHUNK_ROWS = 2048


def _cells(values) -> list[str]:
    """CSV text of each element of a numeric array, as `_fmt` writes it."""
    return list(map(repr, values.tolist()))


def _write_chunks(path: Path, header, chunks):
    """Write a CSV file, a chunk of rows at a time, as `csv.writer` would
    write the cells' text: no cell holds a comma, a quote or a newline.

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


def _write_rows(path: Path, header, rows):
    """Write `rows` with `_write_chunks`, each cell as `_fmt` writes it."""
    columns = [list(map(_fmt, column)) for column in zip(*rows)]
    _write_chunks(path, header, [((), columns)] if columns else [])


def _read(args) -> str | None:
    """Text of the --config file; None without one."""
    if args.config is None:
        return None
    try:
        return Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _load_scenario(args):
    scenario = parse_scenario(_read(args))
    if getattr(args, "seed", None) is not None:
        scenario.require("sim")["seed"] = number(
            args.seed, "--seed", lo=0, hi=2 ** 64 - 1, integer=True)
    if getattr(args, "reps", None) is not None:
        scenario.require("sim")["replications"] = number(
            args.reps, "--reps", lo=2, integer=True)
    return scenario


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
        _write_rows(out / "pde_wait.csv", ["t", "W"], rows)
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
    _write_rows(_out_dir(args) / "metrics.csv",
                ["t", "metric", "ell", "mean", "stderr", "replications"],
                rows)
    return 0


def cmd_validate(args) -> int:
    scenario = _load_scenario(args)
    report = validate_scenario(scenario, tolerance=args.tolerance)
    _write_rows(_out_dir(args) / "validation.csv",
                ["source", "metric", "ell", "t", "pde", "estimate", "stderr",
                 "deviation", "allowed", "enforced", "passed"],
                map(astuple, report.rows))
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_scenario_backlog(args) -> int:
    params = parse_backlog(_read(args))
    out = _out_dir(args)
    wait_rows = []
    for family, shape in params["curve_shapes"]:
        curve = backlog_curve(family, shape, params)
        for t, w in zip(curve.times.tolist(), curve.waits.tolist()):
            wait_rows.append((family, shape, t, w))
    _write_rows(out / "backlog_wait.csv", ["family", "shape", "t", "wait"],
                wait_rows)

    rows = [(c.family, c.shape, c.median, c.relaxation)
            for c in backlog_relaxation_table(params)]
    _write_rows(out / "backlog_relaxation.csv",
                ["family", "shape", "median", "relaxation_time"], rows)
    return 0


def cmd_scenario_periodic(args) -> int:
    rows = periodic_rate_study(parse_periodic(_read(args)),
                               tol=args.tolerance)
    _write_rows(_out_dir(args) / "effective_rate.csv",
                ["family", "shape", "delta", "lambda_eff"],
                [(r.family, r.shape, r.delta, r.lambda_eff) for r in rows])
    return 0


def cmd_effective_rate(args) -> int:
    scenario = _load_scenario(args)
    arr = scenario.arrival
    if arr["kind"] != "periodic":
        raise ConfigError(f"arrival.kind: effective-rate needs 'periodic', "
                          f"got {arr['kind']!r}")
    # without a pde section, the periodic study's mesh, whose delta the
    # document does not set
    pde = scenario.pde or {"L0": PERIODIC["levels"], "R0": PERIODIC["r_max"],
                           "delta": PERIODIC["delta"]}
    dist = scenario.service_distribution()
    solver = EffectiveRateSolver(dist, pde["L0"], pde["R0"], pde["delta"],
                                 d=scenario.d)
    on_mesh(solver.r_max, solver.delta, "pde.R0")
    check_pattern(arr["mean_rate"], arr["period"], solver.delta, solver.d,
                  "arrival.", "pde.delta" if scenario.pde else None)
    lam = solver.effective_rate(arr["mean_rate"], arr["delta"],
                                arr["period"], tol=args.tolerance)
    shape = getattr(dist, dist.fields[0]) if len(dist.fields) == 1 else None
    _write_rows(_out_dir(args) / "effective_rate.csv",
                ["family", "shape", "delta", "lambda_eff"],
                [(dist.family, shape, arr["delta"], lam)])
    print(f"effective rate: {lam!r}")
    return 0


def cmd_oracle_ctmc(args) -> int:
    scenario = _load_scenario(args)
    sim = scenario.require("sim")
    for path, value, want in (
            ("service.family", scenario.service["family"], "exponential"),
            ("arrival.kind", scenario.arrival["kind"], "constant"),
            ("init.kind", scenario.init["kind"], "fixed")):
        if value != want:
            raise ConfigError(f"{path}: oracle-ctmc supports {want!r} only, "
                              f"got {value!r}")
    if sim["n"] > 3:
        raise ConfigError(f"sim.n: oracle-ctmc is exact and only tractable "
                          f"for n <= 3, got {sim['n']}")
    for path, value in (("init.jobs_per_queue",
                         scenario.init["jobs_per_queue"]),
                        ("sim.max_level", sim["max_level"])):
        if value > CAP:
            raise ConfigError(f"{path}: the oracle's lattice holds at most "
                              f"{CAP} jobs per server, got {value}")
    times = scenario.sample_times()
    result = queue_tail_marginals(
        sim["n"], scenario.arrival["rate"], times, d=scenario.d,
        jobs_per_queue=scenario.init["jobs_per_queue"],
        max_level=sim["max_level"])
    rows = ((float(t), level + 1, float(result.tails[j, level]))
            for j, t in enumerate(times)
            for level in range(result.tails.shape[1]))
    _write_rows(_out_dir(args) / "ctmc_tails.csv", ["t", "ell", "prob"], rows)
    return 0


def _positive_float(text: str) -> float:
    # a bisection to a tolerance of 0 or less never ends, one to an
    # infinite tolerance never starts, and validate passes every row
    try:
        return number(float(text), "--tolerance", above=0)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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
