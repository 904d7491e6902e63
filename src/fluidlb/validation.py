"""Cross-validation of the Monte Carlo simulator against the fluid
solver on a shared scenario.

The comparison covers the queue-length tail fractions at every sample
time.  A row passes when the deviation is within max(tolerance, 4 SE),
so statistical noise never produces a spurious failure at large
replication counts while a real bias still trips the bound.  For
exponential service the trajectory is additionally checked against the
closed ODE reduction, which is an independent integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import ConfigError, number, on_mesh
from .fluid import FluidSolver, exponential_ode_tails, initial_grid
from .metrics import mean_virtual_wait
from .scenario import Scenario
from .simulator import ensemble

__all__ = ["ValidationRow", "ValidationReport", "ensemble_args",
           "fluid_parts", "validate_scenario"]


@dataclass
class ValidationRow:
    """One comparison, its fields in the column order of validation.csv."""

    source: str        # "mc-vs-pde" or "ode-vs-pde"
    metric: str
    level: int         # 0 for the wait metric
    time: float
    reference: float   # fluid solver value
    estimate: float
    stderr: float
    deviation: float
    envelope: float
    enforced: bool
    passed: bool

    def line(self) -> str:
        mark = ("pass" if self.passed else "FAIL") if self.enforced \
            else "info"
        return (f"[{mark}] {self.source} {self.metric} t={self.time:g}: "
                f"pde={self.reference:.6f} other={self.estimate:.6f} "
                f"|dev|={self.deviation:.2e} allowed={self.envelope:.2e}")


@dataclass
class ValidationReport:
    tolerance: float
    rows: list

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows if row.enforced)

    def failures(self) -> list:
        return [row for row in self.rows if row.enforced and not row.passed]

    def per_metric(self) -> dict:
        """metric -> (max deviation, max allowed, verdict) over its rows;
        the verdict is 'info' for metrics that are reported but not gated."""
        out = {}
        for row in self.rows:
            dev, env, ok, enf = out.get(row.metric, (0.0, 0.0, True, False))
            out[row.metric] = (max(dev, row.deviation),
                               max(env, row.envelope),
                               ok and (row.passed or not row.enforced),
                               enf or row.enforced)
        return {m: (dev, env,
                    ("ok" if ok else "FAIL") if enf else "info")
                for m, (dev, env, ok, enf) in out.items()}

    def lines(self) -> list:
        out = [row.line() for row in self.rows]
        for metric, (dev, env, verdict) in sorted(self.per_metric().items()):
            out.append(f"{metric}: max |dev| {dev:.3e} (allowed up to "
                       f"{env:.3e}) {verdict}")
        n_fail = len(self.failures())
        n_enf = sum(row.enforced for row in self.rows)
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{verdict}: {n_enf - n_fail}/{n_enf} enforced "
                   f"comparisons within tolerance {self.tolerance:g}")
        return out


def fluid_parts(scenario: Scenario):
    """Build (solver, initial grid) from the scenario's pde section.

    R0, the horizon, every output time and a backlog schedule must each
    be a whole number of steps, and a fixed start may hold at most L0 jobs
    per queue; a config error names the first key that breaks this.
    """
    pde = scenario.require("pde")
    on_mesh(pde["R0"], pde["delta"], "pde.R0")
    on_mesh(pde["horizon"], pde["delta"], "pde.horizon")
    for i, t in enumerate(pde.get("output_times", [])):
        on_mesh(t, pde["delta"], f"pde.output_times[{i}]", least=0)
    dist = scenario.service_distribution()
    profile = scenario.arrival_profile()
    start = scenario.start()
    if start["kind"] == "stationary_ages" and pde["L0"] < 2:
        raise ConfigError("pde.L0: the stationary_ages start needs at least "
                          "2 levels")
    jobs = start.get("jobs_per_queue", 1)
    if start["kind"] == "fixed" and jobs > pde["L0"]:
        raise ConfigError(f"init.jobs_per_queue: {jobs} jobs per queue need "
                          f"pde.L0 >= {jobs}, got {pde['L0']}")
    if "schedule" in start:
        on_mesh(start["schedule"].cycle_length, pde["delta"], "init.schedule")
    grid = initial_grid(dist, pde["L0"], pde["R0"], pde["delta"],
                        d=scenario.d, **start)
    solver = FluidSolver(dist, profile, pde["L0"], pde["R0"], pde["delta"],
                         d=scenario.d)
    return solver, grid


def ensemble_args(scenario: Scenario) -> dict:
    """Keyword arguments of the `simulator.ensemble` call that the
    scenario's sim section describes."""
    sim = scenario.require("sim")
    return dict(
        n=sim["n"], dist=scenario.service_distribution(),
        profile=scenario.arrival_profile(),
        sample_times=scenario.sample_times(), d=scenario.d,
        replications=sim["replications"], seed=sim["seed"],
        max_level=sim["max_level"], wait_bin_width=sim["wait_bin_width"],
        horizon=sim.get("horizon"), **scenario.start())


def validate_scenario(scenario: Scenario,
                      tolerance: float = 0.03) -> ValidationReport:
    """Run both engines on `scenario` and compare tail fractions."""
    sim = scenario.require("sim")
    pde = scenario.require("pde")
    times = scenario.sample_times()
    if times[-1] > pde["horizon"] + 1e-9:
        raise ConfigError("sim.sample_times: extend past pde.horizon")
    number(tolerance, "tolerance", above=0)
    for j, t in enumerate(sim["sample_times"]):
        on_mesh(t, pde["delta"], f"sim.sample_times[{j}]", least=0)

    solver, grid = fluid_parts(scenario)
    tails0 = grid.tails.copy()
    traj = solver.solve(grid, horizon=pde["horizon"], slice_times=times)

    ens = ensemble(**ensemble_args(scenario))

    rows = []

    def compare(source, metric, level, t, ref, est, se, floor,
                enforced=True):
        """Add the row of one comparison; it passes when |est - ref| is
        within max(floor, 4 SE)."""
        est, se = float(est), float(se)
        dev = abs(est - ref)
        env = max(floor, 4.0 * se)
        rows.append(ValidationRow(source, metric, level, float(t), ref, est,
                                  se, dev, env, enforced, bool(dev <= env)))

    # The wait functional truncates its residual-life integral at R0, so
    # for heavy-tailed service it sits below the simulator by a margin
    # that never shrinks with more replications.  Its deviation (level 0)
    # is reported but not gated; the tail fractions carry the pass or
    # fail decision.
    top = min(sim["max_level"], pde["L0"])
    tails = [(f"tail_ge_{level}", level) for level in range(1, top + 1)]
    for metric, level in tails + [("virtual_wait", 0)]:
        series = ens.series[metric]
        for j, t in enumerate(times):
            ref = (traj.tail_at(t, level) if level else
                   mean_virtual_wait(traj.slice_at(t), solver.delta, solver.d))
            compare("mc-vs-pde", metric, level, t, ref, series.values[j],
                    series.stderr[j], tolerance, enforced=level > 0)

    if scenario.service["family"] == "exponential":
        # ODE step that divides the pde mesh so sample times land on it
        step = pde["delta"] / math.ceil(pde["delta"] / 1e-3)
        _, ode = exponential_ode_tails(solver.profile, tails0, pde["horizon"],
                                       step=step, d=solver.d)
        for metric, level in tails:
            for t in times:
                compare("ode-vs-pde", metric, level, t, traj.tail_at(t, level),
                        ode[int(round(t / step)), level - 1], 0.0,
                        max(tolerance, 1e-3))

    return ValidationReport(tolerance=tolerance, rows=rows)
