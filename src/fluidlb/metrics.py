"""Performance functionals on fluid grids and Monte Carlo series.

The virtual wait of an arriving job under shortest-of-d routing is read
off the fluid state as a double sum over levels: waiting jobs ahead of
the arrival contribute their full (unit-mean) service times and the job
in service contributes its conditional residual, weighted by the rate at
which arrivals land on a queue of each length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrivals import ConstantRate, PeriodicRate
from .distributions import ServiceDistribution
from .fluid import (FluidGrid, FluidSolver, anderson, fixed_point_tails,
                    initial_grid, virtual_wait)

# Settings of the effective-rate solver.  The wait is recorded every
# WAIT_RESOLUTION time units (`wait_stride`).  The periodic steady state is
# a grid one period moves by at most PERIODIC_TOL, reached within
# MAX_HORIZON time units.  The matching rate is sought below RATE_CAP.
WAIT_RESOLUTION = 0.05
PERIODIC_TOL = 1e-10
MAX_HORIZON = 2000.0
RATE_CAP = 0.999
# A solved plateau decides the side of other rates only when it lies
# farther than this fraction of the target from it: the rounding noise of
# a plateau solve can break monotonicity only inside that band.  Two solves
# at rates 1e-14 apart differ by 3e-14 relative on the small test mesh and
# by up to 2e-10 near RATE_CAP on the effective_rate benchmark's mesh.
CLEAR_OF_TARGET = 1e-8

__all__ = [
    "MetricSeries",
    "mean_virtual_wait",
    "relaxation_time",
    "wait_stride",
    "EffectiveRateSolver",
]


@dataclass
class MetricSeries:
    """A named time series with optional replication error bars."""

    name: str
    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None
    replications: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.stderr is not None:
            self.stderr = np.asarray(self.stderr, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
        if self.stderr is not None and self.stderr.shape != self.times.shape:
            raise ValueError("stderr must match times")
        if self.times.size and np.any(np.diff(self.times) <= 0.0):
            raise ValueError(f"{self.name}: times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.name}: non-finite values")

    def at(self, t: float) -> float:
        idx = np.nonzero(np.abs(self.times - t) <= 1e-9)[0]
        if idx.size != 1:
            raise ValueError(f"{self.name}: no sample at t={t!r}")
        return float(self.values[idx[0]])


def mean_virtual_wait(values: np.ndarray, delta: float, d: int) -> float:
    """Mean virtual wait read off a fluid grid (levels x r points): the
    rule `fluid.virtual_wait` applied to its r = 0 column and its level
    profile integrals by the rectangle rule.
    """
    values = np.asarray(values)
    return virtual_wait(values[:, 0], values.sum(axis=1) * delta, d)


def relaxation_time(times, values) -> float | None:
    """First time the series drops to half its starting value, linearly
    interpolated between samples; None if it never halves (or starts at 0)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size == 0:
        raise ValueError("need matching 1-d times and values")
    start = values[0]
    if start <= 0.0:
        return None
    target = 0.5 * start
    below = np.nonzero(values <= target)[0]
    if below.size == 0:
        return None
    j = int(below[0])
    if j == 0:
        return float(times[0])
    t0, t1 = times[j - 1], times[j]
    v0, v1 = values[j - 1], values[j]
    return float(t0 + (v0 - target) * (t1 - t0) / (v0 - v1))


def wait_stride(delta: float, resolution: float = WAIT_RESOLUTION) -> int:
    """Steps between recorded waits: `resolution` in whole steps, at
    least one."""
    return max(1, round(resolution / delta))


class EffectiveRateSolver:
    """Maps a periodic arrival pattern to the constant rate with the same
    long-run mean virtual wait.

    The matching rate is, bit for bit, the answer of a bisection on the
    plateau wait between the mean rate and RATE_CAP, but only the
    plateaus that monotonicity cannot decide are solved.  The premise is
    that the plateau wait increases with the rate
    (`test_plateau_increases_with_rate`): a midpoint at or below a rate
    whose plateau is at most the target has a plateau at most the target
    too, and one at or above a rate whose plateau exceeds the target
    exceeds it too.  Solves carry rounding noise, so only a plateau
    farther than CLEAR_OF_TARGET (relative) from the target decides rates
    other than its own; the answer is the bisection's bit for bit where
    the noise of the computed plateaus stays inside that band.  The
    exponential closed form S_l = rate**((d**l - 1)/(d - 1)), shifted onto
    the plateau at the mean rate, predicts the bisection's final cell,
    whose ends are solved first; when the match lies in it, those ends
    decide every midpoint, and three plateaus are all the search solves.
    Otherwise the bisection solves the midpoints they leave open, so the
    search never solves more than two plateaus beyond the bisection's
    count.  The plateau at the cap is solved only when the bisection
    never moved its upper end: any midpoint whose plateau exceeds the
    target already shows that the cap's does.  Both sides are steady
    states of the scheme, solved by the same Anderson loop
    (`fluid.anderson`): each plateau is the wait at its fixed point under
    the constant rate, and the periodic average is the wait averaged over
    the period that its periodic fixed point repeats.
    """

    def __init__(self, dist: ServiceDistribution, levels: int,
                 r_max: float, delta: float, d: int = 2):
        self.dist = dist
        self.levels = levels
        self.r_max = r_max
        self.delta = delta
        self.d = d
        self.wait_stride = wait_stride(delta)

    def periodic_average(self, mean_rate: float, delta_rate: float,
                         period: float) -> float:
        """Period-averaged wait of the square-wave pattern in its periodic
        steady state.

        That state is the fixed point of the period map, found by
        `anderson`: the grid at the start of a period goes to the grid one
        period later.  A start that one period leaves in place to within
        PERIODIC_TOL is the fixed point, and the wait recorded over that
        period gives the average.
        """
        profile = PeriodicRate(mean_rate, delta_rate, period)
        solver = FluidSolver(self.dist, profile, self.levels, self.r_max,
                             self.delta, d=self.d)
        averages = []

        def period_map(x):
            traj = solver.solve(FluidGrid(x, self.delta), period,
                                wait_stride=self.wait_stride)
            if traj.wait_times.size < 8:
                raise ValueError(f"period {period!r} holds fewer than 8 "
                                 "wait samples")
            averages.append(float(np.trapezoid(traj.wait_values,
                                               traj.wait_times)) / period)
            return traj.final.values

        x = initial_grid(self.dist, self.levels, self.r_max, self.delta,
                         kind="fixed", jobs_per_queue=0).values
        residual = anderson(period_map, x, PERIODIC_TOL,
                            max(1, int(MAX_HORIZON / period)))[1]
        if residual > PERIODIC_TOL:
            raise RuntimeError(
                f"no periodic steady state within t={MAX_HORIZON:g} for the "
                f"pattern ({mean_rate:g}, {delta_rate:g}, {period:g}): the "
                f"last period moved the grid by {residual:.3e}"
            )
        return averages[-1]

    def plateau(self, rate: float) -> float:
        """Long-run wait under a constant rate: the mean virtual wait of
        the scheme's own fixed point, solved directly
        (`FluidSolver.fixed_point`) rather than marched to."""
        solver = FluidSolver(self.dist, ConstantRate(rate), self.levels,
                             self.r_max, self.delta, d=self.d)
        return mean_virtual_wait(solver.fixed_point().values, self.delta,
                                 self.d)

    def effective_rate(self, mean_rate: float, delta_rate: float,
                       period: float, tol: float = 1e-3) -> float:
        """Constant rate whose plateau wait matches the periodic average:
        the answer of bisecting [mean_rate, RATE_CAP] to width `tol`."""
        if not 0.0 < mean_rate < 1.0:
            raise ValueError("mean_rate must lie in (0, 1)")
        if delta_rate < 0.0 or delta_rate > mean_rate:
            raise ValueError("delta_rate must lie in [0, mean_rate]")
        if delta_rate == 0.0:
            return mean_rate
        target = self.periodic_average(mean_rate, delta_rate, period)
        solved = {mean_rate: self.plateau(mean_rate)}
        if solved[mean_rate] >= target:
            # the bursty pattern cannot sit below the flat one; a measured
            # gap at or under the plateau resolution is equality, so the
            # matching constant rate is the mean rate itself
            return mean_rate

        margin = CLEAR_OF_TARGET * target

        def above(rate):
            """Whether plateau(rate) > target: solved, decided by
            monotonicity from a plateau solved clear of the target, or
            solved now."""
            if rate in solved:
                return solved[rate] > target
            if any(r >= rate and w + margin <= target
                   for r, w in solved.items()):
                return False
            if any(r <= rate and w - margin > target
                   for r, w in solved.items()):
                return True
            solved[rate] = self.plateau(rate)
            return solved[rate] > target

        def closed_form(rate):
            """W_cf(rate): the sum of S_l(rate)**d over the levels."""
            return float(np.sum(fixed_point_tails(rate, self.levels,
                                                  self.d) ** self.d))

        # Solve the ends of the final cell that the closed form, shifted
        # onto the plateau at the mean rate, predicts: at most two solves
        # beyond the bisection's, which then solves only the midpoints
        # they leave open.
        shift = solved[mean_rate] - closed_form(mean_rate)
        for rate in _bisect(mean_rate, RATE_CAP, tol,
                            lambda rate: closed_form(rate) + shift > target):
            if rate < RATE_CAP and rate not in solved:
                solved[rate] = self.plateau(rate)
        lo, hi = _bisect(mean_rate, RATE_CAP, tol, above)
        # a plateau above the target below the cap puts the cap's above it
        if hi == RATE_CAP and self.plateau(hi) <= target:
            raise RuntimeError(
                f"periodic average {target:g} exceeds the plateau wait at "
                f"the rate cap {RATE_CAP:g}; no matching rate found"
            )
        return 0.5 * (lo + hi)


def _bisect(lo, hi, tol, above):
    """Bisect [lo, hi] while it is wider than tol and its midpoint lies
    strictly inside it: the midpoint becomes hi where `above` is true of
    it and lo where it is not.  Returns the final lo and hi."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is as narrow as floats allow
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi
