"""Performance functionals on fluid grids and Monte Carlo series.

The virtual wait of an arriving job under shortest-of-d routing is read
off the fluid state as a double sum over levels: waiting jobs ahead of
the arrival contribute their full (unit-mean) service times and the job
in service contributes its conditional residual, weighted by the rate at
which arrivals land on a queue of each length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import ConstantRate, PeriodicRate
from .distributions import ServiceDistribution
from .fluid import FluidSolver, FluidTrajectory, initial_grid, routing_weights

__all__ = [
    "MetricSeries",
    "mean_virtual_wait",
    "relaxation_time",
    "period_averaged_wait",
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
    source: str = ""
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
    """Mean virtual wait read off a fluid grid (levels x r points).

    Queued jobs ahead of a virtual arrival contribute the tail fractions
    to the power d (sum over l >= 2 of T_l^d); the in-service job's
    conditional residual contributes a rectangle-rule integral of the
    level profile differences, weighted by the rate at which a
    shortest-of-d arrival joins each level.
    """
    values = np.asarray(values)
    col0 = values[:, 0]
    total = float(np.dot(col0[1:] ** (d - 1), col0[1:]))
    # level profile integrals, with the all-zero closure row above the top
    sums = values.sum(axis=1) * delta
    diff_int = np.empty(values.shape[0])
    diff_int[:-1] = sums[:-1] - sums[1:]
    diff_int[-1] = sums[-1]
    above = np.append(col0[1:], 0.0)
    total += float(np.dot(routing_weights(col0, above, d), diff_int))
    return total


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


def period_averaged_wait(times, values, period: float,
                         warm_periods: int = 5) -> float:
    """Time average of a wait series over the last whole period recorded,
    requiring warm_periods full periods to have elapsed first."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if period <= 0.0:
        raise ValueError("period must be positive")
    t_hi = math.floor(times[-1] / period + 1e-9) * period
    t_lo = t_hi - period
    if t_lo < warm_periods * period - 1e-9:
        raise ValueError(
            f"series ends at {times[-1]!r}: need {warm_periods} warm-up "
            f"periods plus one to average over"
        )
    mask = (times >= t_lo - 1e-9) & (times <= t_hi + 1e-9)
    if mask.sum() < 8:
        raise ValueError("too few samples in the averaging window")
    return float(np.trapezoid(values[mask], times[mask])) / period


def wait_stride(delta: float, resolution: float = 0.05) -> int:
    """Steps between recorded waits: `resolution` in whole steps, at
    least one."""
    return max(1, round(resolution / delta))


class EffectiveRateSolver:
    """Maps a periodic arrival pattern to the constant rate with the same
    long-run mean virtual wait.

    The plateau wait under a constant rate is increasing in the rate, so
    the matching rate is found by bisection.  Each plateau is the wait at
    the discrete scheme's fixed point, solved directly; the periodic
    average is still marched in time until it settles.
    """

    def __init__(self, dist: ServiceDistribution, levels: int = 10,
                 r_max: float = 20.0, delta: float = 5e-3, d: int = 2,
                 wait_resolution: float = 0.05,
                 plateau_slope: float = 1e-4,
                 warm_periods: int = 5,
                 rate_cap: float = 0.999,
                 max_horizon: float = 2000.0):
        self.dist = dist
        self.levels = levels
        self.r_max = r_max
        self.delta = delta
        self.d = d
        self.wait_stride = wait_stride(delta, wait_resolution)
        self.plateau_slope = plateau_slope
        self.warm_periods = warm_periods
        self.rate_cap = rate_cap
        self.max_horizon = max_horizon
        self._chunk = max(1, round(5.0 / delta)) * delta

    def _empty_grid(self):
        return initial_grid(self.dist, self.levels, self.r_max, self.delta,
                            kind="fixed", jobs_per_queue=0)

    def periodic_average(self, mean_rate: float, delta_rate: float,
                         period: float) -> float:
        """Long-run period-averaged wait of the square-wave pattern.

        The average over the last whole period is tracked chunk by chunk
        until its drift per unit time falls below plateau_slope, so slowly
        mixing services are integrated for as long as they need rather
        than over a fixed warm-up.
        """
        profile = PeriodicRate(mean_rate, delta_rate, period)
        solver = FluidSolver(self.dist, profile, self.levels, self.r_max,
                             self.delta, d=self.d)
        chunk_periods = max(1, round(self._chunk / period))
        span = chunk_periods * period
        grid = self._empty_grid()
        prev = None
        while grid.t < self.max_horizon:
            traj = solver.solve(grid, span, wait_stride=self.wait_stride)
            grid = traj.final
            if grid.t < self.warm_periods * period:
                continue
            avg = period_averaged_wait(traj.wait_times, traj.wait_values,
                                       period, warm_periods=0)
            if prev is not None and abs(avg - prev) / span < self.plateau_slope:
                return avg
            prev = avg
        raise RuntimeError(
            f"period-averaged wait still drifting at t={self.max_horizon:g} "
            f"for the pattern ({mean_rate:g}, {delta_rate:g}, {period:g})"
        )

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
        """Constant rate whose plateau wait matches the periodic average."""
        if not 0.0 < mean_rate < 1.0:
            raise ValueError("mean_rate must lie in (0, 1)")
        if delta_rate < 0.0 or delta_rate > mean_rate:
            raise ValueError("delta_rate must lie in [0, mean_rate]")
        if delta_rate == 0.0:
            return mean_rate
        target = self.periodic_average(mean_rate, delta_rate, period)
        lo, hi = mean_rate, self.rate_cap
        if self.plateau(lo) >= target:
            # the bursty pattern cannot sit below the flat one; a measured
            # gap at or under the plateau resolution is equality, so the
            # matching constant rate is the mean rate itself
            return lo
        if self.plateau(hi) <= target:
            raise RuntimeError(
                f"periodic average {target:g} exceeds the plateau wait at "
                f"the rate cap {self.rate_cap:g}; no matching rate found"
            )
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.plateau(mid) > target:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)
