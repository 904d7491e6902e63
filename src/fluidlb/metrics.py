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
from .fluid import FluidGrid, FluidSolver, initial_grid, routing_weights

# Settings of the effective-rate solver.  The wait is recorded every
# WAIT_RESOLUTION time units (`wait_stride`).  The periodic steady state,
# sought by Anderson mixing over ANDERSON_MEMORY differences, is a grid one
# period moves by at most PERIODIC_TOL, reached within MAX_HORIZON time
# units.  The matching rate is sought below RATE_CAP.
WAIT_RESOLUTION = 0.05
PERIODIC_TOL = 1e-10
ANDERSON_MEMORY = 2
MAX_HORIZON = 2000.0
RATE_CAP = 0.999

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


def wait_stride(delta: float, resolution: float = WAIT_RESOLUTION) -> int:
    """Steps between recorded waits: `resolution` in whole steps, at
    least one."""
    return max(1, round(resolution / delta))


class EffectiveRateSolver:
    """Maps a periodic arrival pattern to the constant rate with the same
    long-run mean virtual wait.

    The plateau wait under a constant rate is increasing in the rate, so
    the matching rate is found by bisection between the mean rate and
    RATE_CAP.  The plateau at the cap is solved only when the bisection
    never moved its upper end: any midpoint whose plateau exceeds the
    target already shows that the cap's does.  Both sides are solved
    steady states of the scheme: each plateau is the wait at its fixed
    point under the constant rate, and the periodic average is the wait
    averaged over the period that its periodic fixed point repeats.
    """

    def __init__(self, dist: ServiceDistribution, levels: int = 10,
                 r_max: float = 20.0, delta: float = 5e-3, d: int = 2):
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

        That state is the fixed point of the period map: the grid at the
        start of a period goes to the grid one period later.  Anderson
        mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) over the last
        ANDERSON_MEMORY differences proposes each next start, projected
        onto [0, 1] and onto level order.  A start that one period leaves
        in place to within PERIODIC_TOL is the fixed point, and the wait
        recorded over that period gives the average.
        """
        profile = PeriodicRate(mean_rate, delta_rate, period)
        solver = FluidSolver(self.dist, profile, self.levels, self.r_max,
                             self.delta, d=self.d)
        x = initial_grid(self.dist, self.levels, self.r_max, self.delta,
                         kind="fixed", jobs_per_queue=0).values
        # ring of the last differences of the map's values g and residuals
        # f; the slot the next difference goes to holds the last g and f
        mem = ANDERSON_MEMORY
        dg = np.empty((mem,) + x.shape)
        df = np.empty_like(dg)
        for k in range(max(1, int(MAX_HORIZON / period))):
            traj = solver.solve(FluidGrid(x, self.delta), period,
                                wait_stride=self.wait_stride)
            if traj.wait_times.size < 8:
                raise ValueError(f"period {period!r} holds fewer than 8 "
                                 "wait samples")
            g = traj.final.values
            f = np.subtract(g, x, out=x)        # over the spent start
            residual = float(np.abs(f).max())
            if residual <= PERIODIC_TOL:
                return float(np.trapezoid(traj.wait_values,
                                          traj.wait_times)) / period
            x = g
            if k:
                slot = (k - 1) % mem
                np.subtract(g, dg[slot], out=dg[slot])
                np.subtract(f, df[slot], out=df[slot])
                # next start g - dG @ gamma, gamma fitting f by dF in
                # least squares (the normal equations: n is at most mem)
                n = min(k, mem)
                rows = df[:n].reshape(n, -1)
                gamma = np.linalg.lstsq(rows @ rows.T, rows @ f.ravel(),
                                        rcond=None)[0]
                x = np.tensordot(gamma, dg[:n], axes=1)
                np.subtract(g, x, out=x)
                np.clip(x, 0.0, 1.0, out=x)
                np.minimum.accumulate(x, axis=0, out=x)
            dg[k % mem] = g
            df[k % mem] = f
            # only x and the ring stay alive through the next period map
            del traj, g, f
        raise RuntimeError(
            f"no periodic steady state within t={MAX_HORIZON:g} for the "
            f"pattern ({mean_rate:g}, {delta_rate:g}, {period:g}): the last "
            f"period moved the grid by {residual:.3e}"
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
        lo, hi = mean_rate, RATE_CAP
        if self.plateau(lo) >= target:
            # the bursty pattern cannot sit below the flat one; a measured
            # gap at or under the plateau resolution is equality, so the
            # matching constant rate is the mean rate itself
            return lo
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.plateau(mid) > target:
                hi = mid
            else:
                lo = mid
        # a plateau above the target below the cap puts the cap's above it
        if hi == RATE_CAP and self.plateau(hi) <= target:
            raise RuntimeError(
                f"periodic average {target:g} exceeds the plateau wait at "
                f"the rate cap {RATE_CAP:g}; no matching rate found"
            )
        return 0.5 * (lo + hi)
