"""Finite-difference solver for the fluid limit of shortest-of-d routing.

State is a matrix Z[l, n] over queue-length levels l = 1..levels and a
uniform residual-service grid r_n = n * delta, n = 0..r_max/delta.
Z[l, n] is the expected fraction of servers holding at least l jobs whose
in-service job survives at least r_n further time units; the r = 0 column
is therefore the tail of the queue-length distribution.  Time and r share
the same mesh width, so transport in r is an exact index shift (upwind).

The per-step update couples levels through the r = 0 and r = delta
columns only: departures at level l+1 feed level l with a fresh service
profile, and arrivals move mass from level l-1 to l at the routing rate
of the shortest-of-d policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrivals import ArrivalProfile, PiecewiseRate
from .distributions import ServiceDistribution, SurvivalUnderflow

__all__ = [
    "FluidGrid",
    "FluidTrajectory",
    "FluidSolver",
    "InstabilityError",
    "initial_grid",
    "backlog_grid",
    "exponential_ode_tails",
    "fixed_point_tails",
    "routing_weights",
]


class InstabilityError(RuntimeError):
    """The scheme left [0, 1], broke level monotonicity, or produced NaN."""

    def __init__(self, message, t):
        super().__init__(message)
        self.t = t


def routing_weights(hi, lo, d: int):
    """Shortest-of-d routing weights sum_{i<d} hi^i lo^(d-1-i), elementwise.

    With hi = T_l and lo = T_{l+1} (fractions of servers holding at
    least l and l+1 jobs) this is (hi^d - lo^d) / (hi - lo): the rate,
    per unit fraction of length-l servers, at which arrivals join them.
    Evaluated by Horner's rule in hi, so d = 2 is the single sum hi + lo.
    """
    hi = np.asarray(hi, dtype=float)
    lo = np.asarray(lo, dtype=float)
    weights = np.ones(np.broadcast(hi, lo).shape)
    lo_power = weights
    for _ in range(d - 1):
        lo_power = lo_power * lo
        weights = hi * weights + lo_power
    return weights


def _mesh_points(span, delta, what):
    n = round(span / delta)
    if n < 1 or abs(n * delta - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"{what} {span!r} is not a positive multiple of delta {delta!r}")
    return n


@dataclass
class FluidGrid:
    """Solver state: values[l-1, n] = Z_l(t, r_n) on the shared mesh."""

    values: np.ndarray
    delta: float
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("grid values must be 2-d (levels x r points)")

    @property
    def levels(self) -> int:
        return self.values.shape[0]

    @property
    def r_max(self) -> float:
        return (self.values.shape[1] - 1) * self.delta

    @property
    def r_grid(self) -> np.ndarray:
        return self.delta * np.arange(self.values.shape[1])

    @property
    def tails(self) -> np.ndarray:
        """Queue-length tail fractions: tails[l-1] = P(queue >= l)."""
        return self.values[:, 0].copy()

    def copy(self) -> "FluidGrid":
        return FluidGrid(self.values.copy(), self.delta, self.t)


@dataclass
class FluidTrajectory:
    """Solver output: per-step tails, optional slices and wait series."""

    times: np.ndarray                 # (steps+1,)
    tails: np.ndarray                 # (steps+1, levels)
    final: FluidGrid
    slices: dict = field(default_factory=dict)
    wait_times: np.ndarray | None = None
    wait_values: np.ndarray | None = None

    @property
    def delta(self) -> float:
        return self.final.delta

    def _step_of(self, t):
        m = round((t - self.times[0]) / self.delta)
        if m < 0 or m >= len(self.times) or abs(self.times[m] - t) > 1e-9:
            raise ValueError(f"time {t!r} is not on the recorded step grid")
        return m

    def tail_at(self, t, level) -> float:
        """Tail fraction P(queue >= level) at a recorded time."""
        if not 1 <= level <= self.tails.shape[1]:
            raise ValueError(f"level {level} outside 1..{self.tails.shape[1]}")
        return float(self.tails[self._step_of(t), level - 1])

    def slice_at(self, t) -> np.ndarray:
        for key, val in self.slices.items():
            if abs(key - t) <= 1e-9:
                return val
        raise KeyError(f"no slice recorded at t={t!r}")


def initial_grid(dist: ServiceDistribution, levels: int, r_max: float,
                 delta: float, kind: str = "fixed",
                 jobs_per_queue: int = 1) -> FluidGrid:
    """Starting state for the solver.

    kind="fixed": every server holds jobs_per_queue jobs, service age 0.
    kind="stationary_ages": every server holds two jobs and the in-service
    age follows the stationary age law (levels 1 and 2 get the integrated
    survival function as their profile).
    """
    cols = _mesh_points(r_max, delta, "r_max") + 1
    if levels < 1:
        raise ValueError("levels must be at least 1")
    r = delta * np.arange(cols)
    values = np.zeros((levels, cols))
    if kind == "fixed":
        if jobs_per_queue < 0:
            raise ValueError("jobs_per_queue must be nonnegative")
        k = min(jobs_per_queue, levels)
        if k > 0:
            values[:k] = dist.ccdf(r)
    elif kind == "stationary_ages":
        if levels < 2:
            raise ValueError("stationary_ages start needs levels >= 2")
        values[:2] = dist.stationary_age_ccdf(r)
    else:
        raise ValueError(f"unknown initial grid kind {kind!r}")
    return FluidGrid(values, delta)


def backlog_grid(dist: ServiceDistribution, schedule: PiecewiseRate,
                 levels: int, r_max: float, delta: float, d: int = 2,
                 correction_tol: float = 1e-6) -> FluidGrid:
    """Drive the system from empty through a one-shot rate schedule and
    relabel the end of the schedule as t = 0."""
    if schedule.repeat:
        raise ValueError("backlog schedule must be one-shot")
    solver = FluidSolver(dist, schedule, levels, r_max, delta, d=d,
                         correction_tol=correction_tol)
    start = initial_grid(dist, levels, r_max, delta, kind="fixed",
                         jobs_per_queue=0)
    traj = solver.solve(start, schedule.cycle_length)
    return FluidGrid(traj.final.values, delta, t=0.0)


class FluidSolver:
    """Forward-Euler/upwind integrator on the shared t/r mesh."""

    def __init__(self, dist: ServiceDistribution, profile: ArrivalProfile,
                 levels: int, r_max: float, delta: float, d: int = 2,
                 correction_tol: float = 1e-6):
        if levels < 1:
            raise ValueError("levels must be at least 1")
        if d < 1:
            raise ValueError("d must be at least 1")
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        self.dist = dist
        self.profile = profile
        self.levels = int(levels)
        self.delta = float(delta)
        self.d = int(d)
        self.correction_tol = float(correction_tol)
        cols = _mesh_points(r_max, delta, "r_max") + 1
        self.cols = cols
        self.r_max = (cols - 1) * self.delta
        self.gbar = np.asarray(dist.ccdf(self.delta * np.arange(cols)))
        # survival ratio carried past the edge of the r grid; 0 on underflow
        try:
            self.ghost = float(dist.survival_ratio(self.r_max, self.delta))
        except SurvivalUnderflow:
            self.ghost = 0.0

    def _check_grid(self, grid: FluidGrid):
        if grid.values.shape != (self.levels, self.cols):
            raise ValueError(
                f"grid shape {grid.values.shape} does not match solver "
                f"({self.levels}, {self.cols})"
            )
        if abs(grid.delta - self.delta) > 1e-15:
            raise ValueError("grid delta does not match solver delta")

    def _arrival_coefs(self, col0, mass):
        """Routing gain factors multiplying the integrated arrival mass.

        Row 0 gains on the fresh-service profile at the idle-to-busy rate;
        row a > 0 moves mass up from row a-1 at the shortest-of-d rate
        (the telescoping polynomial in the two tail values).
        """
        gain0 = (1.0 - col0[0] ** self.d) * mass
        coefs = np.zeros(self.levels)
        coefs[1:] = routing_weights(col0[:-1], col0[1:], self.d) * mass
        return gain0, coefs

    def step(self, grid: FluidGrid) -> FluidGrid:
        """One Euler step of length delta; returns a new grid."""
        self._check_grid(grid)
        nxt = np.empty_like(grid.values)
        scratch = np.empty(self.cols)
        self._step_into(grid.values, nxt, grid.t, scratch)
        return FluidGrid(nxt, self.delta, grid.t + self.delta)

    def _step_into(self, cur, nxt, t, scratch):
        levels, gbar = self.levels, self.gbar
        mass = self.profile.integrated_rate(t, t + self.delta)
        col0 = cur[:, 0]
        gain0, coefs = self._arrival_coefs(col0, mass)
        for a in range(levels):
            src = cur[a]
            out = nxt[a]
            # exact transport in r (ghost value past the edge)
            out[:-1] = src[1:]
            out[-1] = src[-1] * self.ghost
            if a + 1 < levels:
                # departures at level a+1 restart service on the row below
                drain = cur[a + 1, 1] - cur[a + 1, 0]
                if drain != 0.0:
                    np.multiply(gbar, -drain, out=scratch)
                    np.add(out, scratch, out=out)
            if a == 0:
                if gain0 != 0.0:
                    np.multiply(gbar, gain0, out=scratch)
                    np.add(out, scratch, out=out)
            elif coefs[a] != 0.0:
                # arrivals convert length-(a-1) queues in their transported
                # state; evaluating the difference pre-transport lets nearly
                # equal levels cross and seeds a grid-frequency parasite
                np.subtract(cur[a - 1][1:], src[1:], out=scratch[:-1])
                scratch[-1] = (cur[a - 1][-1] - src[-1]) * self.ghost
                np.multiply(scratch, coefs[a], out=scratch)
                np.add(out, scratch, out=out)
        self._clamp(nxt, t, scratch)

    def _clamp(self, nxt, t, scratch):
        """Clip to [0,1] and restore level monotonicity by pairwise min.

        Corrections beyond correction_tol (or any non-finite value) abort:
        they mean the mesh cannot represent the dynamics.
        """
        hi = float(nxt.max())
        lo = float(nxt.min())
        if np.isnan(hi) or hi == np.inf or lo == -np.inf:
            raise InstabilityError(
                f"non-finite grid value at t={t + self.delta:.6g}", t + self.delta
            )
        worst = max(hi - 1.0, -lo, 0.0)
        deficit = 0.0
        for a in range(1, self.levels):
            np.subtract(nxt[a], nxt[a - 1], out=scratch)
            deficit = max(deficit, float(scratch.max()))
        worst = max(worst, deficit)
        if worst > self.correction_tol:
            raise InstabilityError(
                f"scheme correction {worst:.3e} exceeds tolerance "
                f"{self.correction_tol:.1e} at t={t + self.delta:.6g} "
                f"(values in [{lo:.3e}, {hi:.3e}], monotonicity deficit "
                f"{deficit:.3e}); refine the mesh",
                t + self.delta,
            )
        if hi > 1.0 or lo < 0.0:
            np.clip(nxt, 0.0, 1.0, out=nxt)
        if deficit > 0.0:
            for a in range(1, self.levels):
                np.minimum(nxt[a], nxt[a - 1], out=nxt[a])

    def solve(self, grid: FluidGrid, horizon: float, slice_times=(),
              wait_stride: int = 0) -> FluidTrajectory:
        """Advance by `horizon`, recording the r = 0 column every step.

        slice_times: times at which to keep a full copy of the grid.
        wait_stride: record the mean virtual wait every that many steps
        (0 disables).  The returned trajectory's .final grid can be passed
        back in to continue the run.
        """
        from .metrics import mean_virtual_wait

        self._check_grid(grid)
        steps = _mesh_points(horizon, self.delta, "horizon")
        t0 = grid.t
        times = t0 + self.delta * np.arange(steps + 1)
        slice_steps = {}
        for ts in slice_times:
            m = round((ts - t0) / self.delta)
            if m < 0 or m > steps or abs(t0 + m * self.delta - ts) > 1e-9:
                raise ValueError(f"slice time {ts!r} is not on the step grid")
            slice_steps.setdefault(m, ts)
        tails = np.empty((steps + 1, self.levels))
        slices = {}
        wait_steps = []
        wait_values = []
        cur = grid.values.copy()
        nxt = np.empty_like(cur)
        scratch = np.empty(self.cols)

        def observe(m):
            tails[m] = cur[:, 0]
            if m in slice_steps:
                slices[slice_steps[m]] = cur.copy()
            if wait_stride and (m % wait_stride == 0 or m == steps):
                wait_steps.append(m)
                wait_values.append(mean_virtual_wait(cur, self.delta, self.d))

        observe(0)
        for m in range(steps):
            self._step_into(cur, nxt, times[m], scratch)
            cur, nxt = nxt, cur
            observe(m + 1)
        final = FluidGrid(cur, self.delta, times[-1])
        wt = times[wait_steps] if wait_steps else None
        wv = np.asarray(wait_values) if wait_steps else None
        return FluidTrajectory(times=times, tails=tails, final=final,
                               slices=slices, wait_times=wt, wait_values=wv)


def exponential_ode_tails(profile: ArrivalProfile, tails0, horizon: float,
                          step: float = 1e-3, d: int = 2):
    """Reference integrator for exponential service: the tail fractions
    close into an ODE system, solved here with fixed-step RK4.

    Returns (times, tails) with tails[m, l-1] = S_l(t_m).
    """
    s = np.asarray(tails0, dtype=float).copy()
    if s.ndim != 1:
        raise ValueError("tails0 must be a vector")
    steps = _mesh_points(horizon, step, "horizon")
    times = step * np.arange(steps + 1)
    out = np.empty((steps + 1, s.size))
    out[0] = s

    def rhs(t, s):
        up = np.empty_like(s)      # S_{l+1}, with closure 0 at the top level
        up[:-1] = s[1:]
        up[-1] = 0.0
        dn = np.empty_like(s)      # S_{l-1}, with S_0 = 1
        dn[0] = 1.0
        dn[1:] = s[:-1]
        lam = profile.rate(t)
        return -(s - up) + lam * (dn ** d - s ** d)

    for m in range(steps):
        t = times[m]
        k1 = rhs(t, s)
        k2 = rhs(t + step / 2.0, s + (step / 2.0) * k1)
        k3 = rhs(t + step / 2.0, s + (step / 2.0) * k2)
        k4 = rhs(t + step, s + step * k3)
        s = s + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[m + 1] = s
    return times, out


def fixed_point_tails(rate: float, levels: int, d: int = 2) -> np.ndarray:
    """Stationary tail fractions under constant rate < 1:
    S_l = rate ** ((d**l - 1) / (d - 1))."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("fixed point requires 0 <= rate < 1")
    if d < 2:
        raise ValueError("fixed point formula needs d >= 2")
    ells = np.arange(1, levels + 1)
    return rate ** ((d ** ells.astype(float) - 1.0) / (d - 1.0))
