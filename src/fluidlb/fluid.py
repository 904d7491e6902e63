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
of the shortest-of-d policy.  The rule is written once: `_rates` turns the
two columns into the routing gains c and the level sources u, and
`_advance` applies one step to any run of columns.  The per-step path
(`step`, and the replay in `solve`) extends the grid by one ghost column
(the last column times the survival ratio `ghost`), advances it and
clamps; the fixed-point solve sweeps the same (c, u) backwards.

`FluidSolver.solve` advances in blocks of up to BLOCK steps in the moving
frame s = t + r.  Append to the grid its ghost tail, column R0 + i*delta
holding Z(R0) * ghost**i; then step k maps every column the same way,

    nxt[:, j] = M_k cur_ext[:, j+1] + u_k gbar_ext[j],

where M_k is lower bidiagonal (diagonal 1 - c_k, sub-diagonal c_k, the
routing gains) and u_k holds the level sources (arrivals into level 1,
departures from the level above).  B steps therefore compose exactly into

    nxt = R @ cur_ext[:, B:B+C] + U @ H,

with R = M_{B-1}...M_0, U[:, k] = M_{B-1}...M_{k+1} u_k and the constant
Hankel matrix H[k, j] = gbar_ext[j+B-1-k]: one matrix product per block
instead of a sweep over the grid per step.  (c_k, u_k) depend only on the
columns r = 0 and r = delta, so they come from advancing just the first
B+1 columns, a window that shrinks by one column per step and so never
holds a column the grid's edge has touched; the window also gives the
tails of the steps inside the block.  Entries of R and U below the
smallest normal double are flushed to 0 (a change below 2.3e-308
absolute), since subnormal operands slow the product by an order of
magnitude.  Blocks end at every slice step, every wait_stride step and
the horizon, so every observed grid is a composed one.

Validity and replay.  From a valid grid (values in [0, 1], falling with
the level) a step stays valid when c_k <= 1 and the sources u_k are
nonnegative and non-increasing in the level: by induction along the
characteristics of s = t + r.  A block is composed only when the grid it
starts from is valid, the rule holds at every step on the window, the
window needs no `_clamp` correction after any step and the composed grid
needs none at the block end.  Otherwise the block is replayed from its
start grid by the per-step update `_step_into`, which clamps and aborts
on a correction beyond CORRECTION_TOL exactly as a per-step solve would,
with the same step, time and message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrivals import ArrivalProfile, ConstantRate, PiecewiseRate
from .config import on_mesh
from .distributions import ServiceDistribution, SurvivalUnderflow

# steps per composed block (fewer where an observation step comes first)
BLOCK = 64
# largest `_clamp` correction a step may need; a larger one aborts the run
CORRECTION_TOL = 1e-6
# smallest normal double; products of the block update below it are 0
_TINY = np.finfo(float).tiny
# differences kept by `anderson`
ANDERSON_MEMORY = 3
# largest move of the columns r = 0 and r = delta by one sweep at a fixed
# point, and the sweeps allowed to reach it
FIXED_POINT_TOL = 1e-12
MAX_SWEEPS = 1000

__all__ = [
    "FluidGrid",
    "FluidTrajectory",
    "FluidSolver",
    "InstabilityError",
    "initial_grid",
    "exponential_ode_tails",
    "fixed_point_tails",
    "routing_weights",
    "anderson",
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


def _sweep_in_place(q: float, z):
    """Solve z[j] = q * z[j+1] + f[j] backwards from z[-1] = last, in the
    1-d array z, which holds f with `last` appended.

    A doubling scan: after the pass with shift s, z[j] holds the sum of
    q**(k-j) * f[k] over the 2s entries from j on.  For 0 <= q <= 1 and
    f >= 0 every term is nonnegative, so nothing cancels, and a power
    q**s that underflows drops only terms that underflow themselves.
    """
    shift = 1
    while shift < z.size:
        z[:-shift] += q ** shift * z[shift:]
        shift *= 2
    return z


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
    def r_grid(self) -> np.ndarray:
        return self.delta * np.arange(self.values.shape[1])

    @property
    def tails(self) -> np.ndarray:
        """Queue-length tail fractions: tails[l-1] = P(queue >= l)."""
        return self.values[:, 0].copy()


@dataclass
class FluidTrajectory:
    """Solver output: per-step tails, optional slices and wait series,
    and the solver's health: the largest `_clamp` correction applied and
    the steps replayed one at a time because their block failed the
    validity rule."""

    times: np.ndarray                 # (steps+1,)
    tails: np.ndarray                 # (steps+1, levels)
    final: FluidGrid
    slices: dict = field(default_factory=dict)
    wait_times: np.ndarray | None = None
    wait_values: np.ndarray | None = None
    max_correction: float = 0.0
    replayed_steps: int = 0

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
                 delta: float, kind: str = "fixed", jobs_per_queue: int = 1,
                 schedule: PiecewiseRate | None = None,
                 d: int = 2) -> FluidGrid:
    """Starting state for the solver, in the kinds `initial_network` takes.

    kind="fixed": every server holds jobs_per_queue jobs, service age 0.
    kind="stationary_ages": every server holds two jobs and the in-service
    age follows the stationary age law (levels 1 and 2 get the integrated
    survival function as their profile).
    kind="backlog": solve the one-shot `schedule` from empty with
    shortest-of-d routing, then relabel its end as t = 0.
    """
    cols = on_mesh(r_max, delta, "r_max") + 1
    if levels < 1:
        raise ValueError("levels must be at least 1")
    r = delta * np.arange(cols)
    values = np.zeros((levels, cols))
    if kind == "fixed":
        if jobs_per_queue < 0:
            raise ValueError("jobs_per_queue must be nonnegative")
        if jobs_per_queue > levels:
            raise ValueError(f"{jobs_per_queue} jobs per queue need at least "
                             f"as many levels, got {levels}")
        values[:jobs_per_queue] = dist.ccdf(r)
    elif kind == "stationary_ages":
        if levels < 2:
            raise ValueError("stationary_ages start needs levels >= 2")
        values[:2] = dist.stationary_age_ccdf(r)
    elif kind == "backlog":
        if schedule is None or schedule.repeat:
            raise ValueError("backlog start needs a one-shot schedule")
        solver = FluidSolver(dist, schedule, levels, r_max, delta, d=d)
        values = solver.solve(FluidGrid(values, delta),
                              schedule.cycle_length).final.values
    else:
        raise ValueError(f"unknown initial grid kind {kind!r}")
    return FluidGrid(values, delta)


class FluidSolver:
    """Forward-Euler/upwind integrator on the shared t/r mesh."""

    def __init__(self, dist: ServiceDistribution, profile: ArrivalProfile,
                 levels: int, r_max: float, delta: float, d: int = 2):
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
        cols = on_mesh(r_max, delta, "r_max") + 1
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

    def _rates(self, col0, col1, mass):
        """(c, u): the routing gains and level sources of one step, from the
        columns r = 0 and r = delta.

        c[a] moves mass from level a-1 to level a at the shortest-of-d rate
        (the telescoping polynomial in the two tail values); c[0] is 0.
        u[a] restarts service on level a with the fresh profile: departures
        from level a+1 and, on level 1, arrivals at idle servers.
        """
        c = np.zeros(self.levels)
        c[1:] = routing_weights(col0[:-1], col0[1:], self.d) * mass
        u = np.zeros(self.levels)
        u[:-1] = col0[1:] - col1[1:]
        u[0] += (1.0 - col0[0] ** self.d) * mass
        return c, u

    @staticmethod
    def _advance(ext, c, u, gbar):
        """One step of the columns `ext`, whose last column lies one mesh
        width past the ones returned: transport in r by one column, the
        gains c and the sources u applied with the fresh profile `gbar`."""
        nxt = ext[:, 1:].copy()
        # arrivals convert length-(a-1) queues in their transported state;
        # evaluating the difference pre-transport lets nearly equal levels
        # cross and seeds a grid-frequency parasite
        nxt[1:] += c[1:, None] * (ext[:-1, 1:] - ext[1:, 1:])
        nxt += u[:, None] * gbar
        return nxt

    def step(self, grid: FluidGrid) -> tuple[FluidGrid, float]:
        """One Euler step of length delta; returns the new grid and the
        largest correction `_clamp` applied to it (0.0 when none)."""
        self._check_grid(grid)
        nxt = np.empty_like(grid.values)
        correction = self._step_into(grid.values, nxt, grid.t)
        return FluidGrid(nxt, self.delta, grid.t + self.delta), correction

    def _step_into(self, cur, nxt, t):
        """Step `cur`, at time t, into `nxt` and clamp it; returns the
        correction (see `_clamp`)."""
        ext = np.empty((self.levels, self.cols + 1))
        self._extend(cur, 0, ext)
        c, u = self._rates(cur[:, 0], cur[:, 1],
                           self.profile.integrated_rate(t, t + self.delta))
        nxt[...] = self._advance(ext, c, u, self.gbar)
        return self._clamp(nxt, t)

    @staticmethod
    def _extremes(values):
        """(hi, lo, deficit): the largest and smallest value and the largest
        rise of a level over the level below (0.0 when none rises)."""
        deficit = 0.0
        if values.shape[0] > 1:
            deficit = max(deficit, float((values[1:] - values[:-1]).max()))
        return float(values.max()), float(values.min()), deficit

    def _valid(self, values) -> bool:
        """True when `_clamp` would leave `values` as they are (NaN fails)."""
        hi, lo, deficit = self._extremes(values)
        return hi <= 1.0 and lo >= 0.0 and deficit <= 0.0

    def _clamp(self, nxt, t):
        """Clip to [0,1] and restore level monotonicity by pairwise min;
        returns the largest correction applied (0.0 when none).

        Corrections beyond CORRECTION_TOL (or any non-finite value) abort:
        they mean the mesh cannot represent the dynamics.
        """
        hi, lo, deficit = self._extremes(nxt)
        if np.isnan(hi) or hi == np.inf or lo == -np.inf:
            raise InstabilityError(
                f"non-finite grid value at t={t + self.delta:.6g}", t + self.delta
            )
        worst = max(hi - 1.0, -lo, deficit)
        if worst > CORRECTION_TOL:
            raise InstabilityError(
                f"scheme correction {worst:.3e} exceeds tolerance "
                f"{CORRECTION_TOL:.1e} at t={t + self.delta:.6g} "
                f"(values in [{lo:.3e}, {hi:.3e}], monotonicity deficit "
                f"{deficit:.3e}); refine the mesh",
                t + self.delta,
            )
        if hi > 1.0 or lo < 0.0:
            np.clip(nxt, 0.0, 1.0, out=nxt)
        if deficit > 0.0:
            for a in range(1, self.levels):
                np.minimum(nxt[a], nxt[a - 1], out=nxt[a])
        return worst

    def _extend(self, values, start, out):
        """Fill `out` with the columns from `start` on of `values` continued
        past the edge by the ghost ratio: column cols-1+i is values[:, -1]
        times ghost**i."""
        head = min(max(self.cols - start, 0), out.shape[-1])
        out[..., :head] = values[..., start:start + head]
        first = start + head - self.cols + 1
        powers = self.ghost ** np.arange(first, first + out.shape[-1] - head)
        out[..., head:] = np.multiply.outer(values[..., -1], powers)

    def _compose(self, cur, nxt, times, gbar_ext, stack, tails):
        """Advance `cur` by len(times) steps into `nxt` as one block.

        `gbar_ext` is gbar continued past the edge by the ghost ratio.
        `stack` holds H in its first rows (see the module docstring); its
        last `levels` rows are overwritten with the shifted extended grid.
        The tails of the steps inside the block go to `tails`.  Returns
        False, with `nxt` undefined, when a step breaks the validity rule
        or needs a correction.
        """
        levels, b = self.levels, len(times)
        width = stack.shape[0] - levels
        win = np.empty((levels, b + 1))
        self._extend(cur, 0, win)
        prod = np.zeros((levels, b + levels))   # [U | R]
        prod[:, b:] = np.eye(levels)
        for k, t in enumerate(times):
            c, u = self._rates(win[:, 0], win[:, 1],
                               self.profile.integrated_rate(t, t + self.delta))
            if not (c.max() <= 1.0 and u[-1] >= 0.0
                    and (u[:-1] >= u[1:]).all()):
                return False
            win = self._advance(win, c, u, gbar_ext[:b - k])
            if not self._valid(win):
                return False
            prod[1:] += c[1:, None] * (prod[:-1] - prod[1:])
            prod[:, k] = u
            if k + 1 < b:
                tails[k] = win[:, 0]
        prod[np.abs(prod) < _TINY] = 0.0
        self._extend(cur, b, stack[width:])
        np.matmul(prod, stack[width - b:], out=nxt)
        return self._valid(nxt)

    def solve(self, grid: FluidGrid, horizon: float, slice_times=(),
              wait_stride: int = 0) -> FluidTrajectory:
        """Advance by `horizon`, recording the r = 0 column every step.

        slice_times: times at which to keep a full copy of the grid.
        wait_stride: record the mean virtual wait every that many steps
        (0 disables).  The returned trajectory's .final grid can be passed
        back in to continue the run.  Steps run in composed blocks (see
        the module docstring), which end at every observation step.
        """
        from .metrics import mean_virtual_wait

        self._check_grid(grid)
        steps = on_mesh(horizon, self.delta, "horizon")
        t0 = grid.t
        times = t0 + self.delta * np.arange(steps + 1)
        slice_steps = {}
        for ts in slice_times:
            m = round((ts - t0) / self.delta)
            if m < 0 or m > steps or abs(t0 + m * self.delta - ts) > 1e-9:
                raise ValueError(f"slice time {ts!r} is not on the step grid")
            slice_steps.setdefault(m, ts)
        blocks = []
        ends = set(slice_steps) | {steps}
        if wait_stride:
            ends.update(range(wait_stride, steps, wait_stride))
        m = 0
        for end in sorted(ends):
            while m < end:
                blocks.append((m, min(BLOCK, end - m)))
                m += blocks[-1][1]
        width = max(b for _, b in blocks)
        stack = np.empty((width + self.levels, self.cols))
        gbar_ext = np.empty(self.cols + width - 1)
        self._extend(self.gbar, 0, gbar_ext)
        stack[:width] = np.lib.stride_tricks.sliding_window_view(
            gbar_ext, self.cols)[::-1]
        tails = np.empty((steps + 1, self.levels))
        slices = {}
        wait_steps = []
        wait_values = []
        cur = grid.values.copy()
        nxt = np.empty_like(cur)
        max_correction, replayed = 0.0, 0

        def observe(m):
            tails[m] = cur[:, 0]
            if m in slice_steps:
                slices[slice_steps[m]] = cur.copy()
            if wait_stride and (m % wait_stride == 0 or m == steps):
                wait_steps.append(m)
                wait_values.append(mean_virtual_wait(cur, self.delta, self.d))

        observe(0)
        valid = self._valid(cur)
        for m, b in blocks:
            if valid and self._compose(cur, nxt, times[m:m + b], gbar_ext,
                                       stack, tails[m + 1:m + b]):
                cur, nxt = nxt, cur
            else:
                for k in range(m, m + b):
                    correction = self._step_into(cur, nxt, times[k])
                    max_correction = max(max_correction, correction)
                    cur, nxt = nxt, cur
                    tails[k + 1] = cur[:, 0]
                replayed += b
                valid = True
            observe(m + b)
        final = FluidGrid(cur, self.delta, times[-1])
        wt = times[wait_steps] if wait_steps else None
        wv = np.asarray(wait_values) if wait_steps else None
        return FluidTrajectory(times=times, tails=tails, final=final,
                               slices=slices, wait_times=wt, wait_values=wv,
                               max_correction=max_correction,
                               replayed_steps=replayed)

    def fixed_point(self) -> FluidGrid:
        """Grid that one step of the scheme leaves unchanged under a
        constant arrival rate below 1.

        The columns r = 0 and r = delta determine the whole grid through
        one backward sweep (`_sweep`), so the fixed point is that of the
        map taking those columns to the same columns after a sweep.
        `anderson` finds it from the exponential closed form
        (`fixed_point_tails`) to within FIXED_POINT_TOL, in at most
        MAX_SWEEPS sweeps.
        The answer is checked with one `step`: it must move the grid by
        at most 1e-12 and need no clamp correction.
        """
        if not isinstance(self.profile, ConstantRate):
            raise ValueError("a fixed point needs a constant arrival rate")
        rate = self.profile.rate(0.0)
        if not rate < 1.0:
            raise ValueError("a fixed point needs a rate below 1")
        if rate * self.delta * self.d >= 1.0:
            raise ValueError(
                f"rate * delta * d = {rate * self.delta * self.d:g} must "
                f"stay below 1")
        tails = fixed_point_tails(rate, self.levels, self.d)
        mass = rate * self.delta
        x, residual = anderson(lambda cols: self._sweep(mass, cols)[:, :2],
                               np.column_stack((tails, tails)),
                               FIXED_POINT_TOL, MAX_SWEEPS)
        if residual > FIXED_POINT_TOL:
            raise RuntimeError(
                f"no fixed point found at rate {rate:g}: residual "
                f"{residual:.2e} after {MAX_SWEEPS} sweeps")
        z = self._sweep(mass, x, ordered=True)
        grid = FluidGrid(z, self.delta)
        after, correction = self.step(grid)
        change = float(np.abs(after.values - z).max())
        if correction > 0.0 or change > 1e-12:
            raise RuntimeError(
                f"fixed point at rate {rate:g} fails the one-step check: "
                f"change {change:.2e}, clamp correction {correction:.2e}")
        return grid

    def _sweep(self, mass, x, ordered=False):
        """Grid swept backwards from the columns x (levels x 2) at arrival
        mass `mass` per step.

        Per level a, a fixed point satisfies the backward recurrence
        Z_a[j] = (1 - c_a) Z_a[j+1] + c_a Z_{a-1}[j+1] + u_a gbar[j],
        closed at the last column by the ghost ratio, where the routing
        gains c and the sources u, the step's own (`_rates`), depend only
        on x: the columns r = 0 and r = delta.  With `ordered`, the
        sources are clipped nonnegative and non-increasing in the level
        before the sweep: at a fixed point they already are, and then the
        sweep is nonnegative and ordered in level, as `_clamp` requires;
        imposing the order only moves tails that lie below the rounding
        noise of the solve.
        """
        gbar, ghost = self.gbar, self.ghost
        gains, sources = self._rates(x[:, 0], x[:, 1], mass)
        if ordered:
            sources = np.minimum.accumulate(np.maximum(sources, 0.0))
        grid = np.empty((self.levels, self.cols))
        below = np.zeros(self.cols)
        for a, (c, u) in enumerate(zip(gains.tolist(), sources.tolist())):
            z = grid[a]
            z[-1] = ((u * gbar[-1] + c * ghost * below[-1])
                     / (1.0 - ghost * (1.0 - c)))
            z[:-1] = c * below[1:] + u * gbar[:-1]
            below = _sweep_in_place(1.0 - c, z)
        return grid


def anderson(phi, x, tol, budget):
    """Fixed point of the map `phi` by Anderson mixing (Walker & Ni, SIAM
    J. Numer. Anal. 49, 2011) over the last ANDERSON_MEMORY differences.

    x, the start, is an array of values in [0, 1] whose first axis is the
    level; it is overwritten.  Each mixed start is projected onto [0, 1]
    and onto level order (non-increasing along the first axis).  Stops at
    the first start that `phi` moves by at most `tol`, or after `budget`
    maps, and returns phi's value there and the largest move.
    """
    mem = ANDERSON_MEMORY
    # ring of the last differences of the map's values g and residuals
    # f; the slot the next difference goes to holds the last g and f
    dg = np.empty((mem,) + x.shape)
    df = np.empty_like(dg)
    for k in range(budget):
        g = phi(x)
        f = np.subtract(g, x, out=x)        # over the spent start
        residual = float(np.abs(f).max())
        if residual <= tol or k + 1 == budget:
            return g, residual
        x = g
        if k:
            slot = (k - 1) % mem
            np.subtract(g, dg[slot], out=dg[slot])
            np.subtract(f, df[slot], out=df[slot])
            # next start g - dG @ gamma, gamma fitting f by dF in least
            # squares (the normal equations: n is at most mem)
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
        # only x and the ring stay alive through the next map
        del g, f


def exponential_ode_tails(profile: ArrivalProfile, tails0, horizon: float,
                          step: float = 1e-3, d: int = 2):
    """Reference integrator for exponential service: the tail fractions
    close into an ODE system, solved here with fixed-step RK4.

    Returns (times, tails) with tails[m, l-1] = S_l(t_m).
    """
    s = np.asarray(tails0, dtype=float).copy()
    if s.ndim != 1:
        raise ValueError("tails0 must be a vector")
    steps = on_mesh(horizon, step, "horizon")
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
    """Stationary tail fractions of exponential service under constant
    rate < 1: S_l = rate ** ((d**l - 1) / (d - 1)), which is rate ** l
    for d = 1."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("fixed point requires 0 <= rate < 1")
    if d < 1:
        raise ValueError("d must be at least 1")
    ells = np.arange(1.0, levels + 1)
    if d == 1:
        return rate ** ells
    return rate ** ((d ** ells - 1.0) / (d - 1.0))
