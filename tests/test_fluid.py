import math

import numpy as np
import pytest

from fluidlb import (
    ConstantRate,
    Exponential,
    FluidGrid,
    FluidSolver,
    GammaService,
    HyperExponential,
    InstabilityError,
    ParetoService,
    PeriodicRate,
    PiecewiseRate,
    WeibullService,
    exponential_ode_tails,
    fixed_point_tails,
    initial_grid,
    mean_virtual_wait,
)
from fluidlb.fluid import BLOCK, _sweep_in_place

EXP = Exponential()


def test_initial_grid_fixed():
    g = initial_grid(EXP, levels=4, r_max=5.0, delta=0.5,
                     kind="fixed", jobs_per_queue=1)
    r = g.r_grid
    np.testing.assert_allclose(g.values[0], np.exp(-r), rtol=1e-12)
    assert not g.values[1:].any()
    assert g.t == 0.0

    g2 = initial_grid(EXP, levels=4, r_max=5.0, delta=0.5,
                      kind="fixed", jobs_per_queue=2)
    np.testing.assert_array_equal(g2.values[1], g2.values[0])
    assert not g2.values[2:].any()

    empty = initial_grid(EXP, levels=3, r_max=5.0, delta=0.5,
                         kind="fixed", jobs_per_queue=0)
    assert not empty.values.any()

    full = initial_grid(EXP, levels=3, r_max=5.0, delta=0.5,
                        kind="fixed", jobs_per_queue=3)
    assert (full.values == full.values[0]).all()
    # more jobs than levels cannot be represented: no silent truncation
    with pytest.raises(ValueError, match="4 jobs per queue"):
        initial_grid(EXP, levels=3, r_max=5.0, delta=0.5, kind="fixed",
                     jobs_per_queue=4)


def test_initial_grid_stationary_ages():
    d = GammaService(2.0)
    g = initial_grid(d, levels=3, r_max=6.0, delta=0.5,
                     kind="stationary_ages")
    np.testing.assert_allclose(g.values[0], d.stationary_age_ccdf(g.r_grid),
                               rtol=1e-12)
    np.testing.assert_array_equal(g.values[1], g.values[0])
    assert not g.values[2].any()
    with pytest.raises(ValueError):
        initial_grid(d, levels=1, r_max=6.0, delta=0.5,
                     kind="stationary_ages")


def test_initial_grid_rejects_bad_mesh():
    with pytest.raises(ValueError):
        initial_grid(EXP, levels=2, r_max=1.05, delta=0.1)
    with pytest.raises(ValueError):
        initial_grid(EXP, levels=2, r_max=1.0, delta=0.1, kind="warm")


def test_no_arrivals_is_pure_transport():
    # with rate 0 the busy fraction profile just ages: Z_1(t, r) equals
    # ccdf(t + r), and for exponential service the edge ratio is exact
    delta = 1e-2
    solver = FluidSolver(EXP, ConstantRate(0.0), levels=3, r_max=8.0,
                         delta=delta)
    grid = initial_grid(EXP, 3, 8.0, delta, jobs_per_queue=1)
    traj = solver.solve(grid, horizon=2.0)
    r = grid.r_grid
    np.testing.assert_allclose(traj.final.values[0], np.exp(-(r + 2.0)),
                               rtol=1e-9)
    assert not traj.final.values[1:].any()
    np.testing.assert_allclose(traj.tails[:, 0], np.exp(-traj.times),
                               rtol=1e-9)


def test_empty_system_stays_empty_without_arrivals():
    delta = 0.01
    solver = FluidSolver(EXP, ConstantRate(0.0), levels=3, r_max=4.0,
                         delta=delta)
    grid = initial_grid(EXP, 3, 4.0, delta, jobs_per_queue=0)
    traj = solver.solve(grid, horizon=1.0)
    assert not traj.final.values.any()


def test_exponential_product_form_is_preserved():
    # for exponential service every level profile stays proportional to
    # e^(-r); the discrete update preserves this exactly
    delta = 2e-3
    solver = FluidSolver(EXP, ConstantRate(0.5), levels=5, r_max=6.0,
                         delta=delta)
    grid = initial_grid(EXP, 5, 6.0, delta, jobs_per_queue=1)
    traj = solver.solve(grid, horizon=1.0)
    vals = traj.final.values
    shape = np.exp(-grid.r_grid)
    for level in range(5):
        np.testing.assert_allclose(vals[level], vals[level, 0] * shape,
                                   rtol=0, atol=1e-12)


def test_matches_exponential_ode():
    delta = 5e-3
    levels = 5
    solver = FluidSolver(EXP, ConstantRate(0.5), levels, 10.0, delta)
    grid = initial_grid(EXP, levels, 10.0, delta, jobs_per_queue=1)
    traj = solver.solve(grid, horizon=3.0)
    times, ode = exponential_ode_tails(ConstantRate(0.5),
                                       grid.tails, 3.0, step=delta)
    sup = np.abs(traj.tails - ode).max()
    assert sup <= 2e-3


def test_ode_decay_without_arrivals():
    times, tails = exponential_ode_tails(ConstantRate(0.0), [1.0, 0.0],
                                         horizon=2.0, step=1e-3)
    np.testing.assert_allclose(tails[:, 0], np.exp(-times), rtol=1e-10)


def test_fixed_point_values():
    np.testing.assert_allclose(fixed_point_tails(0.5, 3),
                               [0.5, 0.125, 0.0078125], rtol=1e-15)
    assert fixed_point_tails(0.0, 2).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        fixed_point_tails(1.0, 2)
    # d = 1 is M/G/1 per server: S_l = rate ** l, bit for bit with numpy's
    # power of the float levels (which may differ from libm's pow in the
    # last bit), and within rounding of the scalar powers
    for rate in (0.0, 0.3, 0.7, 0.999):
        got = fixed_point_tails(rate, 12, d=1)
        assert np.array_equal(got, rate ** np.arange(1.0, 13))
        np.testing.assert_allclose(got, [rate ** lv for lv in range(1, 13)],
                                   rtol=1e-15, atol=0.0)


def _sweep_by_loop(q, f, last):
    z = np.empty(len(f) + 1)
    z[-1] = last
    for j in range(len(f) - 1, -1, -1):
        z[j] = q * z[j + 1] + f[j]
    return z


SWEEP_QS = [1.0, 0.999, 0.5, 1e-3]


@pytest.mark.parametrize("q", SWEEP_QS)
def test_backward_sweep_matches_loop_past_underflow(q):
    # q ** 3000 underflows for q <= 0.5; the scan must still match the
    # loop to rounding
    rng = np.random.default_rng(5)
    f = rng.random(3000) * np.exp(-np.arange(3000) / 400.0)
    want = _sweep_by_loop(q, f, 0.25)
    got = _sweep_in_place(q, np.append(f, 0.25))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_fixed_point_on_a_long_residual_grid():
    # c * columns ~ rate * d * R0 is about 900 and the service survival
    # falls to 1e-217 at the edge: q ** arange times the sources would
    # underflow here, and fixed_point's own one-step check would fail
    solver = FluidSolver(EXP, ConstantRate(0.9), 5, 500.0, 0.5)
    grid = solver.fixed_point()
    assert np.all(np.isfinite(grid.values))


def test_monotone_in_level_and_r():
    delta = 5e-3
    d = ParetoService(2.25)
    solver = FluidSolver(d, ConstantRate(0.7), levels=6, r_max=10.0,
                         delta=delta)
    grid = initial_grid(d, 6, 10.0, delta, jobs_per_queue=1)
    traj = solver.solve(grid, horizon=4.0, slice_times=(2.0, 4.0))
    for t in (2.0, 4.0):
        vals = traj.slice_at(t)
        assert np.all(np.diff(vals, axis=0) <= 1e-12)   # levels ordered
        assert np.all(np.diff(vals, axis=1) <= 1e-12)   # tails decay in r
        assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_instability_raised_on_nan():
    delta = 0.01
    solver = FluidSolver(EXP, ConstantRate(0.5), levels=3, r_max=2.0,
                         delta=delta)
    grid = initial_grid(EXP, 3, 2.0, delta, jobs_per_queue=1)
    grid.values[1, 5] = np.nan
    with pytest.raises(InstabilityError) as err:
        solver.solve(grid, horizon=0.5)
    assert err.value.t == _oracle_failure_time(solver, grid)


def test_instability_raised_on_level_inversion():
    # a grid claiming more length-2 queues than busy queues violates the
    # tail ordering; the corrector refuses to paper over a gap this size
    delta = 0.01
    solver = FluidSolver(EXP, ConstantRate(0.5), levels=3, r_max=2.0,
                         delta=delta)
    grid = initial_grid(EXP, 3, 2.0, delta, jobs_per_queue=1)
    grid.values[1] = 0.9 * grid.values[0]
    grid.values[0] *= 0.2
    with pytest.raises(InstabilityError) as err:
        solver.solve(grid, horizon=0.5)
    assert err.value.t == _oracle_failure_time(solver, grid)


def test_instability_from_a_valid_start_on_an_overloaded_mesh():
    # rate * delta * d = 3: the first step's sources push level 1 past 1,
    # which the block must hand to the per-step path to abort on
    delta = 0.05
    solver = FluidSolver(EXP, ConstantRate(30.0), levels=3, r_max=2.0,
                         delta=delta)
    grid = initial_grid(EXP, 3, 2.0, delta, jobs_per_queue=0)
    with pytest.raises(InstabilityError) as err:
        solver.solve(grid, horizon=1.0)
    assert err.value.t == _oracle_failure_time(solver, grid)


def test_solver_rejects_mismatched_grid():
    solver = FluidSolver(EXP, ConstantRate(0.5), levels=3, r_max=2.0,
                         delta=0.01)
    grid = initial_grid(EXP, 4, 2.0, 0.01)
    with pytest.raises(ValueError):
        solver.solve(grid, horizon=0.1)
    good = initial_grid(EXP, 3, 2.0, 0.01)
    with pytest.raises(ValueError):
        solver.solve(good, horizon=0.1, slice_times=(0.0501,))


def test_solve_is_deterministic_and_resumable():
    delta = 5e-3
    solver = FluidSolver(EXP, ConstantRate(0.5), levels=4, r_max=4.0,
                         delta=delta)
    grid = initial_grid(EXP, 4, 4.0, delta, jobs_per_queue=1)
    one = solver.solve(grid, horizon=2.0)
    two = solver.solve(grid, horizon=2.0)
    np.testing.assert_array_equal(one.tails, two.tails)
    np.testing.assert_array_equal(one.final.values, two.final.values)
    # resuming at a block end of the single run (step 192 = 3 BLOCK, so
    # both runs group the later steps into the same blocks) repeats it
    # bit for bit
    assert 3 * BLOCK == 192
    whole = solver.solve(grid, horizon=2.0, wait_stride=50)
    first = solver.solve(grid, horizon=0.96, wait_stride=50)
    rest = solver.solve(first.final, horizon=1.04, wait_stride=50)
    np.testing.assert_array_equal(rest.final.values, whole.final.values)
    np.testing.assert_array_equal(rest.tails, whole.tails[192:])
    # elsewhere the two runs group the steps into other blocks, and agree
    # to rounding
    first = solver.solve(grid, horizon=1.0)
    rest = solver.solve(first.final, horizon=1.0)
    assert np.abs(rest.final.values - one.final.values).max() <= 1e-12
    assert np.abs(rest.tails - one.tails[200:]).max() <= 1e-12
    assert rest.final.t == pytest.approx(2.0)


def test_trajectory_accessors():
    delta = 0.01
    solver = FluidSolver(EXP, ConstantRate(0.5), levels=3, r_max=2.0,
                         delta=delta)
    grid = initial_grid(EXP, 3, 2.0, delta, jobs_per_queue=1)
    traj = solver.solve(grid, horizon=1.0, slice_times=(0.5,),
                        wait_stride=10)
    assert traj.tail_at(0.0, 1) == 1.0
    assert traj.tail_at(1.0, 1) == traj.tails[-1, 0]
    assert traj.slice_at(0.5).shape == grid.values.shape
    assert traj.wait_times[0] == 0.0
    assert traj.wait_times[-1] == pytest.approx(1.0)
    assert np.all(np.isfinite(traj.wait_values))
    with pytest.raises(ValueError):
        traj.tail_at(0.505, 1)
    with pytest.raises(ValueError):
        traj.tail_at(0.5, 9)
    with pytest.raises(KeyError):
        traj.slice_at(0.7)


def test_backlog_grid_state():
    d = ParetoService(2.5)
    schedule = PiecewiseRate([(2.0, 0.6), (1.0, 3.0)], repeat=False)
    g = initial_grid(d, levels=6, r_max=8.0, delta=5e-3, kind="backlog",
                     schedule=schedule, d=3)
    assert g.t == 0.0
    assert g.tails[0] > 0.9          # the surge saturates the servers
    assert np.all(np.diff(g.values, axis=0) <= 1e-12)
    # the schedule solved from the empty grid, its end relabeled t = 0
    empty = FluidGrid(np.zeros((6, 1601)), 5e-3)
    direct = FluidSolver(d, schedule, 6, 8.0, 5e-3, d=3).solve(empty, 3.0)
    assert direct.final.t == 3.0
    assert np.array_equal(g.values, direct.final.values)
    for bad in (None, PiecewiseRate([(1.0, 1.0)], repeat=True)):
        with pytest.raises(ValueError):
            initial_grid(d, levels=6, r_max=8.0, delta=5e-3, kind="backlog",
                         schedule=bad)


def _oracle(solver, grid, horizon, slice_times=(), wait_stride=0):
    """The per-step path: `solver.step` in a loop, observed as `solve`
    observes.  Returns tails, slices by step, waits, the final grid and
    the largest clamp correction."""
    steps = round(horizon / solver.delta)
    times = grid.t + solver.delta * np.arange(steps + 1)
    slice_steps = {round((t - grid.t) / solver.delta) for t in slice_times}
    tails, slices, waits, worst = [], {}, [], 0.0
    for m in range(steps + 1):
        if m:
            # step from the time `solve` steps from, not an accumulated one
            grid, correction = solver.step(
                FluidGrid(grid.values, solver.delta, times[m - 1]))
            worst = max(worst, correction)
        tails.append(grid.values[:, 0].copy())
        if m in slice_steps:
            slices[m] = grid.values.copy()
        if wait_stride and (m % wait_stride == 0 or m == steps):
            waits.append(mean_virtual_wait(grid.values, solver.delta,
                                           solver.d))
    return np.array(tails), slices, np.array(waits), grid, worst


def _oracle_failure_time(solver, grid):
    with pytest.raises(InstabilityError) as err:
        while True:
            grid = solver.step(grid)[0]
    return err.value.t


ORACLE_CASES = {
    # solver arguments, start (jobs per queue), horizon, slices, wait stride
    "exponential-c02-mesh": (
        (EXP, ConstantRate(0.5), 10, 20.0, 1e-3), 1, 0.5, (), 0),
    "hyperexp-pde-slices": (
        (HyperExponential(0.5, 2.0), ConstantRate(0.5), 8, 20.0, 2e-3), 1,
        10.0, (1.0, 5.0, 10.0), 25),
    "pareto-2.25-slices-stride": (
        (ParetoService(2.25), ConstantRate(0.7), 6, 10.0, 5e-3), 1, 4.0,
        (0.5, 2.0, 4.0), 7),
    "gamma-2-periodic": (
        (GammaService(2.0), PeriodicRate(0.7, 0.35, 2.0), 10, 20.0, 5e-3), 0,
        8.0, (), 10),
    "d3": ((GammaService(2.0), ConstantRate(0.7), 6, 10.0, 5e-3, 3), 1, 3.0,
           (1.5,), 20),
    "ghost-underflow": (
        (WeibullService(3.0), ConstantRate(0.7), 5, 90.0, 0.05), 1, 5.0,
        (1.0,), 0),
    "ragged-horizon": ((EXP, ConstantRate(0.5), 4, 4.0, 5e-3), 1,
                       (2 * BLOCK + 7) * 5e-3, (), 0),
    # a wait at every inner step of every block
    "gamma-2-stride-1": (
        (GammaService(2.0), PeriodicRate(0.7, 0.35, 2.0), 6, 10.0, 5e-3), 1,
        1.0, (0.5,), 1),
}


def _reference_step(solver, cur, t):
    """One scheme step written level by level, apart from the solver's
    shared rule: transport in r (the ghost ratio past the edge), departures
    at the level above restarting service, arrivals at idle servers on
    level 1 and shortest-of-d arrivals moving the transported difference of
    the level below up.  No clamp."""
    levels, gbar, ghost, d = solver.levels, solver.gbar, solver.ghost, solver.d
    mass = solver.profile.integrated_rate(t, t + solver.delta)
    col0 = cur[:, 0]
    nxt = np.empty_like(cur)
    for a in range(levels):
        out = nxt[a]
        out[:-1] = cur[a, 1:]
        out[-1] = cur[a, -1] * ghost
        if a + 1 < levels:
            out -= (cur[a + 1, 1] - cur[a + 1, 0]) * gbar
        if a == 0:
            out += (1.0 - col0[0] ** d) * mass * gbar
        else:
            gain = mass * sum(col0[a - 1] ** i * col0[a] ** (d - 1 - i)
                              for i in range(d))
            diff = np.append(cur[a - 1, 1:] - cur[a, 1:],
                             (cur[a - 1, -1] - cur[a, -1]) * ghost)
            out += gain * diff
    return nxt


@pytest.mark.parametrize("case", ["ghost-underflow", "d3", "gamma-2-periodic",
                                  "pareto-2.25-slices-stride"])
def test_step_matches_level_by_level_reference(case):
    args, jobs = ORACLE_CASES[case][:2]
    solver = FluidSolver(*args)
    grid = initial_grid(solver.dist, solver.levels, solver.r_max,
                        solver.delta, jobs_per_queue=jobs)
    ref = grid.values
    for _ in range(50):
        ref = _reference_step(solver, ref, grid.t)
        grid, correction = solver.step(grid)
        assert correction == 0.0
        assert np.abs(grid.values - ref).max() <= 1e-14


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_blocked_solve_matches_per_step_oracle(case):
    args, jobs, horizon, slice_times, stride = ORACLE_CASES[case]
    solver = FluidSolver(*args)
    if case == "ghost-underflow":
        assert solver.ghost == 0.0
    grid = initial_grid(solver.dist, solver.levels, solver.r_max,
                        solver.delta, jobs_per_queue=jobs)
    traj = solver.solve(grid, horizon, slice_times=slice_times,
                        wait_stride=stride)
    tails, slices, waits, final, worst = _oracle(solver, grid, horizon,
                                                 slice_times, stride)
    # every block composed, so the oracle checks the blocked path
    assert traj.replayed_steps == 0 and traj.max_correction == worst == 0.0
    assert traj.tails.shape == tails.shape
    assert np.abs(traj.tails - tails).max() <= 1e-12
    assert np.abs(traj.final.values - final.values).max() <= 1e-12
    assert traj.final.t == pytest.approx(final.t)
    for t in slice_times:
        m = round(t / solver.delta)
        assert np.abs(traj.slice_at(t) - slices[m]).max() <= 1e-12
        np.testing.assert_array_equal(traj.slice_at(t)[:, 0], traj.tails[m])
    if stride:
        assert np.abs(traj.wait_values - waits).max() <= 1e-12
    else:
        assert traj.wait_values is None


def _corrected_start():
    # a level inversion below CORRECTION_TOL, far out in r where arrivals
    # cannot lift the level below past it: the per-step path clamps it
    delta = 0.01
    solver = FluidSolver(EXP, ConstantRate(0.5), levels=3, r_max=20.0,
                         delta=delta)
    grid = initial_grid(EXP, 3, 20.0, delta, jobs_per_queue=1)
    grid.values[2, 1900] = 1e-9
    return solver, grid


def test_corrected_block_is_replayed_step_by_step():
    # so the first block is replayed and matches that path bit for bit
    solver, grid = _corrected_start()
    traj = solver.solve(grid, horizon=1.0)
    tails, _, _, final, worst = _oracle(solver, grid, 1.0)
    assert traj.replayed_steps == BLOCK
    assert traj.max_correction == worst > 0.0
    np.testing.assert_array_equal(traj.tails[:BLOCK + 1], tails[:BLOCK + 1])
    assert np.abs(traj.tails - tails).max() <= 1e-12
    assert np.abs(traj.final.values - final.values).max() <= 1e-12


def test_replayed_block_records_its_inner_waits():
    # the replayed first block records the waits at its inner steps off
    # the per-step grids, bit for bit; the composed blocks after it read
    # theirs off the composed operator
    solver, grid = _corrected_start()
    traj = solver.solve(grid, horizon=1.0, wait_stride=10)
    tails, _, waits, final, worst = _oracle(solver, grid, 1.0, wait_stride=10)
    assert traj.replayed_steps == BLOCK
    assert traj.max_correction == worst > 0.0
    np.testing.assert_array_equal(traj.wait_times, 0.01 * np.arange(0, 101, 10))
    replayed = traj.wait_times <= BLOCK * 0.01
    assert replayed.sum() == 7
    np.testing.assert_array_equal(traj.wait_values[replayed], waits[replayed])
    assert np.abs(traj.wait_values - waits).max() <= 1e-12
    np.testing.assert_array_equal(traj.tails[:BLOCK + 1], tails[:BLOCK + 1])


def _gain_above_one():
    # every server busy (level 1 is 1 everywhere) and level 2 full as far
    # as a block reads, but 5e-7 below level 1 past r = 6: the routing gain
    # is 2 (one arrival per server per step, on a binary mesh), which
    # inverts the levels past r = 6 at odd steps only
    delta = 1 / 16
    solver = FluidSolver(EXP, ConstantRate(16.0), levels=2, r_max=8.0,
                         delta=delta)
    values = np.ones((2, solver.cols))
    values[1, 96:] -= 5e-7
    return solver, FluidGrid(values, delta)


def _sources_rising_with_the_level():
    # no arrivals; at the first step level 3 loses 2**-12 at r = 0 and
    # level 2 nothing, so level 2 gains more fresh profile than level 1 and
    # rises over it past r = 6, where the two are equal.  At the second
    # step level 2 loses 2**-12 and lifts level 1 back over it there
    delta = 1 / 16
    solver = FluidSolver(EXP, ConstantRate(0.0), levels=3, r_max=8.0,
                         delta=delta)
    values = np.empty((3, solver.cols))
    values[0] = 0.875
    values[1] = 0.5 - 2.0 ** -12
    values[1, :2] = 0.5
    values[1, 96:] = 0.875
    values[2] = 0.25 - 2.0 ** -12
    values[2, 0] = 0.25
    return solver, FluidGrid(values, delta)


@pytest.mark.parametrize("start", [_gain_above_one,
                                   _sources_rising_with_the_level],
                         ids=["gain-above-one", "sources-rising"])
def test_block_breaking_the_step_rule_is_replayed(start):
    # a step breaks the c/u rule, but the columns the block reads and its
    # end grid are valid: only the rule hands the block to the per-step
    # path, which clamps the inversion in between
    solver, grid = start()
    traj = solver.solve(grid, horizon=BLOCK * solver.delta)
    tails, _, _, final, worst = _oracle(solver, grid, BLOCK * solver.delta)
    assert traj.replayed_steps == BLOCK
    assert traj.max_correction == worst > 0.0
    np.testing.assert_array_equal(traj.tails, tails)
    np.testing.assert_array_equal(traj.final.values, final.values)


@pytest.mark.parametrize("case", ["exponential-c02-mesh",
                                  "pareto-2.25-slices-stride"])
def test_wait_stride_does_not_move_the_trajectory(case):
    # blocks end only where the grid is read (slices and the horizon), so
    # the waits recorded inside them leave every step as it was
    args, jobs, horizon, slice_times, _ = ORACLE_CASES[case]
    solver = FluidSolver(*args)
    grid = initial_grid(solver.dist, solver.levels, solver.r_max,
                        solver.delta, jobs_per_queue=jobs)
    bare = solver.solve(grid, horizon, slice_times=slice_times)
    for stride in (1, 7, 50):
        traj = solver.solve(grid, horizon, slice_times=slice_times,
                            wait_stride=stride)
        assert traj.replayed_steps == 0
        np.testing.assert_array_equal(traj.tails, bare.tails)
        np.testing.assert_array_equal(traj.final.values, bare.final.values)
