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
    backlog_grid,
    exponential_ode_tails,
    fixed_point_tails,
    initial_grid,
    mean_virtual_wait,
)
from fluidlb.fluid import BLOCK, backward_sweep

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


def _sweep_by_loop(q, f, last):
    z = np.empty(len(f) + 1)
    z[-1] = last
    for j in range(len(f) - 1, -1, -1):
        z[j] = q * z[j + 1] + f[j]
    return z


@pytest.mark.parametrize("q", [1.0, 0.999, 0.5, 1e-3])
def test_backward_sweep_matches_loop_past_underflow(q):
    # q ** 3000 underflows for q <= 0.5; the scan must still match the
    # loop to rounding
    rng = np.random.default_rng(5)
    f = rng.random(3000) * np.exp(-np.arange(3000) / 400.0)
    want = _sweep_by_loop(q, f, 0.25)
    got = backward_sweep(q, f, 0.25)
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
    # resuming at a block end of the single run (step 200; the wait
    # stride 50 ends both runs' blocks there) repeats it bit for bit
    whole = solver.solve(grid, horizon=2.0, wait_stride=50)
    first = solver.solve(grid, horizon=1.0, wait_stride=50)
    rest = solver.solve(first.final, horizon=1.0, wait_stride=50)
    np.testing.assert_array_equal(rest.final.values, whole.final.values)
    np.testing.assert_array_equal(rest.tails, whole.tails[200:])
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
    g = backlog_grid(d, schedule, levels=6, r_max=8.0, delta=5e-3)
    assert g.t == 0.0
    assert g.tails[0] > 0.9          # the surge saturates the servers
    assert np.all(np.diff(g.values, axis=0) <= 1e-12)
    with pytest.raises(ValueError):
        backlog_grid(d, PiecewiseRate([(1.0, 1.0)], repeat=True),
                     levels=6, r_max=8.0, delta=5e-3)



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
}


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


def test_corrected_block_is_replayed_step_by_step():
    # a level inversion below correction_tol, far out in r where arrivals
    # cannot lift the level below past it: the per-step path clamps it, so
    # the first block is replayed and matches that path bit for bit
    delta = 0.01
    solver = FluidSolver(EXP, ConstantRate(0.5), levels=3, r_max=20.0,
                         delta=delta)
    grid = initial_grid(EXP, 3, 20.0, delta, jobs_per_queue=1)
    grid.values[2, 1900] = 1e-9
    traj = solver.solve(grid, horizon=1.0)
    tails, _, _, final, worst = _oracle(solver, grid, 1.0)
    assert traj.replayed_steps == BLOCK
    assert traj.max_correction == worst > 0.0
    np.testing.assert_array_equal(traj.tails[:BLOCK + 1], tails[:BLOCK + 1])
    assert np.abs(traj.tails - tails).max() <= 1e-12
    assert np.abs(traj.final.values - final.values).max() <= 1e-12
