import json
import math

import numpy as np
import pytest

from fluidlb import (
    ConstantRate,
    EffectiveRateSolver,
    Exponential,
    FluidSolver,
    GammaService,
    MetricSeries,
    ParetoService,
    PeriodicRate,
    fixed_point_tails,
    initial_grid,
    mean_virtual_wait,
    relaxation_time,
)
from fluidlb import metrics
from fluidlb.cli import main
from fluidlb.fluid import routing_weights

EXP = Exponential()


def test_metric_series_validation():
    s = MetricSeries("m", [1.0, 2.0], [0.5, 0.6], stderr=[0.1, 0.1])
    assert s.at(2.0) == 0.6
    with pytest.raises(ValueError):
        s.at(1.5)
    with pytest.raises(ValueError):
        MetricSeries("m", [1.0, 1.0], [0.5, 0.6])
    with pytest.raises(ValueError):
        MetricSeries("m", [1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        MetricSeries("m", [1.0, 2.0], [0.5, np.nan])


def test_mean_virtual_wait_flat_profiles():
    # constant level profiles make every term explicit
    a, b, delta = 0.8, 0.3, 0.25
    values = np.array([[a, a], [b, b]])
    want = (b * b
            + (a + b) * 2 * (a - b) * delta
            + b * 2 * b * delta)
    assert mean_virtual_wait(values, delta, 2) == pytest.approx(want,
                                                                rel=1e-14)
    # a single busy level contributes only its residual integral
    only = np.array([[a, a]])
    assert mean_virtual_wait(only, delta, 2) == pytest.approx(
        a * 2 * a * delta, rel=1e-14)
    # shortest-of-3: cubed queued tail, weights a^2 + ab + b^2 and b^2
    want3 = (b ** 3
             + (a * a + a * b + b * b) * 2 * (a - b) * delta
             + b * b * 2 * b * delta)
    assert mean_virtual_wait(values, delta, 3) == pytest.approx(want3,
                                                                rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_routing_weights_telescope(d):
    hi = np.array([1.0, 0.9, 0.5, 0.25])
    lo = np.array([0.9, 0.5, 0.25, 0.0])
    np.testing.assert_allclose(routing_weights(hi, lo, d),
                               (hi ** d - lo ** d) / (hi - lo), rtol=1e-14)


def test_mean_virtual_wait_fresh_start_is_mean_service():
    # all servers on one fresh unit-mean job: the virtual arrival waits
    # out exactly that job, so W = integral of the survival = 1
    delta = 0.01
    grid = initial_grid(EXP, levels=4, r_max=12.0, delta=delta,
                        jobs_per_queue=1)
    w = mean_virtual_wait(grid.values, delta, 2)
    assert abs(w - 1.0) <= delta + 1e-4
    # two fresh jobs per server: the queued job adds a full service time
    grid2 = initial_grid(EXP, levels=4, r_max=12.0, delta=delta,
                         jobs_per_queue=2)
    w2 = mean_virtual_wait(grid2.values, delta, 2)
    assert abs(w2 - 2.0) <= 2 * delta + 1e-4


def test_relaxation_time_basics():
    t = np.linspace(0.0, 10.0, 101)
    assert relaxation_time(t, np.full(t.size, 3.0)) is None
    assert relaxation_time(t, np.zeros(t.size)) is None
    falling = 10.0 - t
    assert relaxation_time(t, falling) == pytest.approx(5.0)
    # scaling the values does not move the halving time
    assert relaxation_time(t, 7.3 * falling) == pytest.approx(5.0)
    # interpolation between samples
    tt = np.array([0.0, 1.0, 2.0])
    vv = np.array([4.0, 3.0, 1.0])
    assert relaxation_time(tt, vv) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        relaxation_time(tt, vv[:2])


@pytest.mark.parametrize("dist", [EXP, GammaService(2.0),
                                  ParetoService(2.5)], ids=repr)
def test_flat_periodic_average_is_the_plateau(dist):
    # two independent steady-state solvers: the periodic fixed point of a
    # zero-amplitude wave and the Newton fixed point of its constant rate
    solver = EffectiveRateSolver(dist, levels=5, r_max=8.0, delta=0.02)
    for rate in (0.3, 0.6, 0.9):
        assert abs(solver.periodic_average(rate, 0.0, 2.0)
                   - solver.plateau(rate)) <= 1e-8


def test_periodic_average_matches_a_long_march():
    solver = EffectiveRateSolver(EXP, levels=5, r_max=8.0, delta=0.02)
    fluid = FluidSolver(EXP, PeriodicRate(0.5, 0.25, 2.0), 5, 8.0, 0.02)
    traj = fluid.solve(initial_grid(EXP, 5, 8.0, 0.02, jobs_per_queue=0),
                       400.0, wait_stride=solver.wait_stride)
    last = traj.wait_times >= 398.0 - 1e-9
    marched = np.trapezoid(traj.wait_values[last],
                           traj.wait_times[last]) / 2.0
    assert abs(solver.periodic_average(0.5, 0.25, 2.0) - marched) <= 1e-8


def test_periodic_average_without_a_fixed_point_is_a_numerical_failure(
        tmp_path, monkeypatch, capsys):
    # two periods from the empty start leave the grid far from periodic
    monkeypatch.setattr(metrics, "MAX_HORIZON", 4.0)
    solver = EffectiveRateSolver(EXP, levels=5, r_max=8.0, delta=0.02)
    with pytest.raises(RuntimeError, match=r"no periodic steady state "
                       r"within t=4 for the pattern \(0.5, 0.25, 2\): "
                       r"the last period moved the grid by \d"):
        solver.periodic_average(0.5, 0.25, 2.0)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        "arrival": {"kind": "periodic", "mean_rate": 0.5, "delta": 0.25,
                    "period": 2.0},
        "service": {"family": "exponential"},
        "pde": {"L0": 5, "R0": 8.0, "delta": 0.02, "horizon": 1.0},
    }), encoding="utf-8")
    assert main(["effective-rate", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 3
    assert "numerical failure: no periodic steady state" \
        in capsys.readouterr().err


def test_periodic_average_refuses_a_period_of_few_waits():
    # a wait every 2 steps of 0.02: a 0.2 period holds 6 samples
    solver = EffectiveRateSolver(EXP, levels=5, r_max=8.0, delta=0.02)
    with pytest.raises(ValueError, match="fewer than 8 wait samples"):
        solver.periodic_average(0.5, 0.25, 0.2)


def test_effective_rate_zero_amplitude_is_exact():
    solver = EffectiveRateSolver(EXP, levels=5, r_max=8.0, delta=0.02)
    assert solver.effective_rate(0.7, 0.0, 2.0) == 0.7
    with pytest.raises(ValueError):
        solver.effective_rate(1.2, 0.0, 2.0)
    with pytest.raises(ValueError):
        solver.effective_rate(0.5, 0.6, 2.0)


def test_plateau_increases_with_rate():
    solver = EffectiveRateSolver(EXP, levels=5, r_max=8.0, delta=0.02)
    lo = solver.plateau(0.4)
    hi = solver.plateau(0.6)
    assert 0.0 < lo < hi
    # deterministic: a repeat solve returns the identical value
    assert solver.plateau(0.4) == lo


def test_effective_rate_grows_with_amplitude():
    solver = EffectiveRateSolver(EXP, levels=5, r_max=8.0, delta=0.02)
    rates = [solver.effective_rate(0.5, amp, 2.0, tol=2e-3)
             for amp in (0.0, 0.25, 0.5)]
    assert rates[0] == 0.5
    assert rates[0] < rates[1] + 1e-9 <= rates[2] + 2e-9
    assert rates[2] > 0.5


def test_gamma_wait_below_exponential_wait():
    # shape 2 has lighter-than-exponential residuals, so queues clear
    # faster and the stationary wait sits lower at the same rate
    exp_solver = EffectiveRateSolver(EXP, levels=5, r_max=8.0, delta=0.02)
    gam_solver = EffectiveRateSolver(GammaService(2.0), levels=5,
                                     r_max=8.0, delta=0.02)
    assert gam_solver.plateau(0.6) < exp_solver.plateau(0.6)


def test_direct_fixed_point_matches_closed_form_tails():
    # exponential service on the c02 mesh: the scheme's own fixed point
    # sits within the O(delta) mesh error of the closed-form tails
    solver = FluidSolver(EXP, ConstantRate(0.5), 10, 20.0, 1e-3)
    grid = solver.fixed_point()
    np.testing.assert_allclose(grid.tails, fixed_point_tails(0.5, 10),
                               rtol=0.0, atol=1e-3)
    # and one step leaves it in place, with nothing for the clamp to do
    after, correction = solver.step(grid)
    assert correction == 0.0
    assert np.abs(after.values - grid.values).max() <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_direct_plateau_bounds_a_long_march(d):
    # the wait grows toward its plateau from an empty start, so a long
    # march ends just below the direct solve (d = 1 starts from rate**l)
    direct = EffectiveRateSolver(EXP, levels=5, r_max=8.0, delta=0.02,
                                 d=d).plateau(0.6)
    solver = FluidSolver(EXP, ConstantRate(0.6), 5, 8.0, 0.02, d=d)
    traj = solver.solve(initial_grid(EXP, 5, 8.0, 0.02, jobs_per_queue=0),
                        400.0)
    marched = mean_virtual_wait(traj.final.values, 0.02, d)
    assert marched <= direct <= marched + 1e-9


def test_direct_plateau_heavy_tail_converges():
    solver = FluidSolver(ParetoService(1.5), ConstantRate(0.8), 10, 20.0,
                         5e-3)
    grid = solver.fixed_point()
    wait = mean_virtual_wait(grid.values, 5e-3, 2)
    assert math.isfinite(wait) and wait > 0.0
    assert EffectiveRateSolver(ParetoService(1.5)).plateau(0.8) == wait


def test_direct_plateau_near_saturation_light_tail(monkeypatch):
    # gamma service at the default rate cap: the closed-form start is too
    # far off for Newton, so the solve continues in from lower rates
    solver = FluidSolver(GammaService(2.0), ConstantRate(0.999), 10, 20.0,
                         5e-3)
    rates = []
    newton = FluidSolver._newton_columns

    def logged(self, mass, x):
        rates.append(mass / self.delta)
        return newton(self, mass, x)

    monkeypatch.setattr(FluidSolver, "_newton_columns", logged)
    solver.fixed_point()
    assert len(rates) > 1 and min(rates) < 0.999


def test_fixed_point_failures_are_numerical_errors(monkeypatch):
    solver = FluidSolver(EXP, ConstantRate(0.6), 5, 8.0, 0.02)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    # a singular Jacobian is a numerical failure, not a ValueError
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", singular)
        with pytest.raises(RuntimeError, match="singular Jacobian"):
            solver.fixed_point()

    # no grid is returned unless one step leaves it in place unclamped
    def clamped(self, grid):
        return grid, 1e-30

    with monkeypatch.context() as m:
        m.setattr(FluidSolver, "step", clamped)
        with pytest.raises(RuntimeError, match="one-step check"):
            solver.fixed_point()


def test_fixed_point_rejects_unsupported_settings():
    periodic = FluidSolver(EXP, PeriodicRate(0.5, 0.2, 2.0), 5, 8.0, 0.02)
    with pytest.raises(ValueError, match="constant arrival rate"):
        periodic.fixed_point()
    with pytest.raises(ValueError, match="below 1"):
        FluidSolver(EXP, ConstantRate(1.0), 5, 8.0, 0.02).fixed_point()
    with pytest.raises(ValueError, match="must stay below 1"):
        FluidSolver(EXP, ConstantRate(0.9), 5, 8.0, 0.8).fixed_point()


def test_rate_cap_below_the_matching_rate_is_a_numerical_failure(
        monkeypatch):
    # the pattern's matching rate is about 0.513: every midpoint's plateau
    # stays below the target, so the cap's plateau is solved and refused
    monkeypatch.setattr(metrics, "RATE_CAP", 0.51)
    solver = EffectiveRateSolver(EXP, levels=5, r_max=8.0, delta=0.02)
    with pytest.raises(RuntimeError, match="exceeds the plateau wait at "
                                           "the rate cap 0.51"):
        solver.effective_rate(0.5, 0.5, 2.0, tol=2e-3)


def test_benchmark_pattern_never_solves_the_cap_plateau(monkeypatch):
    # the bisection lowers its upper end, which shows the cap's plateau
    # lies above the target without solving it
    rates = []
    plateau = EffectiveRateSolver.plateau

    def logged(self, rate):
        rates.append(rate)
        return plateau(self, rate)

    monkeypatch.setattr(EffectiveRateSolver, "plateau", logged)
    solver = EffectiveRateSolver(EXP)
    assert solver.effective_rate(0.7, 0.35, 2.0) == pytest.approx(0.7038,
                                                                  abs=1e-3)
    assert len(rates) == 10 and metrics.RATE_CAP not in rates
