import math

import numpy as np
import pytest

from fluidlb import (
    EffectiveRateSolver,
    Exponential,
    GammaService,
    MetricSeries,
    initial_grid,
    mean_virtual_wait,
    period_averaged_wait,
    relaxation_time,
)
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


def test_period_averaged_wait():
    times = np.arange(0.0, 14.001, 0.1)
    assert period_averaged_wait(times, np.full(times.size, 2.5), 2.0) \
        == pytest.approx(2.5)
    # linear series: the average over the last full period [12, 14] is 13
    assert period_averaged_wait(times, times, 2.0) == pytest.approx(13.0)
    with pytest.raises(ValueError):
        period_averaged_wait(times[:40], times[:40], 2.0)  # too few periods
    with pytest.raises(ValueError):
        period_averaged_wait(times, times, -1.0)


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
    # cached: a repeat lookup returns the identical value
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
