"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured numbers
(visible under ``pytest -s``) and then asserts the same verdict, so the
''-v'' listing doubles as the criterion checklist.  Monte Carlo pieces
use fixed seeds; fluid solves are deterministic, so every line is
reproducible bit for bit.
"""

import math
import time

import numpy as np

from fluidlb import (ConstantRate, Exponential, GammaService,
                     HyperExponential, LogNormalService, ParetoService,
                     FluidSolver, ensemble, exponential_ode_tails,
                     fixed_point_tails, initial_grid, initial_network,
                     mean_virtual_wait, parse_scenario, queue_tail_marginals,
                     render_scenario, run, scenario_from_dict)
from fluidlb.studies import (backlog_curve, backlog_relaxation_table,
                             periodic_rate_study)


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {verdict}: {detail}"
    print(line)
    return line


def _exp_setting(delta=1e-3, levels=10, r_max=20.0):
    dist = Exponential()
    solver = FluidSolver(dist, ConstantRate(0.5), levels, r_max, delta)
    grid = initial_grid(dist, levels, r_max, delta)
    return solver, grid


def test_c01_matches_exponential_ode():
    # exponential service closes into a tail ODE system; the grid solver
    # must reproduce its 4th-order integration to 1e-3 over t in [0, 10]
    t0 = time.time()
    solver, grid = _exp_setting()
    traj = solver.solve(grid, horizon=10.0)
    _, ode = exponential_ode_tails(ConstantRate(0.5), grid.values[:, 0],
                                   10.0, step=1e-3)
    dev = float(np.abs(traj.tails[:, :6] - ode[:, :6]).max())
    elapsed = time.time() - t0
    ok = dev <= 1e-3 and elapsed < 60.0
    line = _report(1, ok, f"sup dev {dev:.2e} <= 1e-3 over t in [0,10], "
                          f"levels 1..6; {elapsed:.0f}s < 60s")
    assert ok, line


def test_c02_reaches_fixed_point():
    solver, grid = _exp_setting()
    traj = solver.solve(grid, horizon=200.0)
    want = fixed_point_tails(0.5, 3)
    dev = float(np.abs(traj.tails[-1, :3] - want).max())
    ok = dev <= 1e-3 and np.allclose(want, [0.5, 0.125, 0.0078125])
    line = _report(2, ok, f"tails at t=200 within {dev:.2e} <= 1e-3 of "
                          f"(0.5, 0.125, 0.0078125)")
    assert ok, line


def test_c03_tail_match_across_service_families():
    t0 = time.time()
    times = np.arange(0.5, 10.01, 0.5)
    delta, levels, r_max = 2e-3, 8, 20.0
    families = [
        ("pareto 2.25", ParetoService(2.25)),
        ("lognormal 0.33", LogNormalService(0.33)),
        ("gamma 2", GammaService(2.0)),
        ("hyperexp (0.5, 2)", HyperExponential(0.5, 2.0)),
    ]
    worst = -math.inf
    worst_at = ""
    ok = True
    for label, dist in families:
        solver = FluidSolver(dist, ConstantRate(0.5), levels, r_max, delta)
        traj = solver.solve(initial_grid(dist, levels, r_max, delta), 10.0)
        ens = ensemble(500, dist, ConstantRate(0.5), times,
                       replications=200, seed=303, max_level=2,
                       measure_wait=False)
        for level in (1, 2):
            series = ens.series[f"tail_ge_{level}"]
            for j, t in enumerate(times):
                ref = traj.tails[round(t / delta), level - 1]
                dev = abs(float(series.values[j]) - ref)
                env = max(0.03, 4.0 * float(series.stderr[j]))
                if dev - env > worst:
                    worst = dev - env
                    worst_at = (f"{label} l={level} t={t:g}: "
                                f"dev {dev:.3f} vs allowed {env:.3f}")
                if dev > env:
                    ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 1200.0
    line = _report(3, ok, f"tightest margin at {worst_at}; "
                          f"{elapsed:.0f}s < 1200s")
    assert ok, line


def _wait_comparison(dist, kind, seed):
    times = np.arange(1.0, 10.01, 1.0)
    delta, levels, r_max = 2e-3, 10, 30.0
    solver = FluidSolver(dist, ConstantRate(0.7), levels, r_max, delta)
    grid = initial_grid(dist, levels, r_max, delta, kind=kind)
    traj = solver.solve(grid, horizon=10.0, slice_times=times)
    pde = np.array([mean_virtual_wait(traj.slice_at(t), delta, solver.d)
                    for t in times])
    ens = ensemble(500, dist, ConstantRate(0.7), times, replications=500,
                   seed=seed, kind=kind, max_level=2)
    mc = ens.series["virtual_wait"].values
    return float((np.abs(mc - pde) / np.abs(pde)).max())


def test_c04_virtual_wait_from_fresh_start():
    rel = _wait_comparison(ParetoService(3.0), "fixed", 20260817)
    ok = rel <= 0.07
    line = _report(4, ok, f"max relative wait deviation {rel:.3f} <= 0.07 "
                          f"at t in 1..10")
    assert ok, line


def test_c05_virtual_wait_from_stationary_ages():
    rel = _wait_comparison(GammaService(2.0), "stationary_ages", 20260817)
    ok = rel <= 0.07
    line = _report(5, ok, f"max relative wait deviation {rel:.3f} <= 0.07 "
                          f"at t in 1..10")
    assert ok, line


def test_c06_tagged_pair_independence():
    ens = ensemble(1000, Exponential(), ConstantRate(0.5), [5.0],
                   replications=500, seed=606, max_level=1,
                   measure_wait=False)
    gap = ens.series["chaos_gap"]
    dev = abs(float(gap.values[0]))
    env = 4.0 * float(gap.stderr[0])
    ok = dev <= env
    line = _report(6, ok, f"joint-vs-product busy gap {dev:.2e} <= "
                          f"4 SE = {env:.2e} at t=5, n=1000")
    assert ok, line


def test_c07_routing_frequencies():
    # frozen snapshot: with d = 2 the chance of joining a length-l queue
    # is tail_l^2 - tail_{l+1}^2
    lengths = [0, 0, 0, 1, 1, 2, 2, 2, 3, 5]
    rng = np.random.default_rng(707)
    net = initial_network(len(lengths), Exponential(), jobs_per_queue=0,
                          rng=rng)
    for i, k in enumerate(lengths):
        net.queues[i].extend([0.0] * k)
    arr = np.asarray(lengths)
    trials = 1_000_000
    hits = np.zeros(6)
    for _ in range(trials):
        hits[min(len(net.queues[net.route()]), 5)] += 1
    freq = hits / trials
    worst = -math.inf
    worst_at = ""
    ok = True
    for level in range(6):
        tail = (arr >= level).mean()
        tail_up = (arr >= level + 1).mean()
        want = tail ** 2 - tail_up ** 2
        se = math.sqrt(max(want * (1.0 - want), 1e-12) / trials)
        dev = abs(freq[level] - want)
        if dev - 4.0 * se > worst:
            worst = dev - 4.0 * se
            worst_at = f"l={level}: dev {dev:.2e} vs 4 SE {4 * se:.2e}"
        if dev > 4.0 * se:
            ok = False
    line = _report(7, ok, f"1e6 routing draws, tightest margin {worst_at}")
    assert ok, line


def test_c08_backlog_relaxation_orderings():
    heavy = backlog_curve("pareto", 1.25)
    light = backlog_curve("pareto", 2.5)
    ok = (heavy.relaxation is not None and light.relaxation is not None
          and heavy.relaxation < light.relaxation)

    table = backlog_relaxation_table(delta=5e-3)
    trend = True
    for family in ("pareto", "lognormal", "weibull"):
        rows = sorted((c for c in table if c.family == family),
                      key=lambda c: c.median)
        relax = [c.relaxation for c in rows]
        if any(r is None for r in relax) or \
                any(b <= a for a, b in zip(relax, relax[1:])):
            trend = False
    ok = ok and trend
    line = _report(8, ok, f"surge relaxation {heavy.relaxation:.2f} "
                          f"(beta 1.25) < {light.relaxation:.2f} (beta 2.5); "
                          f"relaxation grows with the median in all three "
                          f"families: {trend}")
    assert ok, line


def test_c09_effective_rate_orderings():
    rows = periodic_rate_study()
    by_shape = {}
    for r in rows:
        by_shape.setdefault(r.shape, []).append((r.delta, r.lambda_eff))
    ok = True
    for shape, pairs in by_shape.items():
        pairs.sort()
        lams = [lam for _, lam in pairs]
        if pairs[0] != (0.0, 0.7):     # flat pattern keeps the mean exactly
            ok = False
        if any(b < a for a, b in zip(lams, lams[1:])):
            ok = False
    light, heavy = by_shape[3.0], by_shape[1.5]
    cross = [l[1] - h[1] for l, h in zip(light, heavy) if l[0] > 0.0]
    if any(c < 0.0 for c in cross):
        ok = False
    line = _report(9, ok, "flat amplitude maps to the mean rate exactly; "
                          "non-decreasing in amplitude for both tails; "
                          f"beta 3.0 above beta 1.5 by "
                          f"{min(cross):.1e}..{max(cross):.1e}")
    assert ok, line


def test_c10_two_server_marginals_match_lattice():
    times = [1.0, 2.0, 5.0]
    oracle = queue_tail_marginals(2, 0.5, times, cap=30)
    ens = ensemble(2, Exponential(), ConstantRate(0.5), times,
                   replications=100_000, seed=1010, max_level=3,
                   measure_wait=False)
    worst = -math.inf
    worst_at = ""
    ok = True
    for level in (1, 2, 3):
        series = ens.series[f"tail_ge_{level}"]
        for j, t in enumerate(times):
            dev = abs(float(series.values[j]) - float(oracle.tails[j,
                                                                   level - 1]))
            env = 4.0 * float(series.stderr[j])
            if dev - env > worst:
                worst = dev - env
                worst_at = f"l={level} t={t:g}: dev {dev:.2e} vs 4 SE {env:.2e}"
            if dev > env:
                ok = False
    line = _report(10, ok, f"1e5 replications, tightest margin {worst_at}")
    assert ok, line


def test_c11_refinement_and_invariant_spot_checks():
    dist = ParetoService(2.25)
    rate = ConstantRate(0.7)

    # observed convergence order of the r = 0 tail under mesh halving
    vals = []
    for delta in (8e-3, 4e-3, 2e-3):
        solver = FluidSolver(dist, rate, 6, 10.0, delta)
        traj = solver.solve(initial_grid(dist, 6, 10.0, delta), 2.0)
        vals.append(float(traj.tails[-1, 0]))
    order = math.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2]))
    ok_order = order >= 0.8

    # enlarging the truncation must not move the answer
    tails = {}
    for levels, r_max in ((10, 20.0), (12, 30.0)):
        solver = FluidSolver(dist, rate, levels, r_max, 2e-3)
        traj = solver.solve(initial_grid(dist, levels, r_max, 2e-3), 5.0)
        tails[levels] = traj.tails[-1, :3].copy()
        state = traj.final.values
    trunc = float(np.abs(tails[10] - tails[12]).max())
    ok_trunc = trunc <= 1e-4

    # state-shape invariants on the finished grid
    ok_shape = (np.all(state >= 0.0) and np.all(state <= 1.0)
                and np.all(np.diff(state, axis=0) <= 1e-12)
                and np.all(np.diff(state, axis=1) <= 1e-12))

    # exponential product form is preserved exactly by the scheme
    solver, grid = _exp_setting(delta=5e-3, levels=5, r_max=8.0)
    final = solver.solve(grid, 2.0).final.values
    product = np.outer(final[:, 0], np.exp(-5e-3 * np.arange(final.shape[1])))
    ok_product = bool(np.abs(final - product).max() <= 1e-12)

    # conservation and determinism of the event-driven side
    net = initial_network(50, GammaService(2.0),
                          rng=np.random.default_rng(17))
    res = run(net, ConstantRate(0.8), sample_times=[5.0])
    ok_mass = (res.arrivals - res.departures
               == int(net.lengths().sum()) - net.initial_jobs)
    a = ensemble(20, dist, rate, [1.0], replications=5, seed=5,
                 measure_wait=False)
    b = ensemble(20, dist, rate, [1.0], replications=5, seed=5,
                 measure_wait=False)
    ok_det = all(np.array_equal(a.series[k].values, b.series[k].values)
                 for k in a.series)

    # config documents survive a render/parse round trip
    s = scenario_from_dict({
        "arrival": {"kind": "constant", "rate": 0.7},
        "service": {"family": "pareto", "beta": 2.25},
        "sim": {"n": 500, "replications": 200, "seed": 303,
                "sample_times": {"start": 0.5, "stop": 10.0, "step": 0.5}},
        "pde": {"L0": 8, "R0": 20.0, "delta": 0.002, "horizon": 10.0},
    })
    ok_round = parse_scenario(render_scenario(s)) == s

    ok = (ok_order and ok_trunc and ok_shape and ok_product and ok_mass
          and ok_det and ok_round)
    line = _report(11, ok, f"refinement order {order:.2f} >= 0.8; "
                           f"truncation shift {trunc:.1e} <= 1e-4; "
                           f"bounds/monotone {ok_shape}, product form "
                           f"{ok_product}, mass balance {ok_mass}, "
                           f"determinism {ok_det}, round trip {ok_round}")
    assert ok, line
