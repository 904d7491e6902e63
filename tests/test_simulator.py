import heapq
import itertools
import math
from collections import deque

import numpy as np
import pytest

from fluidlb import (
    ConstantRate,
    Exponential,
    GammaService,
    Network,
    ParetoService,
    PiecewiseRate,
    ensemble,
    initial_network,
    queue_tail_marginals,
    run,
)

EXP = Exponential()


class ScriptedRng:
    """Replays preset draws for route() so picks are controlled."""

    def __init__(self, picks, uniforms=()):
        self._picks = list(picks)
        self._uniforms = list(uniforms)

    def integers(self, lo, hi, size):
        out = np.asarray(self._picks.pop(0))
        assert out.size == size
        return out

    def random(self):
        return self._uniforms.pop(0)


def net_with_lengths(lengths, dist=EXP, d=2, rng=None):
    """A network whose queues hold the given numbers of age-0 unit jobs."""
    net = Network(len(lengths), dist, d=d,
                  rng=rng if rng is not None else np.random.default_rng(0))
    for i, k in enumerate(lengths):
        for j in range(k):
            net.queues[i].append((1.0, 0.0))
            if j == 0:
                net.service_start[i] = 0.0
                heapq.heappush(net._dep_heap, (1.0, i))
            else:
                net.waiting_work[i] += 1.0
    net.initial_jobs = sum(lengths)
    return net


def test_route_prefers_shorter_pick():
    net = net_with_lengths([0, 5], rng=ScriptedRng([[1, 0]]))
    assert net.route() == 0
    net = net_with_lengths([0, 5], rng=ScriptedRng([[0, 1]]))
    assert net.route() == 0


def test_route_tie_break_uses_uniform_among_picks():
    # second pick replaces the first iff the uniform draw falls under 1/2
    net = net_with_lengths([3, 3], rng=ScriptedRng([[0, 1]], [0.9]))
    assert net.route() == 0
    net = net_with_lengths([3, 3], rng=ScriptedRng([[0, 1]], [0.3]))
    assert net.route() == 1


def test_route_law_matches_tail_squares():
    # P(join a length-l queue) = tail_l^2 - tail_{l+1}^2 under d = 2
    lengths = [0, 0, 0, 1, 1, 2, 2, 2, 3, 5]
    rng = np.random.default_rng(31)
    net = net_with_lengths(lengths, rng=rng)
    arr = np.asarray(lengths)
    n = arr.size
    trials = 100_000
    hits = np.zeros(6)
    for _ in range(trials):
        hits[min(len(net.queues[net.route()]), 5)] += 1
    freq = hits / trials
    for level in range(6):
        tail = (arr >= level).sum() / n
        tail_up = (arr >= level + 1).sum() / n
        want = tail ** 2 - tail_up ** 2
        se = math.sqrt(max(want * (1 - want), 1e-12) / trials)
        assert abs(freq[level] - want) <= 5 * se + 1e-12


def test_initial_network_fixed():
    net = initial_network(8, EXP, kind="fixed", jobs_per_queue=2,
                          rng=np.random.default_rng(1))
    assert net.lengths().tolist() == [2] * 8
    assert net.initial_jobs == 16
    assert all(s == 0.0 for s in net.service_start)
    assert all(w > 0.0 for w in net.waiting_work)


def test_initial_network_stationary_ages():
    net = initial_network(200, GammaService(2.0), kind="stationary_ages",
                          rng=np.random.default_rng(2))
    assert net.lengths().tolist() == [2] * 200
    ages = -np.asarray(net.service_start)
    assert np.all(ages >= 0.0) and ages.max() > 0.5
    # in-service draws are conditioned to outlast their age
    assert all(t > 0.0 for t, _ in net._dep_heap)


def test_initial_network_stationary_ages_heavy_tail():
    # beta = 1.25 puts the stationary age's tail mass far out (about 7e-4
    # beyond 1e12); every server must still get a finite start
    net = initial_network(1000, ParetoService(1.25), kind="stationary_ages",
                          rng=np.random.default_rng(0))
    ages = -np.asarray(net.service_start)
    assert np.all(np.isfinite(ages)) and np.all(ages >= 0.0)
    heads = np.array([q[0][0] for q in net.queues])
    assert np.all(heads > ages)


def test_initial_network_backlog():
    sched = PiecewiseRate([(3.0, 2.0)], repeat=False)
    net = initial_network(20, EXP, kind="backlog", schedule=sched,
                          rng=np.random.default_rng(3))
    assert net.clock == 0.0
    assert net.arrivals == 0 and net.departures == 0
    assert net.initial_jobs == int(net.lengths().sum())
    assert net.initial_jobs > 0
    with pytest.raises(ValueError):
        initial_network(5, EXP, kind="backlog", schedule=None)


def test_no_arrival_decay_is_binomial():
    # each initial job survives past t independently with mass ccdf(t)
    t, n, reps = 0.7, 200, 50
    p = float(EXP.ccdf(t))
    busy = []
    for rep in range(reps):
        net = initial_network(n, EXP, rng=np.random.default_rng(100 + rep))
        net._advance(ConstantRate(0.0), t)
        busy.append((net.lengths() > 0).sum())
    total = np.sum(busy)
    se = math.sqrt(n * reps * p * (1 - p))
    assert abs(total - n * reps * p) < 4 * se


def test_descriptor_hand_value():
    # two single-job servers with ages 0 and 2 under Lomax beta=3:
    # residual weights at r=2 are (1/2)^3 and (2/3)^3
    d3 = ParetoService(3.0)
    net = Network(2, d3, rng=np.random.default_rng(0))
    net.queues[0].append((5.0, 0.0))
    net.queues[1].append((9.0, -2.0))
    net.service_start = [0.0, -2.0]
    snap = net.measure_descriptor(r_grid=(0.0, 2.0), max_level=3)
    assert snap.tail_frac.tolist() == [1.0, 0.0, 0.0]
    want = 0.5 * (0.125 + (2.0 / 3.0) ** 3)
    assert snap.residual_mass[0, 1] == pytest.approx(want, rel=1e-12)
    assert snap.residual_mass[0, 0] == snap.tail_frac[0]  # exact at r = 0
    assert snap.excluded == 0
    with pytest.raises(ValueError):
        net.measure_descriptor(r_grid=(1.0, 2.0))


def test_work_ahead_hand_value():
    net = Network(2, EXP, rng=np.random.default_rng(0))
    net.queues[0] = deque([(1.5, -0.3), (0.7, -0.1)])
    net.service_start[0] = -0.3
    net.waiting_work[0] = 0.7
    net.clock = 0.2
    assert net.work_ahead(0) == pytest.approx(1.7, rel=1e-12)
    assert net.work_ahead(1) == 0.0


def test_expected_virtual_wait_hand_value():
    # lengths (0, 1): wait 0 on the empty server; the busy one is hit
    # with probability (tail_1 + tail_2)/n = (0.5 + 0)/2
    net = Network(2, EXP, rng=np.random.default_rng(0))
    net.queues[1].append((2.0, 0.0))
    net.service_start[1] = 0.0
    heapq.heappush(net._dep_heap, (2.0, 1))
    assert net.expected_virtual_wait() == pytest.approx(0.25 * 2.0)
    sample = net.virtual_wait_sample()
    assert sample in (0.0, 2.0)


def test_expected_virtual_wait_matches_enumeration_d3():
    # shortest-of-3 on lengths (0, 1, 2, 2, 3): average the work ahead of
    # the routed server over all n^3 ordered picks, ties split evenly
    # among the tied picks (a server picked twice counts twice)
    net = Network(5, EXP, d=3, rng=np.random.default_rng(0))
    jobs = {1: [(1.5, -0.5)], 2: [(2.0, -1.0), (0.7, 0.0)],
            3: [(0.4, -0.1), (1.1, 0.0)], 4: [(3.0, -2.5), (0.2, 0.0),
                                              (0.9, 0.0)]}
    for i, q in jobs.items():
        net.queues[i] = deque(q)
        net.service_start[i] = q[0][1]
        net.waiting_work[i] = sum(v for v, _ in q[1:])
    lengths = [len(q) for q in net.queues]
    assert lengths == [0, 1, 2, 2, 3]
    total = 0.0
    picks = list(itertools.product(range(net.n), repeat=net.d))
    for pick in picks:
        best = min(lengths[i] for i in pick)
        tied = [i for i in pick if lengths[i] == best]
        total += sum(net.work_ahead(i) for i in tied) / len(tied)
    want = total / len(picks)
    assert net.expected_virtual_wait() == pytest.approx(want, rel=1e-12)


def test_mass_balance():
    rng = np.random.default_rng(17)
    net = initial_network(50, GammaService(2.0), jobs_per_queue=1, rng=rng)
    res = run(net, ConstantRate(0.8), sample_times=[5.0, 20.0])
    assert res.arrivals - res.departures == \
        int(net.lengths().sum()) - net.initial_jobs
    assert res.arrivals > 0 and res.departures > 0


def test_event_log_is_ordered_and_consistent():
    net = initial_network(10, EXP, jobs_per_queue=1,
                          rng=np.random.default_rng(23), record_events=True)
    run(net, ConstantRate(0.9), sample_times=[10.0])
    times = [t for _, t, _ in net.events]
    assert all(b >= a for a, b in zip(times, times[1:]))
    n_arr = sum(1 for kind, _, _ in net.events if kind == "arrive")
    n_dep = sum(1 for kind, _, _ in net.events if kind == "depart")
    assert n_arr == net.arrivals and n_dep == net.departures
    # per server: departures never outrun initial stock plus arrivals
    for i in range(net.n):
        bal = 1
        for kind, _, j in net.events:
            if j != i:
                continue
            bal += 1 if kind == "arrive" else -1
            assert bal >= 0
        assert bal == len(net.queues[i])


def test_single_server_matches_birth_death_oracle():
    # n = 1 reduces to M/M/1; the uniformization oracle gives the exact
    # transient law
    t, lam, reps = 2.0, 0.5, 4000
    ref = queue_tail_marginals(1, lam, [t], jobs_per_queue=1, max_level=2)
    ens = ensemble(1, EXP, ConstantRate(lam), [t], replications=reps,
                   seed=404, max_level=2, measure_wait=False)
    for level in (1, 2):
        series = ens.series[f"tail_ge_{level}"]
        dev = abs(series.values[0] - ref.tails[0, level - 1])
        assert dev <= 4.0 * series.stderr[0] + 1e-9


def test_two_server_matches_ctmc_oracle():
    t, lam, reps = 2.0, 0.5, 4000
    ref = queue_tail_marginals(2, lam, [t], d=2, jobs_per_queue=1,
                               max_level=2)
    ens = ensemble(2, EXP, ConstantRate(lam), [t], replications=reps,
                   seed=505, max_level=2, measure_wait=False)
    for level in (1, 2):
        series = ens.series[f"tail_ge_{level}"]
        dev = abs(series.values[0] - ref.tails[0, level - 1])
        assert dev <= 4.0 * series.stderr[0] + 1e-9


def test_ensemble_is_deterministic():
    kwargs = dict(sample_times=[1.0, 3.0], replications=20, seed=99,
                  max_level=3)
    a = ensemble(25, EXP, ConstantRate(0.5), **kwargs)
    b = ensemble(25, EXP, ConstantRate(0.5), **kwargs)
    for name in a.series:
        np.testing.assert_array_equal(a.series[name].values,
                                      b.series[name].values)
        np.testing.assert_array_equal(a.series[name].stderr,
                                      b.series[name].stderr)
    c = ensemble(25, EXP, ConstantRate(0.5), sample_times=[1.0, 3.0],
                 replications=20, seed=100, max_level=3)
    assert not np.array_equal(a.series["tail_ge_1"].values,
                              c.series["tail_ge_1"].values)


def test_ensemble_series_contents():
    ens = ensemble(30, EXP, ConstantRate(0.7), sample_times=[2.0, 4.0],
                   replications=25, seed=7, max_level=3)
    assert set(ens.series) == {"tail_ge_1", "tail_ge_2", "tail_ge_3",
                               "virtual_wait", "actual_wait", "chaos_gap"}
    tail1 = ens.series["tail_ge_1"]
    assert tail1.replications == 25
    assert np.all(tail1.values >= ens.series["tail_ge_2"].values)
    assert np.all(tail1.stderr > 0.0)
    aw = ens.series["actual_wait"]
    assert np.all(aw.values >= 0.0)
    assert np.all(np.diff(aw.times) > 0.0)
    with pytest.raises(ValueError):
        ensemble(30, EXP, ConstantRate(0.7), [1.0], replications=1, seed=1)
    with pytest.raises(ValueError):
        ensemble(30, EXP, ConstantRate(0.7), [1.0], replications=5,
                 seed=None)


def test_run_validates_sample_times():
    net = initial_network(5, EXP, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        run(net, ConstantRate(0.5), sample_times=[2.0, 1.0])
    with pytest.raises(ValueError):
        run(net, ConstantRate(0.5), sample_times=[1.0], horizon=0.5)


def test_rebase_preserves_ages_and_clears_logs():
    net = initial_network(10, EXP, jobs_per_queue=1,
                          rng=np.random.default_rng(5))
    net._advance(ConstantRate(0.8), 4.0)
    lengths_before = net.lengths().tolist()
    heads_before = [q[0] for q in net.queues if q]
    net.rebase()
    assert net.clock == 0.0
    assert net.lengths().tolist() == lengths_before
    assert net.arrivals == 0 and net.departures == 0 and not net.wait_bins
    assert net.initial_jobs == sum(lengths_before)
    heads_after = [q[0] for q in net.queues if q]
    for (v0, _), (v1, _) in zip(heads_before, heads_after):
        assert v0 == v1
    busy = [i for i, q in enumerate(net.queues) if q]
    for i in busy:
        assert net.service_start[i] <= 0.0
