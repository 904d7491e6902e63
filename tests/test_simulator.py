import heapq
import itertools
import math
from collections import deque
from dataclasses import fields

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
    simulator,
)

EXP = Exponential()


def net_with_lengths(lengths, dist=EXP, d=2, rng=None):
    """A network whose queues hold the given numbers of jobs, each busy
    server's head departing at t = 1 and the jobs behind it one time unit
    apart."""
    net = Network(len(lengths), dist, d=d,
                  rng=rng if rng is not None else np.random.default_rng(0))
    for q, k in zip(net.queues, lengths):
        q.extend(1.0 + j for j in range(k))
    net.initial_jobs = sum(lengths)
    return net


def route(net, picks, uniforms=()):
    """The queue that routing picks among `picks`, consuming exactly the
    given tie-break uniforms; drawing past them raises StopIteration."""
    return simulator._shortest(picks, net.queues, iter(uniforms).__next__)


def test_route_prefers_shorter_pick():
    net = net_with_lengths([0, 5])
    assert route(net, [1, 0]) == 0
    assert route(net, [0, 1]) == 0


def test_route_tie_break_uses_uniform_among_picks():
    # second pick replaces the first iff the uniform draw falls under 1/2
    net = net_with_lengths([3, 3])
    assert route(net, [0, 1], [0.9]) == 0
    assert route(net, [0, 1], [0.3]) == 1


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
        pick = simulator._shortest(net._next_pick(), net.queues,
                                   net._next_tie)
        hits[min(len(net.queues[pick]), 5)] += 1
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
    # every job has its departure time: each server works through its two
    # fresh draws back to back from t = 0
    draws = EXP.sample(np.random.default_rng(1), 16).reshape(8, 2)
    assert [list(q) for q in net.queues] == draws.cumsum(axis=1).tolist()
    assert all(0.0 < q[0] <= q[1] for q in net.queues)


def test_initial_network_stationary_ages():
    dist = GammaService(2.0)
    net = initial_network(200, dist, kind="stationary_ages",
                          rng=np.random.default_rng(2))
    assert net.lengths().tolist() == [2] * 200
    # the head departs at its size-biased total minus its age, a uniform
    # fraction of that total; the queued job then takes a fresh draw
    rng = np.random.default_rng(2)
    totals = dist.sample_size_biased(rng, 200)
    ages = rng.random(200) * totals
    assert np.all(ages >= 0.0) and ages.max() > 0.5
    heads = np.array([q[0] for q in net.queues])
    np.testing.assert_array_equal(heads, totals - ages)
    # in-service draws are conditioned to outlast their age
    assert np.all(heads > 0.0)
    np.testing.assert_array_equal([q[1] for q in net.queues],
                                  heads + dist.sample(rng, 200))


def test_initial_network_stationary_ages_heavy_tail():
    # beta = 1.25 puts the stationary age's tail mass far out (about 7e-4
    # beyond 1e12); every server must still get a finite start
    net = initial_network(1000, ParetoService(1.25), kind="stationary_ages",
                          rng=np.random.default_rng(0))
    residuals = np.array([q[0] for q in net.queues])   # totals minus ages
    assert np.all(np.isfinite(residuals)) and np.all(residuals > 0.0)
    behind = np.array([q[1] for q in net.queues])
    assert np.all(np.isfinite(behind)) and np.all(behind >= residuals)


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
    # lengths (1, 2, 0, 4): 3, 2, 1, 1 and 0 of the four servers hold at
    # least 1..5 jobs; longer queues fold into the top level
    net = net_with_lengths([1, 2, 0, 4])
    assert net.tail_fractions(max_level=3).tolist() == [0.75, 0.5, 0.25]
    assert net.tail_fractions(max_level=5).tolist() == \
        [0.75, 0.5, 0.25, 0.25, 0.0]


def test_work_ahead_hand_value():
    # a job joining server 0 at t = 0.2 waits for the head's residual
    # 1.2 - 0.2 plus one queued service at its unit mean, not at its drawn
    # 3.0; lengths (2, 0) route there with probability
    # (tail_2 + tail_3)/n = (0.5 + 0)/2
    net = Network(2, EXP, rng=np.random.default_rng(0))
    net.queues[0] = deque([1.2, 4.2])
    net.clock = 0.2
    assert net.expected_virtual_wait() == pytest.approx(0.25 * 2.0,
                                                        rel=1e-12)


def test_expected_virtual_wait_hand_value():
    # lengths (0, 1): wait 0 on the empty server; the busy one is hit
    # with probability (tail_1 + tail_2)/n = (0.5 + 0)/2
    net = Network(2, EXP, rng=np.random.default_rng(0))
    net.queues[1].append(2.0)
    assert net.expected_virtual_wait() == pytest.approx(0.25 * 2.0)


def test_expected_virtual_wait_matches_enumeration_d3():
    # shortest-of-3 on lengths (0, 1, 2, 2, 3): average the work ahead of
    # the routed server over all n^3 ordered picks, ties split evenly
    # among the tied picks (a server picked twice counts twice); the
    # work ahead is the head's residual plus len - 1 unit-mean services,
    # whatever the departure times of the jobs behind the head
    net = Network(5, EXP, d=3, rng=np.random.default_rng(0))
    net.clock = 0.25
    departures = {1: [1.25], 2: [1.0, 3.5], 3: [0.3, 0.4],
                  4: [0.5, 2.0, 7.0]}
    for i, times in departures.items():
        net.queues[i] = deque(times)
    lengths = [len(q) for q in net.queues]
    assert lengths == [0, 1, 2, 2, 3]

    def work_ahead(i):
        if not lengths[i]:
            return 0.0
        return departures[i][0] - net.clock + (lengths[i] - 1)

    total = 0.0
    picks = list(itertools.product(range(net.n), repeat=net.d))
    for pick in picks:
        best = min(lengths[i] for i in pick)
        tied = [i for i in pick if lengths[i] == best]
        total += sum(work_ahead(i) for i in tied) / len(tied)
    want = total / len(picks)
    assert net.expected_virtual_wait() == pytest.approx(want, rel=1e-12)


def test_mass_balance():
    rng = np.random.default_rng(17)
    net = initial_network(50, GammaService(2.0), jobs_per_queue=1, rng=rng)
    res = run(net, ConstantRate(0.8), sample_times=[5.0, 20.0])
    assert res.arrivals - res.departures == \
        int(net.lengths().sum()) - net.initial_jobs
    assert res.arrivals > 0 and res.departures > 0


def test_finished_run_invariants():
    net = initial_network(10, GammaService(2.0), jobs_per_queue=2,
                          rng=np.random.default_rng(23))
    res = run(net, ConstantRate(0.9), sample_times=[10.0])
    assert res.arrivals > 0 and res.departures > 0
    # FIFOs hold departure times in order, none at or before the clock:
    # reaching the horizon dropped those
    for q in net.queues:
        times = list(q)
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert all(t > net.clock for t in times)
    assert res.arrivals - res.departures == \
        int(net.lengths().sum()) - net.initial_jobs


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


def test_single_server_has_no_chaos_gap():
    # the gap compares two distinct servers; one server would be paired
    # with itself and report p - p^2, the variance of its busy indicator
    ens = ensemble(1, EXP, ConstantRate(0.5), [1.0, 2.0], replications=4,
                   seed=1)
    assert "virtual_wait" in ens.series and "chaos_gap" not in ens.series


def test_single_server_gamma_wait_matches_pollaczek_khinchine():
    # n = 1 is an M/G/1 queue; with Gamma(2) service (E[S^2] = 1.5) at
    # rate 0.5 the stationary mean virtual wait is the Pollaczek-Khinchine
    # value lam E[S^2] / (2 (1 - rho)) = 0.75.  Each replication averages
    # its wait over a late window, so the replication means are i.i.d.
    lam, reps = 0.5, 200
    times = np.arange(100.0, 400.01, 1.0)
    means = np.empty(reps)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([1701, rep]))
        net = initial_network(1, GammaService(2.0), jobs_per_queue=0,
                              rng=rng)
        means[rep] = run(net, ConstantRate(lam), times).expected_wait.mean()
    se = means.std(ddof=1) / math.sqrt(reps)
    assert se < 0.05
    assert abs(means.mean() - 0.75) <= 4.0 * se


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


def test_ensemble_replication_ignores_the_replication_count(monkeypatch):
    # each replication draws from its own network's blocks, so replication
    # k is the same in a 3- and a 5-replication ensemble; at about 200
    # arrivals a replication runs through several block refills
    results = []

    def recording_run(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(simulator, "run", recording_run)
    kwargs = dict(sample_times=[2.0, 5.0], seed=41, max_level=3)
    ensemble(50, GammaService(2.0), ConstantRate(0.8), replications=3,
             **kwargs)
    three = results[:]
    results.clear()
    ensemble(50, GammaService(2.0), ConstantRate(0.8), replications=5,
             **kwargs)
    assert len(three) == 3 and len(results) == 5
    assert all(res.arrivals > 150 for res in three)
    assert three[0].arrivals != three[1].arrivals
    for a, b in zip(three, results):
        for f in fields(a):
            np.testing.assert_array_equal(getattr(a, f.name),
                                          getattr(b, f.name))


def test_advance_rejects_events_before_the_clock():
    # a departure planted before the clock, dropped on reaching t_end
    net = net_with_lengths([1, 0])           # head departs at t = 1
    net.clock = 2.0
    with pytest.raises(AssertionError, match="event order violated"):
        net._advance(ConstantRate(0.0), 3.0)
    # or dropped by an arrival that picks its server; that arrival's job
    # would depart after t_end, so only the arrival can see it
    profile = ConstantRate(1.0)
    net = net_with_lengths([1], d=1)
    net.clock = 2.0
    net._pending, net._pending_profile = 2.5, profile
    net._next_service = iter([5.0]).__next__
    with pytest.raises(AssertionError, match="event order violated"):
        net._advance(profile, 3.0)
    # a pending arrival before the clock
    profile = ConstantRate(1.0)
    net = net_with_lengths([0, 0])
    net.clock = 2.0
    net._pending, net._pending_profile = 1.5, profile
    with pytest.raises(AssertionError, match="event order violated"):
        net._advance(profile, 3.0)


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
    departures_before = [list(q) for q in net.queues]
    net.rebase()
    assert net.clock == 0.0
    assert net.lengths().tolist() == lengths_before
    assert net.arrivals == 0 and net.departures == 0 and not net.wait_bins
    assert net.initial_jobs == sum(lengths_before)
    # every time moves back by 4, so residuals are unchanged
    for q, before in zip(net.queues, departures_before):
        assert list(q) == [t - 4.0 for t in before]
        assert all(t > 0.0 for t in q)


class Replay:
    """An arrival profile whose unit exponentials are the arrival times
    themselves, so a network fed a list of times arrives at exactly those."""

    def next_arrival(self, t, e, scale=1.0):
        return e


def new_loop(net, arrivals, picks, ties, services, sample_times):
    """`net` driven by `_advance` through the given per-job arrival times,
    picks, tie uniforms and service times (drawing past them raises
    StopIteration).  Returns the lengths and head departure times at each
    sample, the departures and the wait bins."""
    net._next_exp = iter(list(arrivals) + [math.inf]).__next__
    net._next_pick = iter(picks).__next__
    net._next_tie = iter(ties).__next__
    net._next_service = iter(services).__next__
    profile = Replay()
    observed = []
    for t in sample_times:
        net._advance(profile, t)
        observed.append(([len(q) for q in net.queues],
                         [q[0] if q else None for q in net.queues]))
    bins = {idx: tuple(cell) for idx, cell in net.wait_bins.items()}
    return observed, net.departures, bins


def heap_reference(start, arrivals, picks, ties, services, sample_times,
                   width):
    """The same network as an event-driven loop: a heap of head
    departures, a job's service time used when its service starts, a
    departure at an arrival's instant served first and a job's wait logged
    when its service starts.  `start` holds each server's initial
    departure times.  After the last sample the jobs still waiting are
    served on, with no arrivals, so every job that arrived is logged."""
    n = len(start)
    # (arrival time, service time) of a job, (None, departure time) of an
    # initial one
    queues = [deque((None, end) for end in ends) for ends in start]
    head_end = [ends[0] if ends else None for ends in start]
    heap = [(ends[0], i) for i, ends in enumerate(start) if ends]
    heapq.heapify(heap)
    next_tie = iter(ties).__next__
    bins = {}

    def begin(i, t):
        arrived, x = queues[i][0]
        head_end[i] = x if arrived is None else t + x
        heapq.heappush(heap, (head_end[i], i))
        if arrived is not None:
            idx = int(arrived / width)
            s, c = bins.get(idx, (0.0, 0))
            bins[idx] = (s + t - arrived, c + 1)

    def depart():
        t, i = heapq.heappop(heap)
        queues[i].popleft()
        if queues[i]:
            begin(i, t)

    j, departures, observed = 0, 0, []
    for t_s in sample_times:
        while True:
            ta = arrivals[j] if j < len(arrivals) else math.inf
            if heap and heap[0][0] <= min(ta, t_s):
                depart()
                departures += 1
            elif ta <= t_s:
                i = simulator._shortest(picks[j], queues, next_tie)
                queues[i].append((ta, services[j]))
                if len(queues[i]) == 1:
                    begin(i, ta)
                j += 1
            else:
                break
        observed.append(([len(q) for q in queues],
                         [head_end[i] if q else None
                          for i, q in enumerate(queues)]))
    while heap:
        depart()
    return observed, departures, bins


def assert_same_run(net, arrivals, picks, ties, services, sample_times):
    start = [list(q) for q in net.queues]
    want = heap_reference(start, arrivals, picks, ties, services,
                          sample_times, net.wait_bin_width)
    got = new_loop(net, arrivals, picks, ties, services, sample_times)
    assert got[0] == want[0]             # lengths and heads, every sample
    assert got[1] == want[1]
    assert set(got[2]) == set(want[2])
    for idx, (s, c) in want[2].items():
        assert got[2][idx][1] == c
        assert got[2][idx][0] == pytest.approx(s, rel=1e-12, abs=1e-12)
    return got


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["fixed", "stationary_ages", "backlog"])
def test_arrival_loop_matches_departure_heap_reference(kind, d):
    # departures kept as times and dropped when read give the event-driven
    # loop's lengths, heads, departures and waits, input for input
    n, rate, horizon, dist = 6, 0.9, 8.0, GammaService(2.0)
    rng = np.random.default_rng(np.random.SeedSequence([2024, d]))
    net = initial_network(n, dist, kind=kind, jobs_per_queue=2, d=d,
                          rng=rng, schedule=PiecewiseRate([(2.0, 1.5)]))
    times = np.cumsum(rng.exponential(1.0 / (n * rate), 200))
    arrivals = times[times <= horizon + 1.0].tolist()
    picks = rng.integers(0, n, (len(arrivals), d)).tolist()
    ties = rng.random(len(arrivals) * d).tolist()
    services = dist.sample(rng, len(arrivals)).tolist()
    sample_times = np.arange(0.25, horizon + 1e-9, 0.25).tolist()
    observed, departures, bins = assert_same_run(
        net, arrivals, picks, ties, services, sample_times)
    assert departures > 10
    assert sum(c for _, c in bins.values()) == \
        sum(t <= horizon for t in arrivals)
    assert max(max(lengths) for lengths, _ in observed) >= 3


def hand_net(departures, d):
    net = Network(len(departures), EXP, d=d, rng=np.random.default_rng(0),
                  wait_bin_width=0.5)
    for q, times in zip(net.queues, departures):
        q.extend(times)
    return net


def test_departure_at_an_arrival_instant_leaves_first():
    # server 0 empties at 1.0 as the arrival there looks: no tie to break
    net = hand_net([[1.0], [5.0]], d=2)
    observed, departures, bins = assert_same_run(
        net, [1.0], [[0, 1]], [], [2.0], [1.0, 2.0])
    assert observed[0] == ([1, 1], [3.0, 5.0])
    assert departures == 1 and bins == {2: (0.0, 1)}


def test_departure_at_a_sample_time_counts_there():
    net = hand_net([[2.0, 3.0]], d=1)
    observed, departures, _ = assert_same_run(net, [], [], [], [], [2.0])
    assert observed == [([1], [3.0])] and departures == 1


def test_arrival_at_t_end_is_processed():
    net = hand_net([[0.5], []], d=2)
    observed, departures, bins = assert_same_run(
        net, [3.0], [[0, 1]], [0.9], [1.0], [3.0])
    # both picks are empty at 3.0, and the uniform keeps the first
    assert observed == [([1, 0], [4.0, None])]
    assert net.arrivals == 1 and departures == 1 and bins == {6: (0.0, 1)}


def test_server_picked_twice_drops_its_departures_once():
    # a server picked twice ties with itself (one uniform) and its earlier
    # departure leaves once
    net = hand_net([[1.0, 2.5], [4.0]], d=2)
    observed, departures, bins = assert_same_run(
        net, [2.0], [[0, 0]], [0.3], [1.0], [2.0, 3.0])
    assert observed[0] == ([2, 1], [2.5, 4.0])
    assert observed[1] == ([1, 1], [3.5, 4.0])
    assert departures == 2 and bins == {4: (0.5, 1)}
