"""Discrete-event simulation of N parallel FIFO servers with
shortest-of-d routing.

Arrivals form a Poisson process with intensity N * lambda(t); each
arrival picks d servers uniformly with replacement and joins the
shortest picked queue (ties resolved uniformly among the picks, so a
server picked twice counts twice).  Service times are i.i.d. from a
unit-mean law and each server works through its queue in FIFO order
without idling.

Routing looks only at queue lengths, so a job's service time is drawn
when its service starts.  Per server the state is a FIFO of arrival
times (the head is in service) and the head's completion time.

Each network draws its randomness in blocks from its own generator, as
four streams: the d routing picks of each arrival, service times,
tie-break uniforms, and the unit exponentials that `next_arrival` turns
into arrival times.  Blocks grow geometrically up to a fixed size, so
short replications draw little they never use.  One flat loop in
`Network._advance` serves every event from those streams.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from .arrivals import ArrivalProfile, PiecewiseRate
from .distributions import ServiceDistribution

__all__ = [
    "Network",
    "RunResult",
    "EnsembleResult",
    "initial_network",
    "run",
    "ensemble",
]

# Each random stream is drawn in blocks of FIRST_BLOCK, then BLOCK_GROWTH
# times the last block, up to MAX_BLOCK: a two-server replication with a
# dozen events draws little it never uses, while a long one spends almost
# no time in numpy's per-call overhead.
FIRST_BLOCK = 16
BLOCK_GROWTH = 4
MAX_BLOCK = 2048


def _block_sizes():
    size = FIRST_BLOCK
    while True:
        yield size
        size = min(size * BLOCK_GROWTH, MAX_BLOCK)


def _stream(draw):
    """The next() of an endless stream of items, where draw(size) returns
    a list of the next `size` items.  Nothing is drawn until asked for."""
    return itertools.chain.from_iterable(map(draw, _block_sizes())).__next__


def _shortest(picks, queues, next_tie) -> int:
    """The shortest of the picked queues; ties go uniformly to one of the
    tied picks, each tie consuming one uniform from next_tie()."""
    best = picks[0]
    best_len = len(queues[best])
    ties = 1
    for p in picks[1:]:
        plen = len(queues[p])
        if plen < best_len:
            best, best_len, ties = p, plen, 1
        elif plen == best_len:
            ties += 1
            if next_tie() * ties < 1.0:
                best = p
    return best


class Network:
    """Mutable simulator state plus the event loop."""

    def __init__(self, n: int, dist: ServiceDistribution, d: int = 2,
                 rng=None, wait_bin_width: float = 0.1):
        if n < 1:
            raise ValueError("need at least one server")
        if d < 1:
            raise ValueError("d must be at least 1")
        if wait_bin_width <= 0.0:
            raise ValueError("wait_bin_width must be positive")
        self.n = n = int(n)
        self.dist = dist
        self.d = d = int(d)
        self.rng = rng = rng if rng is not None else np.random.default_rng()
        self.wait_bin_width = float(wait_bin_width)
        self.clock = 0.0
        self.queues = [deque() for _ in range(self.n)]   # arrival times
        self.head_end = [0.0] * self.n                   # valid while busy
        self.arrivals = 0
        self.departures = 0
        self.initial_jobs = 0
        self.wait_bins: dict[int, list] = {}
        self._dep_heap: list = []
        self._pending = None
        self._pending_profile = None
        # per-event draws: d routing picks, one service time, one
        # tie-break uniform and one unit exponential for the arrival clock
        self._next_pick = _stream(
            lambda size: rng.integers(0, n, size=(size, d)).tolist())
        self._next_service = _stream(
            lambda size: dist.sample(rng, size).tolist())
        self._next_tie = _stream(lambda size: rng.random(size).tolist())
        self._next_exp = _stream(
            lambda size: rng.standard_exponential(size).tolist())

    # ------------------------------------------------------------------
    # event machinery

    def _advance(self, profile: ArrivalProfile, t_end: float):
        """Process every arrival and departure up to and including t_end."""
        if t_end < self.clock:
            raise ValueError("cannot advance backwards")
        n = self.n
        next_arrival = profile.next_arrival
        next_exp = self._next_exp
        if self._pending is None or self._pending_profile is not profile:
            # a profile switch is only exact at a deterministic instant,
            # which is the only way this simulator switches profiles
            self._pending = next_arrival(self.clock, next_exp(), n)
            self._pending_profile = profile
        ta = self._pending
        clock = self.clock
        queues, head_end, heap = self.queues, self.head_end, self._dep_heap
        next_pick, next_tie = self._next_pick, self._next_tie
        next_service = self._next_service
        bins, width = self.wait_bins, self.wait_bin_width
        arrivals, departures = self.arrivals, self.departures
        while True:
            if heap and heap[0][0] <= ta:
                t, i = heap[0]
                if t > t_end:
                    break
                if t < clock:
                    raise AssertionError("event order violated")
                clock = t
                departures += 1
                q = queues[i]
                q.popleft()
                if not q:
                    heappop(heap)
                    continue
                end = t + next_service()
                head_end[i] = end
                heapreplace(heap, (end, i))
                arrived = q[0]
                if arrived < 0.0:     # arrived before t = 0: no wait logged
                    continue
                wait = t - arrived
            else:
                t = ta
                if t > t_end:
                    break
                if t < clock:
                    raise AssertionError("event order violated")
                clock = t
                arrivals += 1
                i = _shortest(next_pick(), queues, next_tie)
                q = queues[i]
                q.append(t)
                ta = next_arrival(t, next_exp(), n)
                if len(q) > 1:
                    continue
                end = t + next_service()
                head_end[i] = end
                heappush(heap, (end, i))
                arrived, wait = t, 0.0
            # log the wait of the job that just entered service
            idx = int(arrived / width)
            cell = bins.get(idx)
            if cell is None:
                bins[idx] = [wait, 1]
            else:
                cell[0] += wait
                cell[1] += 1
        self._pending = ta
        self.clock = t_end
        self.arrivals, self.departures = arrivals, departures

    def _start_all(self, ends: list):
        """Put every server's head in service, finishing at ends[i]."""
        self.head_end = ends
        self._dep_heap = [(end, i) for i, end in enumerate(self.head_end)]
        heapify(self._dep_heap)

    def route(self) -> int:
        """Pick d servers uniformly with replacement; return the shortest,
        ties resolved uniformly among the picks (multiplicity counts)."""
        return _shortest(self._next_pick(), self.queues, self._next_tie)

    # ------------------------------------------------------------------
    # observation (none of these mutate state)

    def lengths(self) -> np.ndarray:
        return np.fromiter(map(len, self.queues), dtype=np.int64,
                           count=self.n)

    def tail_fractions(self, max_level: int = 4) -> np.ndarray:
        """tail[l-1] is the fraction of servers holding at least l jobs,
        for l = 1..max_level."""
        capped = np.minimum(self.lengths(), max_level)
        counts = np.bincount(capped, minlength=max_level + 1)
        return counts[::-1].cumsum()[::-1][1:] / self.n

    def expected_virtual_wait(self) -> float:
        """Conditional mean of the virtual wait given the lengths and the
        head completion times.  The routing law lands on a given length-l
        queue with probability routing_weights(tail_l, tail_{l+1}, d) / n;
        the wait there is the head's residual plus l - 1 queued services,
        counted at their unit mean since they are not drawn yet."""
        from .fluid import routing_weights

        lengths = self.lengths()
        top = int(lengths.max())
        if top == 0:
            return 0.0
        counts = np.bincount(lengths, minlength=top + 2)
        tail = counts[::-1].cumsum()[::-1] / self.n   # tail[l] = frac >= l
        weights = routing_weights(tail[1:-1], tail[2:], self.d)
        busy = np.nonzero(lengths)[0]
        queued = lengths[busy] - 1
        ahead = np.asarray(self.head_end)[busy] - self.clock + queued
        return float(weights[queued] @ ahead) / self.n

    def rebase(self):
        """Relabel the current instant as t = 0 (ages are preserved);
        clears wait logs and counters."""
        offset = self.clock
        self.clock = 0.0
        self.queues = [deque(ta - offset for ta in q) for q in self.queues]
        self.head_end = [end - offset for end in self.head_end]
        self._dep_heap = [(end - offset, i) for end, i in self._dep_heap]
        heapify(self._dep_heap)
        self.arrivals = 0
        self.departures = 0
        self.initial_jobs = sum(len(q) for q in self.queues)
        self.wait_bins = {}
        self._pending = None
        self._pending_profile = None


def initial_network(n: int, dist: ServiceDistribution, kind: str = "fixed",
                    jobs_per_queue: int = 1, d: int = 2, rng=None,
                    schedule: PiecewiseRate | None = None,
                    wait_bin_width: float = 0.1) -> Network:
    """Build a network in one of the supported starting states.

    kind="fixed": jobs_per_queue fresh jobs at every server (age 0).
    kind="stationary_ages": two jobs per server; the in-service job's
    total is size-biased and its age a uniform fraction of that total,
    so the age follows the stationary age law and the total the service
    law conditioned to exceed it.
    kind="backlog": simulate the one-shot `schedule` from empty, then
    relabel its end as t = 0.
    Only the jobs in service get a service time here.
    """
    net = Network(n, dist, d=d, rng=rng, wait_bin_width=wait_bin_width)
    rng = net.rng
    if kind == "fixed":
        if jobs_per_queue < 0:
            raise ValueError("jobs_per_queue must be nonnegative")
        if jobs_per_queue:
            for q in net.queues:
                q.extend([0.0] * jobs_per_queue)
            net._start_all(dist.sample(rng, n).tolist())
    elif kind == "stationary_ages":
        # a uniform fraction of a size-biased total is a stationary age,
        # and the total is then the service time conditioned to exceed it
        totals = dist.sample_size_biased(rng, n)
        ages = rng.random(n) * totals
        for q, age in zip(net.queues, ages.tolist()):
            q.extend((-age, 0.0))
        net._start_all((totals - ages).tolist())
    elif kind == "backlog":
        if schedule is None or schedule.repeat:
            raise ValueError("backlog start needs a one-shot schedule")
        net._advance(schedule, schedule.cycle_length)
        net.rebase()
    else:
        raise ValueError(f"unknown starting state kind {kind!r}")
    net.initial_jobs = sum(len(q) for q in net.queues)
    return net


@dataclass
class RunResult:
    """One replication, observed at the requested sample times."""

    sample_times: np.ndarray             # (T,)
    tail_frac: np.ndarray                # (T, max_level)
    expected_wait: np.ndarray            # (T,)
    probe_lengths: np.ndarray            # (T, 2) queue lengths at servers 0, 1
    wait_bin_width: float
    wait_bin_sum: np.ndarray             # (B,)
    wait_bin_count: np.ndarray           # (B,)
    arrivals: int
    departures: int


def run(net: Network, profile: ArrivalProfile, sample_times,
        max_level: int = 4, horizon: float | None = None,
        measure_wait: bool = True) -> RunResult:
    """Drive one network through `profile`, sampling at the given times."""
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.ndim != 1 or sample_times.size == 0:
        raise ValueError("need at least one sample time")
    if np.any(np.diff(sample_times) <= 0.0) or sample_times[0] < 0.0:
        raise ValueError("sample times must be nonnegative and increasing")
    if horizon is None:
        horizon = float(sample_times[-1])
    if horizon < sample_times[-1]:
        raise ValueError("horizon ends before the last sample time")
    T = sample_times.size
    tail = np.empty((T, max_level))
    wait = np.zeros(T)
    probe = np.empty((T, 2), dtype=np.int64)
    for s, t_s in enumerate(sample_times):
        net._advance(profile, t_s)
        tail[s] = net.tail_fractions(max_level)
        if measure_wait:
            wait[s] = net.expected_virtual_wait()
        probe[s, 0] = len(net.queues[0])
        probe[s, 1] = len(net.queues[1 % net.n])
    if horizon > net.clock:
        net._advance(profile, horizon)
    n_bins = int(math.ceil(horizon / net.wait_bin_width - 1e-9))
    bin_sum = np.zeros(n_bins)
    bin_count = np.zeros(n_bins)
    for idx, (s_w, c_w) in net.wait_bins.items():
        if idx < n_bins:
            bin_sum[idx] = s_w
            bin_count[idx] = c_w
    return RunResult(sample_times=sample_times, tail_frac=tail,
                     expected_wait=wait, probe_lengths=probe,
                     wait_bin_width=net.wait_bin_width,
                     wait_bin_sum=bin_sum, wait_bin_count=bin_count,
                     arrivals=net.arrivals, departures=net.departures)


@dataclass
class EnsembleResult:
    """Replication averages; series keyed by metric name."""

    series: dict
    replications: int
    sample_times: np.ndarray


def ensemble(n: int, dist: ServiceDistribution, profile: ArrivalProfile,
             sample_times, replications: int, seed: int, d: int = 2,
             kind: str = "fixed", jobs_per_queue: int = 1,
             schedule: PiecewiseRate | None = None, max_level: int = 4,
             wait_bin_width: float = 0.1, horizon: float | None = None,
             measure_wait: bool = True) -> EnsembleResult:
    """Independent replications with per-replication seed streams.

    Returns tail fractions per level, the mean virtual wait, binned
    actual waits, and the pair-independence gap at level 1, each with
    across-replication standard errors.
    """
    from .metrics import MetricSeries

    if replications < 2:
        raise ValueError("need at least two replications for error bars")
    if seed is None:
        raise ValueError("ensemble runs require an explicit seed")
    sample_times = np.asarray(sample_times, dtype=float)
    reps = int(replications)
    tails = None
    waits = np.empty((reps, sample_times.size))
    probes = np.empty((reps, sample_times.size, 2), dtype=np.int64)
    bin_sums = bin_counts = None
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        net = initial_network(n, dist, kind=kind,
                              jobs_per_queue=jobs_per_queue, d=d, rng=rng,
                              schedule=schedule,
                              wait_bin_width=wait_bin_width)
        res = run(net, profile, sample_times, max_level=max_level,
                  horizon=horizon, measure_wait=measure_wait)
        if tails is None:
            tails = np.empty((reps,) + res.tail_frac.shape)
            bin_sums = np.empty((reps, res.wait_bin_sum.size))
            bin_counts = np.empty((reps, res.wait_bin_count.size))
        tails[rep] = res.tail_frac
        waits[rep] = res.expected_wait
        probes[rep] = res.probe_lengths
        bin_sums[rep] = res.wait_bin_sum
        bin_counts[rep] = res.wait_bin_count

    def across(name, data):
        mean = data.mean(axis=0)
        se = data.std(axis=0, ddof=1) / math.sqrt(reps)
        return MetricSeries(name=name, times=sample_times, values=mean,
                            stderr=se, source="mc", replications=reps)

    series = {}
    for level in range(1, max_level + 1):
        series[f"tail_ge_{level}"] = across(f"tail_ge_{level}",
                                            tails[:, :, level - 1])
    if measure_wait:
        series["virtual_wait"] = across("virtual_wait", waits)

    # binned actual waits: replication mean of per-bin means
    with np.errstate(invalid="ignore"):
        per_rep = np.where(bin_counts > 0, bin_sums / np.maximum(bin_counts, 1),
                           np.nan)
    n_obs = (bin_counts > 0).sum(axis=0)
    keep = n_obs >= 2
    if keep.any():
        centers = (np.nonzero(keep)[0] + 0.5) * wait_bin_width
        data = per_rep[:, keep]
        mean = np.nanmean(data, axis=0)
        se = np.nanstd(data, axis=0, ddof=1) / np.sqrt(n_obs[keep])
        series["actual_wait"] = MetricSeries(
            name="actual_wait", times=centers, values=mean, stderr=se,
            source="mc", replications=reps)

    # pair independence gap at level 1 between two tagged servers
    u = ((probes[:, :, 0] >= 1) & (probes[:, :, 1] >= 1)).astype(float)
    v = (probes[:, :, 0] >= 1).astype(float)
    w = (probes[:, :, 1] >= 1).astype(float)
    vbar, wbar = v.mean(axis=0), w.mean(axis=0)
    gap = u.mean(axis=0) - vbar * wbar
    influence = u - wbar[None, :] * v - vbar[None, :] * w
    gap_se = influence.std(axis=0, ddof=1) / math.sqrt(reps)
    series["chaos_gap"] = MetricSeries(name="chaos_gap", times=sample_times,
                                       values=gap, stderr=gap_se, source="mc",
                                       replications=reps)
    return EnsembleResult(series=series, replications=reps,
                          sample_times=sample_times)
