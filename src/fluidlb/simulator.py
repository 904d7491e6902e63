"""Discrete-event simulation of N parallel FIFO servers with
shortest-of-d routing.

Arrivals form a Poisson process with intensity N * lambda(t); each
arrival picks d servers uniformly with replacement and joins the
shortest picked queue (ties resolved uniformly among the picks, so a
server picked twice counts twice).  Service times are i.i.d. from a
unit-mean law and each server works through its queue in FIFO order
without idling.

Routing and sampling read only queue lengths, and under FIFO a job's
start and departure are fixed once its service time is drawn (Lindley's
recursion), so arrivals are the only events.  Per server the state is a
FIFO of its jobs' departure times (the head is in service).  An arrival
at t draws its service time, drops the departures at or before t from
its picked queues, joins the shortest of them and appends
max(t, that queue's last departure) + service; its wait is known then
and is logged by arrival time.  Reaching a sample time drops every
departure at or before it, so the lengths read there are exact.

Each network draws its randomness in blocks from its own generator, as
four streams: the d routing picks of each arrival, service times,
tie-break uniforms, and the unit exponentials that `next_arrival` turns
into arrival times.  Blocks grow geometrically up to a fixed size, so
short replications draw little they never use.  One flat loop in
`Network._advance` serves every arrival from those streams.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

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
        self.queues = [deque() for _ in range(self.n)]   # departure times
        self.arrivals = 0
        self.departures = 0
        self.initial_jobs = 0
        self.wait_bins: dict[int, list] = {}
        self._pending = None
        self._pending_profile = None
        # per-arrival draws: d routing picks, one service time, one
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
        """Process every arrival up to and including t_end, then drop every
        departure at or before t_end.  A departure at an arrival's instant
        leaves before that arrival is routed."""
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
        if ta < clock:
            raise AssertionError("event order violated")
        queues = self.queues
        next_pick, next_tie = self._next_pick, self._next_tie
        next_service = self._next_service
        bins, width = self.wait_bins, self.wait_bin_width
        arrivals, departures = self.arrivals, self.departures
        while ta <= t_end:
            arrivals += 1
            service = next_service()
            picks = next_pick()
            for p in picks:
                q = queues[p]
                while q and q[0] <= ta:
                    if q.popleft() < clock:
                        raise AssertionError("event order violated")
                    departures += 1
            q = queues[_shortest(picks, queues, next_tie)]
            # every departure left in q is after ta
            begin = q[-1] if q else ta
            q.append(begin + service)
            wait = begin - ta
            idx = int(ta / width)
            cell = bins.get(idx)
            if cell is None:
                bins[idx] = [wait, 1]
            else:
                cell[0] += wait
                cell[1] += 1
            ta = next_arrival(ta, next_exp(), n)
        for q in queues:
            while q and q[0] <= t_end:
                if q.popleft() < clock:
                    raise AssertionError("event order violated")
                departures += 1
        self._pending = ta
        self.clock = t_end
        self.arrivals, self.departures = arrivals, departures

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
        heads' departure times.  The routing law lands on a given length-l
        queue with probability routing_weights(tail_l, tail_{l+1}, d) / n;
        the wait there is the head's residual plus l - 1 queued services,
        counted at their unit mean (same expectation as their drawn times,
        lower variance)."""
        from .fluid import routing_weights

        lengths = self.lengths()
        top = int(lengths.max())
        if top == 0:
            return 0.0
        counts = np.bincount(lengths, minlength=top + 2)
        tail = counts[::-1].cumsum()[::-1] / self.n   # tail[l] = frac >= l
        weights = routing_weights(tail[1:-1], tail[2:], self.d)
        queued = lengths[lengths > 0] - 1
        heads = np.fromiter((q[0] for q in self.queues if q), dtype=float,
                            count=queued.size)
        ahead = heads - self.clock + queued
        return float(weights[queued] @ ahead) / self.n

    def rebase(self):
        """Relabel the current instant as t = 0 (ages are preserved);
        clears wait logs and counters."""
        offset = self.clock
        self.clock = 0.0
        self.queues = [deque(t - offset for t in q) for q in self.queues]
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
    Every job gets its departure time here.
    """
    net = Network(n, dist, d=d, rng=rng, wait_bin_width=wait_bin_width)
    rng = net.rng
    services = None      # per server, the jobs' services from t = 0 on
    if kind == "fixed":
        if jobs_per_queue < 0:
            raise ValueError("jobs_per_queue must be nonnegative")
        if jobs_per_queue:
            services = dist.sample(rng, n * jobs_per_queue).reshape(
                n, jobs_per_queue)
    elif kind == "stationary_ages":
        # a uniform fraction of a size-biased total is a stationary age,
        # and the total is then the service time conditioned to exceed it
        totals = dist.sample_size_biased(rng, n)
        services = np.column_stack((totals - rng.random(n) * totals,
                                    dist.sample(rng, n)))
    elif kind == "backlog":
        if schedule is None or schedule.repeat:
            raise ValueError("backlog start needs a one-shot schedule")
        net._advance(schedule, schedule.cycle_length)
        net.rebase()
    else:
        raise ValueError(f"unknown starting state kind {kind!r}")
    if services is not None:
        for q, ends in zip(net.queues, services.cumsum(axis=1).tolist()):
            q.extend(ends)
    net.initial_jobs = sum(len(q) for q in net.queues)
    return net


@dataclass
class RunResult:
    """One replication, observed at the requested sample times."""

    tail_frac: np.ndarray                # (T, max_level)
    expected_wait: np.ndarray            # (T,)
    probe_lengths: np.ndarray            # (T, 2) queue lengths at servers 0, 1
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
    return RunResult(tail_frac=tail, expected_wait=wait, probe_lengths=probe,
                     wait_bin_sum=bin_sum, wait_bin_count=bin_count,
                     arrivals=net.arrivals, departures=net.departures)


@dataclass
class EnsembleResult:
    """Replication averages; series keyed by metric name."""

    series: dict


def ensemble(n: int, dist: ServiceDistribution, profile: ArrivalProfile,
             sample_times, replications: int, seed: int, d: int = 2,
             kind: str = "fixed", jobs_per_queue: int = 1,
             schedule: PiecewiseRate | None = None, max_level: int = 4,
             wait_bin_width: float = 0.1, horizon: float | None = None,
             measure_wait: bool = True) -> EnsembleResult:
    """Independent replications with per-replication seed streams.

    Returns tail fractions per level, the mean virtual wait, binned
    actual waits, and (for n > 1) the pair-independence gap at level 1,
    each with across-replication standard errors.
    """
    from .metrics import MetricSeries

    if replications < 2:
        raise ValueError("need at least two replications for error bars")
    if seed is None:
        raise ValueError("ensemble runs require an explicit seed")
    sample_times = np.asarray(sample_times, dtype=float)
    reps = int(replications)
    results = []
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        net = initial_network(n, dist, kind=kind,
                              jobs_per_queue=jobs_per_queue, d=d, rng=rng,
                              schedule=schedule,
                              wait_bin_width=wait_bin_width)
        results.append(run(net, profile, sample_times, max_level=max_level,
                           horizon=horizon, measure_wait=measure_wait))
    tails, waits, probes, bin_sums, bin_counts = (
        np.stack([getattr(res, name) for res in results])
        for name in ("tail_frac", "expected_wait", "probe_lengths",
                     "wait_bin_sum", "wait_bin_count"))

    def across(name, data):
        mean = data.mean(axis=0)
        se = data.std(axis=0, ddof=1) / math.sqrt(reps)
        return MetricSeries(name=name, times=sample_times, values=mean,
                            stderr=se, replications=reps)

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
            replications=reps)

    if n > 1:
        # pair independence gap at level 1 between two tagged servers; one
        # server has no pair
        u = ((probes[:, :, 0] >= 1) & (probes[:, :, 1] >= 1)).astype(float)
        v = (probes[:, :, 0] >= 1).astype(float)
        w = (probes[:, :, 1] >= 1).astype(float)
        vbar, wbar = v.mean(axis=0), w.mean(axis=0)
        gap = u.mean(axis=0) - vbar * wbar
        influence = u - wbar[None, :] * v - vbar[None, :] * w
        gap_se = influence.std(axis=0, ddof=1) / math.sqrt(reps)
        series["chaos_gap"] = MetricSeries(
            name="chaos_gap", times=sample_times, values=gap, stderr=gap_se,
            replications=reps)
    return EnsembleResult(series=series)
