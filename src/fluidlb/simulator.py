"""Discrete-event simulation of N parallel FIFO servers with
shortest-of-d routing.

Arrivals form a Poisson process with intensity N * lambda(t); each
arrival picks d servers uniformly with replacement and joins the
shortest picked queue (ties resolved uniformly among the picks, so a
server picked twice counts twice).  Service times are i.i.d. from a
unit-mean law and each server works through its queue in FIFO order
without idling.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .arrivals import ArrivalProfile, PiecewiseRate
from .distributions import ServiceDistribution

__all__ = [
    "Network",
    "DescriptorSample",
    "RunResult",
    "EnsembleResult",
    "initial_network",
    "run",
    "ensemble",
]


@dataclass
class DescriptorSample:
    """Empirical tail state at one instant.

    tail_frac[l-1] is the fraction of servers with at least l jobs;
    residual_mass[l-1, j] additionally weights each such server by the
    probability its in-service job survives r_grid[j] more time units
    given its current age.  The r = 0 column equals tail_frac exactly.
    """

    t: float
    r_grid: np.ndarray
    tail_frac: np.ndarray
    residual_mass: np.ndarray
    excluded: int = 0


class Network:
    """Mutable simulator state plus the event loop."""

    def __init__(self, n: int, dist: ServiceDistribution, d: int = 2,
                 rng=None, wait_bin_width: float = 0.1,
                 record_events: bool = False):
        if n < 1:
            raise ValueError("need at least one server")
        if d < 1:
            raise ValueError("d must be at least 1")
        if wait_bin_width <= 0.0:
            raise ValueError("wait_bin_width must be positive")
        self.n = int(n)
        self.dist = dist
        self.d = int(d)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.wait_bin_width = float(wait_bin_width)
        self.clock = 0.0
        self.queues = [deque() for _ in range(self.n)]   # (service, arrival)
        self.service_start = [0.0] * self.n              # valid while busy
        self.waiting_work = [0.0] * self.n               # work behind the head
        self.arrivals = 0
        self.departures = 0
        self.initial_jobs = 0
        self.wait_bins: dict[int, list] = {}
        self.events = [] if record_events else None
        self._dep_heap: list = []
        self._pending = None
        self._pending_profile = None

    # ------------------------------------------------------------------
    # event machinery

    def _advance(self, profile: ArrivalProfile, t_end: float):
        """Process every arrival and departure up to and including t_end."""
        if t_end < self.clock:
            raise ValueError("cannot advance backwards")
        if self._pending is None or self._pending_profile is not profile:
            # a profile switch is only exact at a deterministic instant,
            # which is the only way this simulator switches profiles
            self._pending = profile.next_arrival(self.clock, self.rng, self.n)
            self._pending_profile = profile
        heap = self._dep_heap
        while True:
            ta = self._pending
            td = heap[0][0] if heap else math.inf
            if td <= ta:
                if td > t_end:
                    break
                self._depart(td)
            else:
                if ta > t_end:
                    break
                self._arrive(ta, profile)
        self.clock = t_end

    def _arrive(self, t, profile):
        if t < self.clock:
            raise AssertionError("event order violated")
        self.clock = t
        self.arrivals += 1
        i = self.route()
        v = float(self.dist.sample(self.rng))
        q = self.queues[i]
        if q:
            self.waiting_work[i] += v
        else:
            self.service_start[i] = t
            heapq.heappush(self._dep_heap, (t + v, i))
            self._log_wait(t, 0.0)
        q.append((v, t))
        if self.events is not None:
            self.events.append(("arrive", t, i))
        self._pending = profile.next_arrival(t, self.rng, self.n)

    def _depart(self, td):
        if td < self.clock:
            raise AssertionError("event order violated")
        self.clock = td
        t, i = heapq.heappop(self._dep_heap)
        q = self.queues[i]
        q.popleft()
        self.departures += 1
        if q:
            v2, ta2 = q[0]
            self.waiting_work[i] -= v2
            self.service_start[i] = td
            heapq.heappush(self._dep_heap, (td + v2, i))
            self._log_wait(ta2, td - ta2)
        if self.events is not None:
            self.events.append(("depart", td, i))

    def _log_wait(self, arrival_time, wait):
        if arrival_time < 0.0:
            return
        idx = int(arrival_time / self.wait_bin_width)
        cell = self.wait_bins.get(idx)
        if cell is None:
            self.wait_bins[idx] = [wait, 1]
        else:
            cell[0] += wait
            cell[1] += 1

    def route(self) -> int:
        """Pick d servers uniformly with replacement; return the shortest,
        ties resolved uniformly among the picks (multiplicity counts)."""
        picks = self.rng.integers(0, self.n, size=self.d)
        best = int(picks[0])
        best_len = len(self.queues[best])
        ties = 1
        for k in range(1, self.d):
            p = int(picks[k])
            plen = len(self.queues[p])
            if plen < best_len:
                best, best_len, ties = p, plen, 1
            elif plen == best_len:
                ties += 1
                if self.rng.random() * ties < 1.0:
                    best = p
        return best

    # ------------------------------------------------------------------
    # observation (none of these mutate state)

    def lengths(self) -> np.ndarray:
        return np.fromiter((len(q) for q in self.queues), dtype=np.int64,
                           count=self.n)

    def measure_descriptor(self, r_grid=(0.0,), max_level: int = 4
                           ) -> DescriptorSample:
        """Empirical tails, optionally weighted by in-service survival.

        Servers whose in-service survival has underflowed are excluded
        from the weighted rows and counted in `excluded`.
        """
        r = np.asarray(r_grid, dtype=float)
        if r.ndim != 1 or r.size == 0 or r[0] != 0.0:
            raise ValueError("r_grid must be 1-d and start at 0.0")
        lengths = self.lengths()
        capped = np.minimum(lengths, max_level)
        counts = np.bincount(capped, minlength=max_level + 1).astype(float)
        tail = counts[::-1].cumsum()[::-1][1:] / self.n

        busy = np.nonzero(lengths > 0)[0]
        ages = self.clock - np.asarray(self.service_start, dtype=float)[busy]
        log_at_age = np.asarray(self.dist.log_ccdf(ages), dtype=float)
        ok = ~np.isneginf(log_at_age)
        excluded = int((~ok).sum())
        busy, ages, log_at_age = busy[ok], ages[ok], log_at_age[ok]
        weights = np.exp(
            np.asarray(self.dist.log_ccdf(ages[:, None] + r[None, :]))
            - log_at_age[:, None]
        )
        mass = np.zeros((max_level, r.size))
        cap_busy = capped[busy]
        for j in range(r.size):
            col = np.bincount(cap_busy, weights=weights[:, j],
                              minlength=max_level + 1)
            mass[:, j] = col[::-1].cumsum()[::-1][1:]
        mass /= self.n
        if excluded == 0:
            mass[:, 0] = tail    # exact identity at r = 0
        return DescriptorSample(t=self.clock, r_grid=r, tail_frac=tail,
                                residual_mass=mass, excluded=excluded)

    def work_ahead(self, i: int) -> float:
        """Wait a job joining queue i now would face."""
        q = self.queues[i]
        if not q:
            return 0.0
        head_residual = (self.service_start[i] + q[0][0]) - self.clock
        return head_residual + self.waiting_work[i]

    def virtual_wait_sample(self) -> float:
        """Wait a probe arrival would face, routed like a real arrival
        but without joining."""
        return self.work_ahead(self.route())

    def expected_virtual_wait(self) -> float:
        """Exact conditional mean of the virtual wait given the state:
        the routing law lands on a given length-l queue with probability
        routing_weights(tail_l, tail_{l+1}, d) / n."""
        from .fluid import routing_weights

        lengths = self.lengths()
        top = int(lengths.max())
        if top == 0:
            return 0.0
        counts = np.bincount(lengths, minlength=top + 2).astype(float)
        tail = counts[::-1].cumsum()[::-1] / self.n   # tail[l] = frac >= l
        work_by_len = np.zeros(top + 1)
        for i in range(self.n):
            li = len(self.queues[i])
            if li:
                work_by_len[li] += self.work_ahead(i)
        weights = routing_weights(tail[1:-1], tail[2:], self.d)
        total = 0.0
        for li in range(1, top + 1):
            if work_by_len[li]:
                total += weights[li - 1] * work_by_len[li]
        return total / self.n

    def rebase(self):
        """Relabel the current instant as t = 0 (ages are preserved);
        clears wait logs and counters."""
        offset = self.clock
        self.clock = 0.0
        self.service_start = [s - offset for s in self.service_start]
        self.queues = [deque((v, ta - offset) for v, ta in q)
                       for q in self.queues]
        self._dep_heap = [(t - offset, i) for t, i in self._dep_heap]
        heapq.heapify(self._dep_heap)
        self.arrivals = 0
        self.departures = 0
        self.initial_jobs = sum(len(q) for q in self.queues)
        self.wait_bins = {}
        if self.events is not None:
            self.events = []
        self._pending = None
        self._pending_profile = None


def initial_network(n: int, dist: ServiceDistribution, kind: str = "fixed",
                    jobs_per_queue: int = 1, d: int = 2, rng=None,
                    schedule: PiecewiseRate | None = None,
                    wait_bin_width: float = 0.1,
                    record_events: bool = False) -> Network:
    """Build a network in one of the supported starting states.

    kind="fixed": jobs_per_queue fresh jobs at every server (age 0).
    kind="stationary_ages": two jobs per server; the in-service job's
    total is size-biased and its age a uniform fraction of that total,
    so the age follows the stationary age law and the total the service
    law conditioned to exceed it.
    kind="backlog": simulate the one-shot `schedule` from empty, then
    relabel its end as t = 0.
    """
    net = Network(n, dist, d=d, rng=rng, wait_bin_width=wait_bin_width,
                  record_events=record_events)
    rng = net.rng
    if kind == "fixed":
        if jobs_per_queue < 0:
            raise ValueError("jobs_per_queue must be nonnegative")
        for i in range(n):
            q = net.queues[i]
            for k in range(jobs_per_queue):
                v = float(dist.sample(rng))
                q.append((v, 0.0))
                if k == 0:
                    net.service_start[i] = 0.0
                    heapq.heappush(net._dep_heap, (v, i))
                else:
                    net.waiting_work[i] += v
    elif kind == "stationary_ages":
        # a uniform fraction of a size-biased total is a stationary age,
        # and the total is then the service time conditioned to exceed it
        totals = dist.sample_size_biased(rng, n)
        ages = rng.random(n) * totals
        queued = dist.sample(rng, n)
        for i, (head, age, behind) in enumerate(zip(
                totals.tolist(), ages.tolist(), queued.tolist())):
            net.queues[i].append((head, -age))
            net.queues[i].append((behind, 0.0))
            net.service_start[i] = -age
            net.waiting_work[i] = behind
            heapq.heappush(net._dep_heap, (head - age, i))
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
    descriptors: list = field(default_factory=list)


def run(net: Network, profile: ArrivalProfile, sample_times,
        max_level: int = 4, horizon: float | None = None,
        descriptor_r_grid=None, measure_wait: bool = True) -> RunResult:
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
    descriptors = []
    for s, t_s in enumerate(sample_times):
        net._advance(profile, t_s)
        snap = net.measure_descriptor(
            r_grid=descriptor_r_grid if descriptor_r_grid is not None else (0.0,),
            max_level=max_level,
        )
        if descriptor_r_grid is not None:
            descriptors.append(snap)
        tail[s] = snap.tail_frac
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
                     arrivals=net.arrivals, departures=net.departures,
                     descriptors=descriptors)


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
