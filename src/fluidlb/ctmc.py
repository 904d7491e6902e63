"""Exact transient solution of tiny exponential-service networks.

For a handful of servers with exponential service and constant-rate
Poisson arrivals, the joint queue-length vector is a CTMC on a truncated
lattice.  Uniformization gives transient distributions to a controlled
tolerance; this is the independent oracle the simulator is checked
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["CAP", "TransientTails", "queue_tail_marginals"]

# jobs per server at which the lattice is truncated by default
CAP = 30
# Poisson tail mass of uniformization steps left out at each time
TAIL_TOL = 1e-12
# largest probability of touching the cap that the truncation may hide
BOUNDARY_TOL = 1e-8


@dataclass
class TransientTails:
    """Marginal tail probabilities of one server's queue length."""

    times: np.ndarray        # (T,)
    tails: np.ndarray        # (T, max_level); tails[s, l-1] = P(X >= l)
    boundary_mass: np.ndarray  # (T,) probability of touching the cap


def _routing_matrix(n: int, d: int, cap: int):
    """prob[state, i]: chance an arrival joins server i, for every joint
    state; shortest of d uniform picks with replacement, ties uniform
    among the picks."""
    states = list(itertools.product(range(cap + 1), repeat=n))
    prob = np.zeros((len(states), n))
    picks = list(itertools.product(range(n), repeat=d))
    share = 1.0 / len(picks)
    for si, x in enumerate(states):
        for tup in picks:
            m = min(x[p] for p in tup)
            winners = [p for p in tup if x[p] == m]
            w = share / len(winners)
            for p in winners:
                prob[si, p] += w
    return states, prob


def queue_tail_marginals(n: int, rate: float, times, cap: int = CAP,
                         d: int = 2, jobs_per_queue: int = 1,
                         max_level: int = 3) -> TransientTails:
    """P(one server's queue >= l) at the requested times, starting from
    jobs_per_queue at every server.

    The lattice is truncated at `cap` jobs per server (arrivals that
    would overflow are dropped); the run errors out if the probability
    of touching the cap ever exceeds BOUNDARY_TOL, since the truncation
    would then be visible at the reported precision.
    """
    if n < 1 or n > 3:
        raise ValueError("the lattice oracle is meant for 1 to 3 servers")
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    if not 0 <= jobs_per_queue <= cap:
        raise ValueError("jobs_per_queue must lie in [0, cap]")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times < 0.0):
        raise ValueError("times must be nonnegative")
    # imported here, not at module level: scipy.stats alone costs every
    # command-line verb about 0.5 s of start-up, and only this oracle uses it
    from scipy import sparse, stats

    states, route_prob = _routing_matrix(n, d, cap)
    index = {x: i for i, x in enumerate(states)}
    S = len(states)
    arrival_rate = n * rate

    rows, cols, vals = [], [], []
    diag = np.zeros(S)
    for si, x in enumerate(states):
        for i in range(n):
            if x[i] > 0:
                y = list(x)
                y[i] -= 1
                rows.append(si)
                cols.append(index[tuple(y)])
                vals.append(1.0)
                diag[si] += 1.0
            if arrival_rate > 0.0 and x[i] < cap:
                y = list(x)
                y[i] += 1
                r = arrival_rate * route_prob[si, i]
                if r > 0.0:
                    rows.append(si)
                    cols.append(index[tuple(y)])
                    vals.append(r)
                    diag[si] += r
    lam = arrival_rate + n   # uniformization constant >= every exit rate
    P = sparse.csr_matrix(
        (np.asarray(vals) / lam, (rows, cols)), shape=(S, S)
    )
    P += sparse.diags(1.0 - diag / lam)

    x0_digit = np.array([x[0] for x in states])
    at_cap = np.array([max(x) == cap for x in states])
    p0 = np.zeros(S)
    p0[index[(jobs_per_queue,) * n]] = 1.0

    tails = np.empty((times.size, max_level))
    boundary = np.empty(times.size)
    for s, t in enumerate(times):
        mu = lam * t
        if mu == 0.0:
            p = p0
        else:
            k_hi = int(stats.poisson.isf(TAIL_TOL, mu)) + 2
            weights = stats.poisson.pmf(np.arange(k_hi + 1), mu)
            p = np.zeros(S)
            v = p0.copy()
            for k in range(k_hi + 1):
                if weights[k] > 0.0:
                    p += weights[k] * v
                if k < k_hi:
                    v = v @ P
            p /= p.sum()   # renormalize away the truncated Poisson tail
        boundary[s] = float(p[at_cap].sum())
        if boundary[s] > BOUNDARY_TOL:
            raise RuntimeError(
                f"cap {cap} too small: boundary mass {boundary[s]:.3e} at "
                f"t={t:g} exceeds {BOUNDARY_TOL:g}"
            )
        for level in range(1, max_level + 1):
            tails[s, level - 1] = float(p[x0_digit >= level].sum())
    return TransientTails(times=times, tails=tails, boundary_mass=boundary)
