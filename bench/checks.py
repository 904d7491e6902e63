"""Output checks for the benchmark workloads.

Each check reads the CSV files one CLI run wrote and compares them with a
reference computed apart from the code that wrote them, or with a property
the method must have.  No check compares with a stored copy of earlier
output.  A check returns `(summary, failures)`: one line of figures, and a
list of messages that is empty when the output is correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Slices are probabilities and non-increasing in level and in r; the solver
# clamps [0, 1] and level order but not order in r.  The slack admits
# round-off of a reordered computation.
ORDER_SLACK = 1e-12
# The discrete work balance closes to O(delta): about 1.03 delta on the
# pde_slices scenario.
BALANCE_DELTAS = 2.0
# Monte Carlo against the fluid limit: max(floor, SE_MULT standard errors).
MC_FLOOR = 0.03
SE_MULT = 4.0
# Replication arrival counts are Poisson(n lambda T): allowed 4 sd.
ARRIVAL_SDS = 4.0
# Bisection width the effective-rate verb is run with.
EFFECTIVE_RATE_TOL = 1e-3
# Fluid reference mesh for the Monte Carlo check.
MC_REF_LEVELS, MC_REF_R0, MC_REF_DELTA = 8, 20.0, 5e-3


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def pde_slices(out: Path, doc: dict, traces: list) -> tuple[str, list]:
    """Slices in [0, 1], non-increasing in level and r, and the fluid work
    balance U(b) - U(a) = integral_a^b (lambda - S_1) dt, where
    U(t) = delta * sum_r Z_1(t, r) + sum_{l >= 2} Z_l(t, 0)."""
    pde = doc["pde"]
    delta, levels, times = pde["delta"], pde["L0"], pde["output_times"]
    cols = round(pde["R0"] / delta) + 1
    steps = round(pde["horizon"] / delta)
    rate = doc["arrival"]["rate"]
    failures = []

    slices = _table(out / "pde_slices.csv")
    tails = _table(out / "pde_tails.csv")
    if slices.shape != (len(times) * levels * cols, 4):
        return "", [f"pde_slices.csv has shape {slices.shape}"]
    if tails.shape != ((steps + 1) * levels, 3):
        return "", [f"pde_tails.csv has shape {tails.shape}"]
    z = slices[:, 3].reshape(len(times), levels, cols)
    s = tails[:, 2].reshape(steps + 1, levels)
    t = tails[::levels, 0]

    low, high = float(z.min()), float(z.max())
    if low < -ORDER_SLACK or high > 1.0 + ORDER_SLACK:
        failures.append(f"slice values span [{low!r}, {high!r}]")
    rise_l = float(np.diff(z, axis=1).max())
    rise_r = float(np.diff(z, axis=2).max())
    if rise_l > ORDER_SLACK:
        failures.append(f"slices increase in level by {rise_l!r}")
    if rise_r > ORDER_SLACK:
        failures.append(f"slices increase in r by {rise_r!r}")
    for k, ts in enumerate(times):
        m = round(ts / delta)
        if not np.array_equal(z[k, :, 0], s[m]):
            failures.append(f"slice r=0 column at t={ts} differs from "
                            "pde_tails.csv")

    def work(k):
        return delta * z[k, 0].sum() + z[k, 1:, 0].sum()

    window = (t >= times[0] - 1e-9) & (t <= times[-1] + 1e-9)
    inflow = np.trapezoid(rate - s[window, 0], t[window])
    gap = abs(work(-1) - work(0) - inflow)
    bound = BALANCE_DELTAS * delta
    if gap > bound:
        failures.append(f"work balance over [{times[0]}, {times[-1]}] misses "
                        f"by {gap:.3e} > {bound:.1e}")
    summary = (f"slices in [{low:.3g}, {high:.3g}], rise in level "
               f"{rise_l:.3g}, in r {rise_r:.3g}; work balance gap "
               f"{gap:.3e} (bound {bound:.1e})")
    return summary, failures


def _fluid_reference(doc: dict, horizon: float):
    from fluidlb import (ConstantRate, FluidSolver, distribution_from_config,
                         initial_grid)

    dist = distribution_from_config(doc["service"])
    solver = FluidSolver(dist, ConstantRate(doc["arrival"]["rate"]),
                         MC_REF_LEVELS, MC_REF_R0, MC_REF_DELTA, d=doc["d"])
    grid = initial_grid(dist, MC_REF_LEVELS, MC_REF_R0, MC_REF_DELTA,
                        kind=doc["init"]["kind"])
    return solver.solve(grid, horizon, wait_stride=1)


def mc_stationary(out: Path, doc: dict, traces: list) -> tuple[str, list]:
    """Tails of levels 1-3 and the virtual wait within max(0.03, 4 SE) of a
    fluid solve of the same scenario; with a trace, every replication's
    arrival count within 4 sd of n lambda T."""
    sim = doc["sim"]
    sample_times = np.arange(sim["sample_times"]["start"],
                             sim["sample_times"]["stop"] + 1e-9,
                             sim["sample_times"]["step"])
    horizon = float(sample_times[-1])
    traj = _fluid_reference(doc, horizon)
    wanted = [f"tail_ge_{level}" for level in range(1, sim["max_level"] + 1)]
    wanted.append("virtual_wait")
    failures, seen, worst = [], set(), {}
    for row in _rows(out / "metrics.csv"):
        name, t = row["metric"], float(row["t"])
        if name not in wanted:
            continue
        seen.add((name, round(t, 9)))
        if name == "virtual_wait":
            ref = float(traj.wait_values[round(t / MC_REF_DELTA)])
        else:
            ref = traj.tail_at(t, int(row["ell"]))
        dev = abs(float(row["mean"]) - ref)
        allowed = max(MC_FLOOR, SE_MULT * float(row["stderr"]))
        worst[name] = max(worst.get(name, 0.0), dev / allowed)
        if dev > allowed:
            failures.append(f"{name} at t={t:g}: {float(row['mean']):.4f} "
                            f"vs fluid {ref:.4f} (allowed {allowed:.4f})")
        if int(row["replications"]) != sim["replications"]:
            failures.append(f"{name} at t={t:g}: {row['replications']} "
                            "replications")
    missing = len(wanted) * sample_times.size - len(seen)
    if missing:
        failures.append(f"{missing} of the expected metric rows are missing")

    expected = sim["n"] * doc["arrival"]["rate"] * horizon
    slack = ARRIVAL_SDS * math.sqrt(expected)
    for counts in traces:
        if len(counts) != sim["replications"]:
            failures.append(f"trace holds {len(counts)} replications")
        for rep, count in enumerate(counts):
            if abs(count - expected) > slack:
                failures.append(f"replication {rep}: {count} arrivals, "
                                f"expected {expected:.0f} +- {slack:.0f}")
    summary = ("worst deviation / allowed: " + ", ".join(
        f"{k} {v:.2f}" for k, v in worst.items())
        + (f"; arrivals checked in {len(traces)} traced run(s)"
           if traces else ""))
    return summary, failures


def exponential_effective_rate(mean_rate: float, amplitude: float,
                               period: float, levels: int = 24,
                               h: float = 0.01) -> float:
    """Effective rate for exponential service, computed without fluidlb.

    The tails obey dS_l/dt = lambda(t) (S_{l-1}^2 - S_l^2) - (S_l - S_{l+1}),
    S_0 = 1, and the mean virtual wait is sum_l S_l^2.  RK4 marches the
    square wave (high half first) from empty until the period average of the
    wait settles; the constant rate whose plateau sum_l rate^(2 (2^l - 1))
    equals that average is then found by bisection.
    """
    half = round(period / 2.0 / h)
    if half % 2 or abs(half * h - period / 2.0) > 1e-12:
        raise ValueError("h must split each half period into an even count")

    def rhs(lam, s):
        below = np.concatenate(([1.0], s[:-1]))
        above = np.concatenate((s[1:], [0.0]))
        return lam * (below * below - s * s) - (s - above)

    def march(lam, s):
        """One half period; returns the end state and Simpson's integral
        of the wait over it."""
        w = np.empty(half + 1)
        w[0] = s @ s
        for k in range(half):
            k1 = rhs(lam, s)
            k2 = rhs(lam, s + 0.5 * h * k1)
            k3 = rhs(lam, s + 0.5 * h * k2)
            k4 = rhs(lam, s + h * k3)
            s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            w[k + 1] = s @ s
        simpson = (h / 3.0) * (w[0] + w[-1] + 4.0 * w[1:-1:2].sum()
                               + 2.0 * w[2:-1:2].sum())
        return s, simpson

    s = np.zeros(levels)
    previous = math.inf
    for _ in range(1000):
        s, high = march(mean_rate + amplitude, s)
        s, low = march(mean_rate - amplitude, s)
        average = (high + low) / period
        if abs(average - previous) < 1e-13:
            break
        previous = average
    else:
        raise RuntimeError("period average did not settle")

    def plateau(rate):
        total, level = 0.0, 1
        while True:
            term = rate ** (2.0 * (2.0 ** level - 1.0))
            total += term
            if term < 1e-18:
                return total
            level += 1

    lo, hi = mean_rate, 1.0 - 1e-12
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if plateau(mid) > average:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def effective_rate(out: Path, doc: dict, traces: list) -> tuple[str, list]:
    """lambda_eff within the bisection tolerance of the RK4/closed-form
    reference above (exponential service only)."""
    if doc["service"]["family"] != "exponential":
        return "", ["the effective-rate reference needs exponential service"]
    rows = _rows(out / "effective_rate.csv")
    if len(rows) != 1:
        return "", [f"effective_rate.csv has {len(rows)} rows"]
    arrival = doc["arrival"]
    got = float(rows[0]["lambda_eff"])
    ref = exponential_effective_rate(arrival["mean_rate"], arrival["delta"],
                                     arrival["period"])
    failures = []
    if abs(got - ref) > EFFECTIVE_RATE_TOL:
        failures.append(f"lambda_eff {got!r} vs reference {ref!r} "
                        f"(tolerance {EFFECTIVE_RATE_TOL:g})")
    return f"lambda_eff {got:.6f}, reference {ref:.6f}", failures
