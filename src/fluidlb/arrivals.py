"""Arrival-rate profiles and exact sampling of the arrival process.

Profiles are deterministic intensity functions lambda(t) (per server,
right-continuous).  The network-level arrival process is Poisson with
intensity N * lambda(t); sampling is exact for piecewise-constant rates
(per-segment exponential clock carry-over, no thinning).  The caller
supplies the unit exponential each arrival consumes, so this module draws
no random numbers itself.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

__all__ = [
    "ArrivalProfile",
    "ConstantRate",
    "PiecewiseRate",
    "PeriodicRate",
    "Segment",
    "profile_from_config",
]


@dataclass(frozen=True)
class Segment:
    duration: float
    rate: float

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError("segment duration must be finite and positive")
        if not 0.0 <= self.rate < math.inf:
            raise ValueError("segment rate must be finite and nonnegative")


class ArrivalProfile(abc.ABC):
    """Deterministic per-server arrival intensity."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Intensity at time t (right-continuous at jumps)."""

    @abc.abstractmethod
    def cumulative(self, t: float) -> float:
        """Exact integral of the intensity over [0, t]."""

    @abc.abstractmethod
    def next_arrival(self, t: float, e: float, scale: float = 1.0) -> float:
        """First point after t of a Poisson process with rate scale*lambda(u),
        given a unit exponential e: the time at which the integrated rate
        from t reaches e.

        Returns math.inf if no further arrival can occur.
        """

    @abc.abstractmethod
    def config(self) -> dict:
        """Config-file representation."""

    def integrated_rate(self, t1: float, t2: float) -> float:
        """Exact integral of the intensity over [t1, t2]."""
        if t2 < t1:
            raise ValueError("integration interval is reversed")
        return self.cumulative(t2) - self.cumulative(t1)


class ConstantRate(ArrivalProfile):
    def __init__(self, rate: float):
        if not 0.0 <= rate < math.inf:
            raise ValueError("rate must be finite and nonnegative")
        self._rate = float(rate)

    def rate(self, t):
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        return self._rate

    def cumulative(self, t):
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        return self._rate * t

    def next_arrival(self, t, e, scale=1.0):
        total = self._rate * scale
        if total <= 0.0:
            return math.inf
        return t + e / total

    def config(self):
        return {"kind": "constant", "rate": self._rate}

    def __repr__(self):
        return f"ConstantRate({self._rate!r})"


class PiecewiseRate(ArrivalProfile):
    """Piecewise-constant schedule; optionally repeats forever.

    A one-shot schedule has rate 0 after the last segment ends.
    """

    def __init__(self, segments, repeat: bool = False):
        segs = []
        for s in segments:
            if isinstance(s, Segment):
                segs.append(s)
            elif isinstance(s, dict):
                segs.append(Segment(**s))
            else:
                segs.append(Segment(*s))
        if not segs:
            raise ValueError("need at least one segment")
        self.segments = tuple(segs)
        self.repeat = bool(repeat)
        edges = [0.0]
        cum = [0.0]
        for s in self.segments:
            edges.append(edges[-1] + s.duration)
            cum.append(cum[-1] + s.duration * s.rate)
        self._edges = edges            # segment start times, length k+1
        self._cum = cum                # cumulative integral at edges
        self.cycle_length = edges[-1]
        self.cycle_integral = cum[-1]

    def _locate(self, t):
        # (segment index or None-for-past-end, time within cycle, completed cycles)
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        if self.repeat:
            cycles = math.floor(t / self.cycle_length)
            local = t - cycles * self.cycle_length
            if local >= self.cycle_length:   # guard roundoff at exact multiples
                cycles += 1
                local = 0.0
        else:
            cycles = 0
            local = t
            if local >= self.cycle_length:
                return None, local, 0
        idx = 0
        while local >= self._edges[idx + 1]:
            idx += 1
        return idx, local, cycles

    def rate(self, t):
        idx, _, _ = self._locate(t)
        if idx is None:
            return 0.0
        return self.segments[idx].rate

    def cumulative(self, t):
        idx, local, cycles = self._locate(t)
        base = cycles * self.cycle_integral
        if idx is None:
            return base + self.cycle_integral
        return base + self._cum[idx] + (local - self._edges[idx]) * self.segments[idx].rate

    def next_arrival(self, t, e, scale=1.0):
        if scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.cycle_integral <= 0.0:
            return math.inf
        target = e
        idx, local, cycles = self._locate(t)
        if idx is None:
            return math.inf
        cur = t
        while True:
            seg = self.segments[idx]
            seg_end = (cycles * self.cycle_length) + self._edges[idx + 1]
            r = seg.rate * scale
            if r > 0.0:
                dt = target / r
                if cur + dt <= seg_end:
                    return cur + dt
                target -= r * (seg_end - cur)
            cur = seg_end
            idx += 1
            if idx == len(self.segments):
                if not self.repeat:
                    return math.inf
                idx = 0
                cycles += 1

    def config(self):
        return {
            "kind": "piecewise",
            "segments": [
                {"duration": s.duration, "rate": s.rate} for s in self.segments
            ],
            "repeat": self.repeat,
        }

    def __repr__(self):
        return f"PiecewiseRate({list(self.segments)!r}, repeat={self.repeat})"


class PeriodicRate(ArrivalProfile):
    """Square wave: mean_rate + delta for the first half period, then
    mean_rate - delta for the second half, repeating."""

    def __init__(self, mean_rate: float, delta: float, period: float):
        if not 0.0 <= mean_rate < math.inf:
            raise ValueError("mean_rate must be finite and nonnegative")
        if not 0.0 <= delta <= mean_rate:
            raise ValueError("delta must lie in [0, mean_rate]")
        if not 0.0 < period < math.inf:
            raise ValueError("period must be finite and positive")
        self.mean_rate = float(mean_rate)
        self.delta = float(delta)
        self.period = float(period)
        half = self.period / 2.0
        self._wave = PiecewiseRate(
            [
                Segment(half, self.mean_rate + self.delta),
                Segment(half, self.mean_rate - self.delta),
            ],
            repeat=True,
        )

    def rate(self, t):
        return self._wave.rate(t)

    def cumulative(self, t):
        return self._wave.cumulative(t)

    def next_arrival(self, t, e, scale=1.0):
        return self._wave.next_arrival(t, e, scale)

    def config(self):
        return {
            "kind": "periodic",
            "mean_rate": self.mean_rate,
            "delta": self.delta,
            "period": self.period,
        }

    def __repr__(self):
        return (
            f"PeriodicRate(mean_rate={self.mean_rate!r}, "
            f"delta={self.delta!r}, period={self.period!r})"
        )


def profile_from_config(cfg: dict) -> ArrivalProfile:
    """Build a profile from {'kind': ..., <fields>}."""
    if "kind" not in cfg:
        raise ValueError("arrival config needs a 'kind' field")
    kind = cfg["kind"]
    fields = {
        "constant": {"rate"},
        "piecewise": {"segments", "repeat"},
        "periodic": {"mean_rate", "delta", "period"},
    }
    if kind not in fields:
        raise ValueError(
            f"unknown arrival kind {kind!r}; expected one of {sorted(fields)}"
        )
    extra = set(cfg) - {"kind"} - fields[kind]
    if extra:
        raise ValueError(f"arrival kind {kind!r}: unknown fields {sorted(extra)}")
    if kind == "constant":
        return ConstantRate(cfg["rate"])
    if kind == "piecewise":
        for seg in cfg["segments"]:
            extra = set(seg) - {"duration", "rate"}
            if extra:
                raise ValueError(f"arrival segment: unknown fields {sorted(extra)}")
        return PiecewiseRate(cfg["segments"], repeat=cfg.get("repeat", False))
    return PeriodicRate(cfg["mean_rate"], cfg["delta"], cfg["period"])
