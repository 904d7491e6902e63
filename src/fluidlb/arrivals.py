"""Arrival-rate profiles and exact sampling of the arrival process.

Profiles are deterministic intensity functions lambda(t) (per server,
right-continuous).  The network-level arrival process is Poisson with
intensity N * lambda(t); sampling is exact for piecewise-constant rates
(per-segment exponential clock carry-over, no thinning).  The caller
supplies the unit exponential each arrival consumes, so this module draws
no random numbers itself.

Each kind declares itself once.  Its class attribute `kind` names it in a
config document, and `fields` names its config keys, each also the
attribute that holds its value (`ConstantRate` keeps its rate in `_rate`,
since `rate` is the intensity).  `config()`, `__repr__` and
`profile_from_config` all read them; every field is required except
`repeat`, which defaults to false.  Each constructor checks its values
with `config.number`, and `parse_segments` reads every schedule: a
piecewise profile's `segments` and a scenario's `init.schedule`.  Every
ValueError a constructor raises starts with the name of the bad field, and
`profile_from_config` puts the path of the arrival section in front.
"""

from __future__ import annotations

import abc
import dataclasses
import math

from .config import (ConfigError, check_keys, expect_mapping, from_config,
                     number)

__all__ = [
    "ArrivalProfile",
    "ConstantRate",
    "PiecewiseRate",
    "PeriodicRate",
    "Segment",
    "parse_segments",
    "profile_from_config",
]


@dataclasses.dataclass(frozen=True)
class Segment:
    """`duration` > 0 time units at a constant `rate` >= 0."""

    duration: float
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "duration",
                           float(number(self.duration, "duration", above=0)))
        object.__setattr__(self, "rate",
                           float(number(self.rate, "rate", lo=0)))


def parse_segments(entries, path) -> tuple[Segment, ...]:
    """A non-empty list of {duration, rate} objects as Segments; a
    ConfigError at `path`, or at `path[i]` for a bad entry.  A schedule
    built in code may also list Segments and (duration, rate) tuples."""
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ConfigError(f"{path}: expected a non-empty list of segments, "
                          f"got {entries!r}")
    return tuple(_segment(entry, f"{path}[{i}]")
                 for i, entry in enumerate(entries))


def _segment(entry, path):
    if isinstance(entry, Segment):
        return entry
    if not isinstance(entry, tuple):
        check_keys(expect_mapping(entry, path), path, ("duration", "rate"))
        entry = (entry["duration"], entry["rate"])
    try:
        return Segment(*entry)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


class ArrivalProfile(abc.ABC):
    """Deterministic per-server arrival intensity."""

    kind = "abstract"
    fields: tuple[str, ...] = ()

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

    def config(self) -> dict:
        """Config-file representation ({'kind': ..., fields}), each
        Segment as a {duration, rate} object."""
        doc = {"kind": self.kind}
        for name in self.fields:
            value = self._field(name)
            doc[name] = ([dataclasses.asdict(s) for s in value]
                         if isinstance(value, tuple) else value)
        return doc

    def _field(self, name):
        """The value of config field `name`."""
        return getattr(self, name)

    def __repr__(self):
        args = ", ".join(f"{name}={self._field(name)!r}"
                         for name in self.fields)
        return f"{type(self).__name__}({args})"

    def integrated_rate(self, t1: float, t2: float) -> float:
        """Exact integral of the intensity over [t1, t2]."""
        if t2 < t1:
            raise ValueError("integration interval is reversed")
        return self.cumulative(t2) - self.cumulative(t1)


class ConstantRate(ArrivalProfile):
    kind = "constant"
    fields = ("rate",)

    def __init__(self, rate: float):
        self._rate = float(number(rate, "rate", lo=0))

    def _field(self, name):
        return self._rate     # the attribute `rate` is the intensity

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


class PiecewiseRate(ArrivalProfile):
    """Piecewise-constant schedule; optionally repeats forever.

    A one-shot schedule has rate 0 after the last segment ends.
    """

    kind = "piecewise"
    fields = ("segments", "repeat")

    def __init__(self, segments, repeat: bool = False):
        if not isinstance(repeat, bool):
            raise ValueError(f"repeat: expected true or false, got {repeat!r}")
        self.segments = parse_segments(segments, "segments")
        self.repeat = repeat
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

class PeriodicRate(PiecewiseRate):
    """Square wave: mean_rate + delta for the first half period, then
    mean_rate - delta for the second half, repeating."""

    kind = "periodic"
    fields = ("mean_rate", "delta", "period")

    def __init__(self, mean_rate: float, delta: float, period: float):
        self.mean_rate = float(number(mean_rate, "mean_rate", lo=0))
        self.delta = float(number(delta, "delta", lo=0, hi=self.mean_rate))
        self.period = float(number(period, "period", above=0))
        half = self.period / 2.0
        if half == 0.0:
            raise ValueError(f"period: period / 2 must be positive, got "
                             f"{self.period!r}")
        if not math.isfinite(self.mean_rate + self.delta):
            raise ValueError(f"delta: mean_rate + delta must be finite, got "
                             f"{self.mean_rate!r} + {self.delta!r}")
        super().__init__([Segment(half, self.mean_rate + self.delta),
                          Segment(half, self.mean_rate - self.delta)],
                         repeat=True)


_KINDS = {cls.kind: cls for cls in (ConstantRate, PiecewiseRate, PeriodicRate)}


def profile_from_config(cfg: dict, path: str = "arrival") -> ArrivalProfile:
    """Build a profile from {'kind': ..., <fields>}; a ConfigError whose
    message starts with the key path of the bad value, below `path`."""
    return from_config(cfg, path, "kind", _KINDS, optional=("repeat",))
