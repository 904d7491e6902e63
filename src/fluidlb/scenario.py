"""Scenario configuration: a JSON document shared by the simulator and
the fluid solver so both are driven from identical parameters.

Sections: arrival (rate profile), service (distribution), init (starting
state), sim (Monte Carlo parameters; a seed is mandatory), pde (mesh and
horizon).  Unknown keys anywhere are rejected with their path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .arrivals import PiecewiseRate, profile_from_config
from .distributions import distribution_from_config

__all__ = ["ConfigError", "Scenario", "number", "on_mesh", "parse_scenario",
           "render_scenario", "scenario_from_dict"]


class ConfigError(ValueError):
    """A scenario document is malformed; the message carries the key path."""


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _check_keys(d, path, required, optional=()):
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def number(value, path, lo=None, hi=None, integer=False):
    """`value` if it is a number (an integer when `integer`) within
    [lo, hi]; a ConfigError at `path` otherwise."""
    ok = isinstance(value, int) if integer else (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    if isinstance(value, bool):
        ok = False
    if not ok:
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{path}: expected {kind}, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {value!r}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {value!r}")
    return value


def on_mesh(value, delta, path, least=1) -> int:
    """Number of fluid steps of size `delta` in `value`; a ConfigError at
    `path` unless that is a whole number of at least `least` steps."""
    steps = round(value / delta)
    if steps < least or abs(steps * delta - value) > 1e-9:
        raise ConfigError(f"{path}: {value!r} is not a whole number of "
                          f"steps of delta {delta!r}")
    return steps


def _segments(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of segments")
    out = []
    for i, seg in enumerate(value):
        _expect_mapping(seg, f"{path}[{i}]")
        _check_keys(seg, f"{path}[{i}]", required=("duration", "rate"))
        dur = number(seg["duration"], f"{path}[{i}].duration", lo=0)
        rate = number(seg["rate"], f"{path}[{i}].rate", lo=0)
        if dur <= 0:
            raise ConfigError(f"{path}[{i}].duration: must be positive")
        out.append({"duration": float(dur), "rate": float(rate)})
    return out


def _sample_times(value, path):
    if isinstance(value, dict):
        _check_keys(value, path, required=("start", "stop", "step"))
        start = float(number(value["start"], f"{path}.start", lo=0))
        stop = float(number(value["stop"], f"{path}.stop"))
        step = float(number(value["step"], f"{path}.step"))
        if step <= 0 or stop < start:
            raise ConfigError(f"{path}: need step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + k * step for k in range(count)]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list or a "
                          "start/stop/step object")
    times = [float(number(t, f"{path}[{i}]", lo=0))
             for i, t in enumerate(value)]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError(f"{path}: times must be strictly increasing")
    return times


@dataclass
class Scenario:
    """Validated scenario; sections are normalized plain dicts."""

    arrival: dict
    service: dict
    d: int = 2
    init: dict = field(default_factory=lambda: {"kind": "fixed",
                                                "jobs_per_queue": 1})
    sim: dict | None = None
    pde: dict | None = None
    name: str | None = None

    def arrival_profile(self):
        return profile_from_config(self.arrival)

    def service_distribution(self):
        return distribution_from_config(self.service)

    def init_schedule(self) -> PiecewiseRate | None:
        if self.init["kind"] != "backlog":
            return None
        return PiecewiseRate(self.init["schedule"], repeat=False)

    def sample_times(self) -> np.ndarray:
        self.require("sim")
        return np.asarray(self.sim["sample_times"], dtype=float)

    def require(self, section: str):
        if getattr(self, section) is None:
            raise ConfigError(f"this command needs a '{section}' section "
                              "in the scenario")
        return getattr(self, section)


def scenario_from_dict(data: dict) -> Scenario:
    _expect_mapping(data, "scenario")
    _check_keys(data, "scenario", required=("arrival", "service"),
                optional=("name", "d", "init", "sim", "pde"))

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ConfigError("name: expected a string")

    arrival = _expect_mapping(data["arrival"], "arrival")
    try:
        profile_from_config(arrival)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"arrival: {exc}") from exc
    if arrival.get("kind") == "piecewise":
        arrival = {"kind": "piecewise",
                   "segments": _segments(arrival["segments"],
                                         "arrival.segments"),
                   "repeat": bool(arrival.get("repeat", False))}
    else:
        arrival = {k: (v if k == "kind" else float(v))
                   for k, v in arrival.items()}

    service = _expect_mapping(data["service"], "service")
    try:
        distribution_from_config(service)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"service: {exc}") from exc
    service = {k: (v if k == "family" else float(v))
               for k, v in service.items()}

    d = int(number(data.get("d", 2), "d", lo=1, integer=True))

    init_raw = _expect_mapping(data.get("init", {"kind": "fixed"}), "init")
    kind = init_raw.get("kind", "fixed")
    if kind == "fixed":
        _check_keys(init_raw, "init", required=(),
                    optional=("kind", "jobs_per_queue"))
        jobs = int(number(init_raw.get("jobs_per_queue", 1),
                          "init.jobs_per_queue", lo=0, integer=True))
        init = {"kind": "fixed", "jobs_per_queue": jobs}
    elif kind == "stationary_ages":
        _check_keys(init_raw, "init", required=(), optional=("kind",))
        init = {"kind": "stationary_ages"}
    elif kind == "backlog":
        _check_keys(init_raw, "init", required=("schedule",),
                    optional=("kind",))
        init = {"kind": "backlog",
                "schedule": _segments(init_raw["schedule"], "init.schedule")}
    else:
        raise ConfigError(f"init.kind: unknown kind {kind!r}")

    sim = None
    if "sim" in data:
        raw = _expect_mapping(data["sim"], "sim")
        _check_keys(raw, "sim",
                    required=("n", "replications", "seed", "sample_times"),
                    optional=("wait_bin_width", "max_level", "horizon"))
        if not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool):
            raise ConfigError("sim.seed: Monte Carlo runs need an integer "
                              "seed for reproducibility")
        sim = {
            "n": int(number(raw["n"], "sim.n", lo=1, integer=True)),
            "replications": int(number(raw["replications"],
                                       "sim.replications", lo=2,
                                       integer=True)),
            "seed": int(number(raw["seed"], "sim.seed", lo=0,
                               hi=2 ** 64 - 1, integer=True)),
            "sample_times": _sample_times(raw["sample_times"],
                                          "sim.sample_times"),
            "wait_bin_width": float(number(raw.get("wait_bin_width", 0.1),
                                           "sim.wait_bin_width")),
            "max_level": int(number(raw.get("max_level", 4),
                                    "sim.max_level", lo=1, integer=True)),
        }
        if sim["wait_bin_width"] <= 0:
            raise ConfigError("sim.wait_bin_width: must be positive")
        if "horizon" in raw:
            h = float(number(raw["horizon"], "sim.horizon"))
            if h < sim["sample_times"][-1]:
                raise ConfigError("sim.horizon: ends before the last "
                                  "sample time")
            sim["horizon"] = h

    pde = None
    if "pde" in data:
        raw = _expect_mapping(data["pde"], "pde")
        _check_keys(raw, "pde",
                    required=("L0", "R0", "delta", "horizon"),
                    optional=("output_times", "wait_stride"))
        pde = {
            "L0": int(number(raw["L0"], "pde.L0", lo=1, integer=True)),
            "R0": float(number(raw["R0"], "pde.R0")),
            "delta": float(number(raw["delta"], "pde.delta")),
            "horizon": float(number(raw["horizon"], "pde.horizon")),
        }
        if pde["delta"] <= 0 or pde["R0"] <= 0 or pde["horizon"] <= 0:
            raise ConfigError("pde: R0, delta and horizon must be positive")
        if "output_times" in raw:
            ots = raw["output_times"]
            if not isinstance(ots, list):
                raise ConfigError("pde.output_times: expected a list")
            out = [float(number(t, f"pde.output_times[{i}]", lo=0,
                                hi=pde["horizon"]))
                   for i, t in enumerate(ots)]
            if any(b <= a for a, b in zip(out, out[1:])):
                raise ConfigError("pde.output_times: must be strictly "
                                  "increasing")
            pde["output_times"] = out
        if "wait_stride" in raw:
            pde["wait_stride"] = int(number(raw["wait_stride"],
                                            "pde.wait_stride", lo=0,
                                            integer=True))

    return Scenario(arrival=arrival, service=service, d=d, init=init,
                    sim=sim, pde=pde, name=name)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a JSON scenario document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(data)


def render_scenario(scenario: Scenario) -> str:
    """Canonical JSON for a scenario; parse(render(s)) == s."""
    doc = {}
    if scenario.name is not None:
        doc["name"] = scenario.name
    doc["arrival"] = scenario.arrival
    doc["service"] = scenario.service
    doc["d"] = scenario.d
    doc["init"] = scenario.init
    if scenario.sim is not None:
        doc["sim"] = scenario.sim
    if scenario.pde is not None:
        doc["pde"] = scenario.pde
    return json.dumps(doc, indent=2) + "\n"
