"""Scenario configuration: a JSON document shared by the simulator and
the fluid solver so both are driven from identical parameters.

Sections: arrival (rate profile), service (distribution), init (starting
state), sim (Monte Carlo parameters; a seed is mandatory), pde (mesh and
horizon).  Unknown keys anywhere are rejected with their path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .arrivals import PiecewiseRate, parse_segments, profile_from_config
from .config import (ConfigError, check_keys, expect_mapping, number,
                     parse_json)
from .distributions import distribution_from_config

__all__ = ["Scenario", "parse_scenario", "render_scenario",
           "scenario_from_dict"]


def _sample_times(value, path):
    if isinstance(value, dict):
        check_keys(value, path, required=("start", "stop", "step"))
        start = float(number(value["start"], f"{path}.start", lo=0))
        stop = float(number(value["stop"], f"{path}.stop", lo=start))
        step = float(number(value["step"], f"{path}.step", above=0))
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        # start + k * step may round past stop at the last time
        return [min(start + k * step, stop) for k in range(count)]
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

    def start(self) -> dict:
        """The init section as the keywords of the starting state that
        `initial_grid` and `initial_network` (so `ensemble`) both take:
        kind, and jobs_per_queue or a one-shot schedule where the kind
        has one."""
        start = dict(self.init)
        if "schedule" in start:
            start["schedule"] = PiecewiseRate(start["schedule"], repeat=False)
        return start

    def sample_times(self) -> np.ndarray:
        self.require("sim")
        return np.asarray(self.sim["sample_times"], dtype=float)

    def require(self, section: str):
        if getattr(self, section) is None:
            raise ConfigError(f"{section}: missing, and this command "
                              "needs the section")
        return getattr(self, section)


def scenario_from_dict(data: dict) -> Scenario:
    expect_mapping(data, "scenario")
    check_keys(data, "scenario", required=(),
               optional=("arrival", "service", "name", "d", "init", "sim",
                         "pde"))
    # the two required sections sit at the top level, whose path is empty
    for section in ("arrival", "service"):
        if section not in data:
            raise ConfigError(f"{section}: missing")

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ConfigError("name: expected a string")

    arrival = profile_from_config(data["arrival"]).config()
    service = distribution_from_config(data["service"]).config()

    d = int(number(data.get("d", 2), "d", lo=1, integer=True))

    init_raw = expect_mapping(data.get("init", {"kind": "fixed"}), "init")
    kind = init_raw.get("kind", "fixed")
    if kind == "fixed":
        check_keys(init_raw, "init", required=(),
                   optional=("kind", "jobs_per_queue"))
        jobs = int(number(init_raw.get("jobs_per_queue", 1),
                          "init.jobs_per_queue", lo=0, integer=True))
        init = {"kind": "fixed", "jobs_per_queue": jobs}
    elif kind == "stationary_ages":
        check_keys(init_raw, "init", required=(), optional=("kind",))
        init = {"kind": "stationary_ages"}
    elif kind == "backlog":
        check_keys(init_raw, "init", required=("schedule",),
                   optional=("kind",))
        schedule = parse_segments(init_raw["schedule"], "init.schedule")
        init = {"kind": "backlog", "schedule": [asdict(s) for s in schedule]}
    else:
        raise ConfigError(f"init.kind: unknown kind {kind!r}")

    sim = None
    if "sim" in data:
        raw = expect_mapping(data["sim"], "sim")
        check_keys(raw, "sim",
                   required=("n", "replications", "seed", "sample_times"),
                   optional=("wait_bin_width", "max_level", "horizon"))
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
                                           "sim.wait_bin_width", above=0)),
            "max_level": int(number(raw.get("max_level", 4),
                                    "sim.max_level", lo=1, integer=True)),
        }
        if "horizon" in raw:
            h = float(number(raw["horizon"], "sim.horizon"))
            if h < sim["sample_times"][-1]:
                raise ConfigError("sim.horizon: ends before the last "
                                  "sample time")
            sim["horizon"] = h

    pde = None
    if "pde" in data:
        raw = expect_mapping(data["pde"], "pde")
        check_keys(raw, "pde",
                   required=("L0", "R0", "delta", "horizon"),
                   optional=("output_times", "wait_stride"))
        pde = {
            "L0": int(number(raw["L0"], "pde.L0", lo=1, integer=True)),
            "R0": float(number(raw["R0"], "pde.R0", above=0)),
            "delta": float(number(raw["delta"], "pde.delta", above=0)),
            "horizon": float(number(raw["horizon"], "pde.horizon", above=0)),
        }
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
    return scenario_from_dict(parse_json(text))


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
