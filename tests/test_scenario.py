"""Tests for scenario document parsing, validation and rendering."""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fluidlb import (ConfigError, PiecewiseRate, initial_grid,
                     initial_network, parse_scenario, render_scenario,
                     scenario_from_dict, studies)
from fluidlb.validation import fluid_parts

BASELINE = {
    "name": "smoke",
    "arrival": {"kind": "constant", "rate": 0.5},
    "service": {"family": "exponential"},
    "d": 2,
    "init": {"kind": "fixed", "jobs_per_queue": 1},
    "sim": {"n": 50, "replications": 4, "seed": 7,
            "sample_times": [1.0, 2.0]},
    "pde": {"L0": 6, "R0": 10.0, "delta": 0.005, "horizon": 2.0},
}


def doc(**overrides):
    d = copy.deepcopy(BASELINE)
    d.update(overrides)
    return d


def test_baseline_parses_and_normalizes():
    s = scenario_from_dict(doc())
    assert s.name == "smoke"
    assert s.d == 2
    assert s.arrival == {"kind": "constant", "rate": 0.5}
    assert s.service == {"family": "exponential"}
    assert s.sim["n"] == 50
    assert s.sim["replications"] == 4
    assert s.sim["seed"] == 7
    assert s.sim["sample_times"] == [1.0, 2.0]
    # defaults filled in
    assert s.sim["wait_bin_width"] == 0.1
    assert s.sim["max_level"] == 4
    assert s.pde == {"L0": 6, "R0": 10.0, "delta": 0.005, "horizon": 2.0}


def test_sections_are_optional():
    s = scenario_from_dict({"arrival": {"kind": "constant", "rate": 0.3},
                            "service": {"family": "exponential"}})
    assert s.sim is None and s.pde is None and s.name is None
    assert s.init == {"kind": "fixed", "jobs_per_queue": 1}
    with pytest.raises(ConfigError, match=r"^sim: missing, and this "
                                          r"command needs the section$"):
        s.require("sim")
    with pytest.raises(ConfigError, match=r"^pde: missing, and this "
                                          r"command needs the section$"):
        s.require("pde")


@pytest.mark.parametrize("section", ["arrival", "service"])
def test_missing_top_level_section_is_refused_at_its_key(section):
    data = {"arrival": {"kind": "constant", "rate": 0.3},
            "service": {"family": "exponential"}}
    del data[section]
    with pytest.raises(ConfigError, match=rf"^{section}: missing$"):
        scenario_from_dict(data)


def test_round_trip_is_identity():
    s = scenario_from_dict(doc())
    assert parse_scenario(render_scenario(s)) == s
    # and rendering is stable under a second pass
    assert render_scenario(parse_scenario(render_scenario(s))) == \
        render_scenario(s)


def test_round_trip_covers_every_section_variant():
    variants = [
        doc(arrival={"kind": "periodic", "mean_rate": 0.7,
                     "delta": 0.3, "period": 2.0},
            service={"family": "pareto", "beta": 2.25},
            init={"kind": "stationary_ages"}),
        doc(arrival={"kind": "piecewise",
                     "segments": [{"duration": 5, "rate": 1},
                                  {"duration": 2.0, "rate": 0.25}],
                     "repeat": True},
            service={"family": "gamma", "shape": 2},
            init={"kind": "backlog",
                  "schedule": [{"duration": 4.0, "rate": 2.0}]}),
        doc(pde={"L0": 8, "R0": 12.0, "delta": 0.01, "horizon": 5.0,
                 "output_times": [1.0, 5.0], "wait_stride": 10},
            d=3),
    ]
    for raw in variants:
        s = scenario_from_dict(raw)
        assert parse_scenario(render_scenario(s)) == s


def test_piecewise_segments_normalized_to_floats():
    s = scenario_from_dict(doc(arrival={
        "kind": "piecewise",
        "segments": [{"duration": 5, "rate": 1}]}))
    seg = s.arrival["segments"][0]
    assert seg == {"duration": 5.0, "rate": 1.0}
    assert isinstance(seg["duration"], float)
    assert s.arrival["repeat"] is False


def test_sample_times_range_form():
    s = scenario_from_dict(doc(sim={
        "n": 10, "replications": 2, "seed": 1,
        "sample_times": {"start": 0.5, "stop": 2.0, "step": 0.5}}))
    assert s.sim["sample_times"] == [0.5, 1.0, 1.5, 2.0]
    # the normalized form renders as a plain list and round-trips
    assert parse_scenario(render_scenario(s)) == s
    times = s.sample_times()
    assert isinstance(times, np.ndarray)
    assert times.dtype == np.float64


def test_sample_time_range_never_passes_stop():
    # start + k * step can round past stop: 0.1 + 2 * 0.1 is
    # 0.30000000000000004, which a sim.horizon of 0.3 used to refuse
    sim = {"n": 10, "replications": 2, "seed": 1,
           "sample_times": {"start": 0.1, "stop": 0.3, "step": 0.1},
           "horizon": 0.3}
    assert scenario_from_dict(doc(sim=sim)).sim["sample_times"] == \
        [0.1, 0.2, 0.3]
    for stop in (k / 10 for k in range(1, 100)):
        for step in (0.1, 0.2, 0.3, 0.7):
            sim["sample_times"] = {"start": 0.1, "stop": stop, "step": step}
            sim["horizon"] = stop
            times = scenario_from_dict(doc(sim=sim)).sim["sample_times"]
            assert times[-1] <= stop
            assert all(b > a for a, b in zip(times, times[1:]))


def test_helper_constructors():
    s = scenario_from_dict(doc())
    assert s.arrival_profile().rate(0.3) == 0.5
    assert s.service_distribution().config() == {"family": "exponential"}
    assert s.start() == {"kind": "fixed", "jobs_per_queue": 1}
    backlog = scenario_from_dict(doc(init={
        "kind": "backlog", "schedule": [{"duration": 2.0, "rate": 3.0}]}))
    start = backlog.start()
    assert set(start) == {"kind", "schedule"}
    sched = start["schedule"]
    assert isinstance(sched, PiecewiseRate) and not sched.repeat
    assert sched.rate(1.0) == 3.0
    # the scenario's own init section is left as parsed
    assert backlog.init["schedule"] == [{"duration": 2.0, "rate": 3.0}]


START_KINDS = {
    "fixed": {"kind": "fixed", "jobs_per_queue": 2},
    "stationary_ages": {"kind": "stationary_ages"},
    "backlog": {"kind": "backlog",
                "schedule": [{"duration": 0.5, "rate": 0.5},
                             {"duration": 0.5, "rate": 2.0}]},
}


@pytest.mark.parametrize("kind", sorted(START_KINDS))
def test_every_start_kind_builds_both_engines(kind):
    # the parser, initial_grid and initial_network take the same kinds,
    # and both engines build from the same Scenario.start() keywords
    s = scenario_from_dict(doc(init=START_KINDS[kind], d=3))
    assert s.start()["kind"] == kind
    dist, pde = s.service_distribution(), s.pde
    grid = initial_grid(dist, pde["L0"], pde["R0"], pde["delta"], d=s.d,
                        **s.start())
    assert grid.t == 0.0 and grid.tails[0] > 0.0
    net = initial_network(s.sim["n"], dist, d=s.d,
                          rng=np.random.default_rng(5), **s.start())
    assert net.clock == 0.0 and net.initial_jobs > 0
    _, fluid_grid = fluid_parts(s)
    assert np.array_equal(fluid_grid.values, grid.values)


def test_unknown_start_kind_is_refused_by_parser_and_both_engines():
    with pytest.raises(ConfigError, match=r"^init\.kind: unknown kind"):
        scenario_from_dict(doc(init={"kind": "warm"}))
    s = scenario_from_dict(doc())
    with pytest.raises(ValueError, match="unknown initial grid kind"):
        initial_grid(s.service_distribution(), 6, 10.0, 0.005, kind="warm")
    with pytest.raises(ValueError, match="unknown starting state kind"):
        initial_network(5, s.service_distribution(), kind="warm",
                        rng=np.random.default_rng(5))


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match=r"scenario: unknown keys \['extra'\]"):
        scenario_from_dict(doc(extra=1))
    with pytest.raises(ConfigError, match=r"sim: unknown keys \['burnin'\]"):
        scenario_from_dict(doc(sim={"n": 10, "replications": 2, "seed": 1,
                                    "sample_times": [1.0], "burnin": 5}))
    with pytest.raises(ConfigError, match=r"pde: unknown keys \['cfl'\]"):
        scenario_from_dict(doc(pde={"L0": 4, "R0": 8.0, "delta": 0.01,
                                    "horizon": 1.0, "cfl": 0.5}))
    with pytest.raises(ConfigError, match="init"):
        scenario_from_dict(doc(init={"kind": "stationary_ages", "age": 2}))


def test_seed_is_mandatory_and_integer():
    base = {"n": 10, "replications": 2, "sample_times": [1.0]}
    with pytest.raises(ConfigError, match=r"^sim\.seed: missing"):
        scenario_from_dict(doc(sim=dict(base)))
    with pytest.raises(ConfigError, match="sim.seed"):
        scenario_from_dict(doc(sim=dict(base, seed="7")))
    with pytest.raises(ConfigError, match="sim.seed"):
        scenario_from_dict(doc(sim=dict(base, seed=True)))
    with pytest.raises(ConfigError, match="sim.seed"):
        scenario_from_dict(doc(sim=dict(base, seed=-1)))
    with pytest.raises(ConfigError, match="sim.seed"):
        scenario_from_dict(doc(sim=dict(base, seed=2 ** 64)))
    s = scenario_from_dict(doc(sim=dict(base, seed=2 ** 64 - 1)))
    assert s.sim["seed"] == 2 ** 64 - 1


def test_sim_field_validation():
    base = {"n": 10, "replications": 2, "seed": 1, "sample_times": [1.0]}
    with pytest.raises(ConfigError, match="sim.replications"):
        scenario_from_dict(doc(sim=dict(base, replications=1)))
    with pytest.raises(ConfigError, match="sim.n"):
        scenario_from_dict(doc(sim=dict(base, n=0)))
    with pytest.raises(ConfigError, match="strictly increasing"):
        scenario_from_dict(doc(sim=dict(base, sample_times=[2.0, 1.0])))
    with pytest.raises(ConfigError, match="non-empty"):
        scenario_from_dict(doc(sim=dict(base, sample_times=[])))
    with pytest.raises(ConfigError, match="sim.wait_bin_width"):
        scenario_from_dict(doc(sim=dict(base, wait_bin_width=0.0)))
    with pytest.raises(ConfigError, match="ends before the last"):
        scenario_from_dict(doc(sim=dict(base, sample_times=[1.0, 4.0],
                                        horizon=3.0)))
    s = scenario_from_dict(doc(sim=dict(base, horizon=2.0)))
    assert s.sim["horizon"] == 2.0


def test_pde_field_validation():
    base = {"L0": 4, "R0": 8.0, "delta": 0.01, "horizon": 1.0}
    with pytest.raises(ConfigError, match=r"^pde\.delta: must be > 0"):
        scenario_from_dict(doc(pde=dict(base, delta=0.0)))
    with pytest.raises(ConfigError, match="pde.L0"):
        scenario_from_dict(doc(pde=dict(base, L0=0)))
    with pytest.raises(ConfigError, match=r"^pde\.horizon: missing"):
        scenario_from_dict(doc(pde={"L0": 4, "R0": 8.0, "delta": 0.01}))
    with pytest.raises(ConfigError, match="output_times"):
        scenario_from_dict(doc(pde=dict(base, output_times=[0.5, 2.0])))
    with pytest.raises(ConfigError, match="output_times"):
        scenario_from_dict(doc(pde=dict(base, output_times=[0.8, 0.5])))
    # d is set once, at the top level
    with pytest.raises(ConfigError, match=r"pde: unknown keys \['general_d'\]"):
        scenario_from_dict(doc(pde=dict(base, general_d=2)))


def test_fluid_mesh_is_checked_where_the_fluid_runs():
    # a pde section off its own step grid parses (simulate never reads
    # it); fluid_parts, which solve-pde and validate build from, refuses it
    base = {"L0": 4, "R0": 8.0, "delta": 0.01, "horizon": 1.0}
    backlog = {"kind": "backlog",
               "schedule": [{"duration": 0.005, "rate": 2.0}]}
    cases = [
        (doc(pde=dict(base, delta=0.003, horizon=0.9)),
         r"pde\.R0: 8\.0 is not a whole"),
        (doc(pde=dict(base, horizon=1.005)), r"pde\.horizon"),
        (doc(pde=dict(base, output_times=[0.5, 0.505])),
         r"pde\.output_times\[1\]"),
        (doc(init={"kind": "stationary_ages"}, pde=dict(base, L0=1)),
         r"pde\.L0"),
        (doc(init=backlog, pde=base), r"init\.schedule"),
    ]
    for data, where in cases:
        scenario = scenario_from_dict(data)
        with pytest.raises(ConfigError, match=where):
            fluid_parts(scenario)
    fluid_parts(scenario_from_dict(doc(pde=dict(base, output_times=[0.0]))))


def test_init_kind_validation():
    with pytest.raises(ConfigError, match="init.kind"):
        scenario_from_dict(doc(init={"kind": "warm"}))
    with pytest.raises(ConfigError, match=r"^init\.schedule: missing"):
        scenario_from_dict(doc(init={"kind": "backlog"}))
    with pytest.raises(ConfigError, match="init.jobs_per_queue"):
        scenario_from_dict(doc(init={"kind": "fixed", "jobs_per_queue": -1}))
    s = scenario_from_dict(doc(init={"kind": "fixed", "jobs_per_queue": 0}))
    assert s.init["jobs_per_queue"] == 0


def test_bad_arrival_and_service_report_their_section():
    with pytest.raises(ConfigError, match="arrival"):
        scenario_from_dict(doc(arrival={"kind": "constant", "rate": -1.0}))
    with pytest.raises(ConfigError, match="arrival"):
        scenario_from_dict(doc(arrival={"kind": "bursty", "rate": 0.5}))
    with pytest.raises(ConfigError, match=r"^service\.beta: must be > 1"):
        scenario_from_dict(doc(service={"family": "pareto", "beta": 0.5}))
    with pytest.raises(ConfigError, match=r"^service\.family: expected one"):
        scenario_from_dict(doc(service={"family": "uniform"}))
    with pytest.raises(ConfigError,
                       match=r"^arrival\.segments\[1\]\.duration: must be"):
        scenario_from_dict(doc(arrival={
            "kind": "piecewise",
            "segments": [{"duration": 1.0, "rate": 0.5},
                         {"duration": 0.0, "rate": 0.5}]}))


def test_d_validation():
    with pytest.raises(ConfigError, match="d"):
        scenario_from_dict(doc(d=0))
    with pytest.raises(ConfigError, match="d"):
        scenario_from_dict(doc(d=2.5))
    assert scenario_from_dict(doc(d=1)).d == 1


def test_invalid_json_is_a_config_error():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_scenario("{not json")
    with pytest.raises(ConfigError, match="expected an object"):
        parse_scenario("[1, 2]")


@pytest.mark.parametrize("value", [
    "NaN", "Infinity", "-Infinity",
    # a JSON integer too large for a float
    pytest.param("1" + "0" * 400, id="huge-integer")])
@pytest.mark.parametrize("section, key, path", [
    ("pde", "R0", "pde.R0"),
    ("pde", "horizon", "pde.horizon"),
    ("sim", "wait_bin_width", "sim.wait_bin_width"),
    ("arrival", "rate", "arrival.rate"),
    ("arrival", "period", "arrival.period"),
    ("service", "beta", "service.beta"),
])
def test_non_finite_numbers_are_refused_with_their_path(section, key, path,
                                                        value):
    # JSON as Python reads it admits NaN and +-Infinity as numbers
    data = doc(service={"family": "pareto", "beta": 2.0})
    if key == "period":
        data["arrival"] = {"kind": "periodic", "mean_rate": 0.5,
                           "delta": 0.25}
    data[section][key] = "@"
    text = json.dumps(data).replace('"@"', value)
    with pytest.raises(ConfigError, match="^" + re.escape(path) + ":"):
        parse_scenario(text)


@pytest.mark.parametrize("section, value, path", [
    ("service", {"family": "gamma", "shape": True}, "service.shape"),
    ("service", {"family": "gamma", "shape": "2"}, "service.shape"),
    ("arrival", {"kind": "constant", "rate": True}, "arrival.rate"),
    ("arrival", {"kind": "periodic", "mean_rate": 0.5, "delta": False,
                 "period": 2.0}, "arrival.delta"),
    ("arrival", {"kind": "piecewise", "repeat": "no",
                 "segments": [{"duration": 1.0, "rate": 0.5}]},
     "arrival.repeat"),
    ("service", {"family": ["pareto"]}, "service.family"),
])
def test_values_of_the_wrong_json_type_are_refused_with_their_path(
        section, value, path):
    # bool is an int in Python, and bool("no") is true
    with pytest.raises(ConfigError, match="^" + re.escape(path) + ":"):
        scenario_from_dict(doc(**{section: value}))


PERIODIC = {"kind": "periodic", "mean_rate": 0.5, "delta": 0.25,
            "period": 2.0}
ONE_SEGMENT = {"duration": 1.0, "rate": 0.5}


@pytest.mark.parametrize("section, value, path", [
    ("arrival", {"kind": "constant"}, "arrival.rate"),
    ("arrival", {k: v for k, v in PERIODIC.items() if k != "period"},
     "arrival.period"),
    ("arrival", {"kind": "piecewise"}, "arrival.segments"),
    ("arrival", {"kind": "constant", "rate": "0.5"}, "arrival.rate"),
    ("arrival", dict(PERIODIC, mean_rate="0.5"), "arrival.mean_rate"),
    ("arrival", {"kind": "piecewise", "segments": [[1.0, 0.5]]},
     "arrival.segments[0]"),
    ("arrival", {"kind": "piecewise",
                 "segments": [ONE_SEGMENT, {"rate": 0.5}]},
     "arrival.segments[1].duration"),
    ("arrival", dict(PERIODIC, delta=0.75), "arrival.delta"),
    # half the period rounds to 0, and the high rate overflows
    ("arrival", dict(PERIODIC, delta=0.1, period=5e-324), "arrival.period"),
    ("arrival", dict(PERIODIC, mean_rate=1.5e308, delta=1e308),
     "arrival.delta"),
    ("init", {"kind": "backlog",
              "schedule": [ONE_SEGMENT, {"duration": 1.0, "rate": "2"}]},
     "init.schedule[1].rate"),
], ids=["no-rate", "no-period", "no-segments", "string-rate",
        "string-mean-rate", "list-segment", "no-duration",
        "delta-above-mean", "half-period-zero", "high-rate-overflow",
        "string-schedule-rate"])
def test_malformed_arrival_documents_are_refused_with_their_path(
        section, value, path):
    # the message starts with the path of the bad key, nothing above it
    with pytest.raises(ConfigError, match="^" + re.escape(path) + ":"):
        scenario_from_dict(doc(**{section: value}))


def test_service_section_is_the_built_law_config():
    s = scenario_from_dict(doc(service={"family": "hyperexp", "rate1": 2,
                                        "rate2": 0.5}))
    assert s.service == {"family": "hyperexp", "rate1": 2.0, "rate2": 0.5}
    assert all(type(v) is float for k, v in s.service.items()
               if k != "family")


def _readme_scenario():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Scenario documents", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section,
                                re.DOTALL).group(1))


def _key_paths(node, path=""):
    """The key path of every key below `node` but `name`, objects
    included, descending into each."""
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        if key != "name":
            yield where
        if isinstance(value, dict):
            yield from _key_paths(value, where)


README_SCENARIO = _readme_scenario()
DOCUMENTS = {"scenario": (parse_scenario, README_SCENARIO),
             "backlog": (studies.parse_backlog, {}),
             "periodic": (studies.parse_periodic, {})}
KEYS = ([("scenario", path) for path in _key_paths(README_SCENARIO)]
        + [("backlog", key) for key in studies.BACKLOG]
        + [("periodic", key) for key in studies.PERIODIC])


@pytest.mark.parametrize("document, path", KEYS,
                         ids=[f"{d}-{p}" for d, p in KEYS])
def test_every_key_is_refused_at_its_own_path(document, path):
    # the README scenario and each study's parameters, one key set to a
    # JSON string: the message starts with that key's path
    parse, base = DOCUMENTS[document]
    data = copy.deepcopy(base)
    *parents, key = path.split(".")
    node = data
    for parent in parents:
        node = node[parent]
    node[key] = "x"
    with pytest.raises(ConfigError, match="^" + re.escape(path) + ":"):
        parse(json.dumps(data))
