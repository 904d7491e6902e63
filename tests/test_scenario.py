"""Tests for scenario document parsing, validation and rendering."""

import copy

import numpy as np
import pytest

from fluidlb import (ConfigError, PiecewiseRate, parse_scenario,
                     render_scenario, scenario_from_dict)
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
    with pytest.raises(ConfigError, match="needs a 'sim' section"):
        s.require("sim")
    with pytest.raises(ConfigError, match="needs a 'pde' section"):
        s.require("pde")


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


def test_helper_constructors():
    s = scenario_from_dict(doc())
    assert s.arrival_profile().rate(0.3) == 0.5
    assert s.service_distribution().config() == {"family": "exponential"}
    assert s.init_schedule() is None
    backlog = scenario_from_dict(doc(init={
        "kind": "backlog", "schedule": [{"duration": 2.0, "rate": 3.0}]}))
    sched = backlog.init_schedule()
    assert isinstance(sched, PiecewiseRate)
    assert sched.rate(1.0) == 3.0


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
    with pytest.raises(ConfigError, match=r"sim: missing keys \['seed'\]"):
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
    with pytest.raises(ConfigError, match="pde"):
        scenario_from_dict(doc(pde=dict(base, delta=0.0)))
    with pytest.raises(ConfigError, match="pde.L0"):
        scenario_from_dict(doc(pde=dict(base, L0=0)))
    with pytest.raises(ConfigError, match=r"pde: missing keys \['horizon'\]"):
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
    with pytest.raises(ConfigError, match=r"init: missing keys \['schedule'\]"):
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
    with pytest.raises(ConfigError, match="service"):
        scenario_from_dict(doc(service={"family": "pareto", "beta": 0.5}))
    with pytest.raises(ConfigError, match="service"):
        scenario_from_dict(doc(service={"family": "uniform"}))
    with pytest.raises(ConfigError, match="arrival.*duration must be"):
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
