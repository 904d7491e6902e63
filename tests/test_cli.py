"""End-to-end tests of the command line interface.

Commands run in-process through cli.main(argv) so the suite stays fast;
one test goes through ``python3 -m fluidlb`` to cover the entry point.
"""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fluidlb import queue_tail_marginals, simulator
from fluidlb.cli import main
from fluidlb.studies import BACKLOG, PERIODIC, parse_backlog, parse_periodic

BASE = {
    "arrival": {"kind": "constant", "rate": 0.5},
    "service": {"family": "exponential"},
    "init": {"kind": "fixed", "jobs_per_queue": 1},
    "sim": {"n": 30, "replications": 8, "seed": 3,
            "sample_times": [0.5, 1.0], "max_level": 3},
    "pde": {"L0": 4, "R0": 8.0, "delta": 0.005, "horizon": 1.0,
            "output_times": [1.0]},
}


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_solve_pde_outputs(tmp_path):
    cfg = write_json(tmp_path / "s.json", BASE)
    assert main(["solve-pde", "--config", cfg, "--out", str(tmp_path)]) == 0

    header, rows = read_csv(tmp_path / "pde_tails.csv")
    assert header == ["t", "ell", "Z_at_r0"]
    assert len(rows) == 201 * 4
    first = rows[0]
    assert (float(first[0]), int(first[1]), float(first[2])) == (0.0, 1, 1.0)

    header, rows = read_csv(tmp_path / "pde_slices.csv")
    assert header == ["t", "ell", "r", "Z"]
    assert {r[0] for r in rows} == {"1.0"}
    assert len(rows) == 4 * 1601

    header, rows = read_csv(tmp_path / "pde_wait.csv")
    assert header == ["t", "W"]
    assert float(rows[0][0]) == 0.0
    waits = [float(r[1]) for r in rows]
    assert all(w >= 0.0 for w in waits)


def test_solve_pde_files_match_a_plain_csv_writer(tmp_path):
    # the columnar writer must give the bytes of csv.writer over rows of
    # repr(float) cells, for the same trajectory; both files span more
    # than one chunk of rows
    from fluidlb.scenario import parse_scenario
    from fluidlb.validation import fluid_parts

    doc = dict(BASE, pde={"L0": 3, "R0": 2.5, "delta": 0.001, "horizon": 0.7,
                          "output_times": [0.2, 0.7], "wait_stride": 50})
    cfg = write_json(tmp_path / "s.json", doc)
    assert main(["solve-pde", "--config", cfg, "--out", str(tmp_path)]) == 0

    solver, grid = fluid_parts(
        parse_scenario((tmp_path / "s.json").read_text(encoding="utf-8")))
    traj = solver.solve(grid, 0.7, slice_times=[0.2, 0.7], wait_stride=50)

    def csv_bytes(header, rows):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode("utf-8")

    tails = [(repr(float(t)), level + 1, repr(float(traj.tails[m, level])))
             for m, t in enumerate(traj.times) for level in range(3)]
    slices = [(repr(t), level + 1, repr(float(r)),
               repr(float(traj.slice_at(t)[level, j])))
              for t in (0.2, 0.7) for level in range(3)
              for j, r in enumerate(grid.r_grid)]
    assert (tmp_path / "pde_tails.csv").read_bytes() == csv_bytes(
        ["t", "ell", "Z_at_r0"], tails)
    assert (tmp_path / "pde_slices.csv").read_bytes() == csv_bytes(
        ["t", "ell", "r", "Z"], slices)


def test_simulate_outputs(tmp_path):
    cfg = write_json(tmp_path / "s.json", BASE)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "metrics.csv")
    assert header == ["t", "metric", "ell", "mean", "stderr", "replications"]
    metrics = {r[1] for r in rows}
    assert metrics == {"tail_ge_1", "tail_ge_2", "tail_ge_3",
                       "virtual_wait", "actual_wait", "chaos_gap"}
    for r in rows:
        if r[1].startswith("tail_ge_"):
            assert r[2] == r[1].rsplit("_", 1)[1]
        else:
            assert r[2] == ""
        assert r[5] == "8"
    # tails, virtual wait and chaos gap report on the sample-time grid;
    # completed waits land on their own bin-center grid
    on_grid = [r for r in rows if r[1] != "actual_wait"]
    assert len(on_grid) == 5 * 2
    assert all(r[0] in ("0.5", "1.0") for r in on_grid)
    actual = [float(r[0]) for r in rows if r[1] == "actual_wait"]
    assert actual and all(0.0 <= t <= 1.0 for t in actual)


def test_simulate_one_server_writes_no_chaos_gap(tmp_path):
    cfg = write_json(tmp_path / "s.json", dict(
        BASE, sim={"n": 1, "replications": 4, "seed": 1,
                   "sample_times": [1.0, 2.0]}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "metrics.csv")
    metrics = {r[1] for r in rows}
    assert "virtual_wait" in metrics and "chaos_gap" not in metrics


def test_identical_runs_are_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "s.json", BASE)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert main(["simulate", "--config", cfg, "--out", str(c),
                 "--seed", "4"]) == 0
    assert (a / "metrics.csv").read_bytes() != (c / "metrics.csv").read_bytes()

    assert main(["solve-pde", "--config", cfg, "--out", str(a)]) == 0
    assert main(["solve-pde", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "pde_tails.csv").read_bytes() == \
        (b / "pde_tails.csv").read_bytes()


def test_reps_override_changes_row_counts(tmp_path):
    cfg = write_json(tmp_path / "s.json", BASE)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                 "--reps", "4"]) == 0
    _, rows = read_csv(tmp_path / "metrics.csv")
    assert all(r[5] == "4" for r in rows)


def test_validate_small_ensemble_passes(tmp_path):
    # wide 4-sigma envelopes at 8 replications; exit 0 expected
    cfg = write_json(tmp_path / "s.json", BASE)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "validation.csv")
    assert header == ["source", "metric", "ell", "t", "pde", "estimate",
                      "stderr", "deviation", "allowed", "enforced", "passed"]
    sources = {r[0] for r in rows}
    assert sources == {"mc-vs-pde", "ode-vs-pde"}
    for r in rows:
        assert r[9] in ("true", "false")
        if r[9] == "true":
            assert r[10] == "true"
    # the wait comparison is reported but not enforced
    wait_rows = [r for r in rows if r[1] == "virtual_wait"]
    assert wait_rows and all(r[9] == "false" for r in wait_rows)


def test_validate_passes_from_a_backlog_start(tmp_path):
    # both engines start from the same one-shot surge, solved or simulated
    # from empty, and then agree on the relaxation that follows it
    cfg = write_json(tmp_path / "s.json", {
        "arrival": {"kind": "constant", "rate": 0.6},
        "service": {"family": "gamma", "shape": 2.0},
        "init": {"kind": "backlog",
                 "schedule": [{"duration": 1.0, "rate": 0.6},
                              {"duration": 1.0, "rate": 2.0}]},
        "sim": {"n": 400, "replications": 40, "seed": 11,
                "sample_times": {"start": 0.5, "stop": 3.0, "step": 0.5},
                "max_level": 3},
        "pde": {"L0": 8, "R0": 10.0, "delta": 0.01, "horizon": 3.0},
    })
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "validation.csv")
    tails = [r for r in rows if r[1].startswith("tail_ge_")]
    assert len(tails) == 18
    assert all(r[0] == "mc-vs-pde" and r[9] == "true" and r[10] == "true"
               for r in tails)
    # the surge leaves a backlog that the fluid start carries: half a time
    # unit after it, a fifth of the servers hold 3 or more jobs, against
    # 0.6 ** 7 = 0.028 at the fixed point
    (level3,) = [r for r in tails if r[1] == "tail_ge_3" and r[3] == "0.5"]
    assert float(level3[4]) > 0.15


def test_validate_detects_two_server_bias(tmp_path):
    # two servers sit measurably above the mean-field tails; with 2000
    # replications the 4-sigma envelope is far tighter than the gap, so
    # the comparison must fail deterministically.
    cfg = write_json(tmp_path / "s.json", {
        "arrival": {"kind": "constant", "rate": 0.5},
        "service": {"family": "exponential"},
        "init": {"kind": "fixed", "jobs_per_queue": 1},
        "sim": {"n": 2, "replications": 2000, "seed": 11,
                "sample_times": [5.0], "max_level": 2},
        "pde": {"L0": 4, "R0": 8.0, "delta": 0.005, "horizon": 5.0},
    })
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    _, rows = read_csv(tmp_path / "validation.csv")
    failed = [r for r in rows if r[10] == "false" and r[9] == "true"]
    assert any(r[1] == "tail_ge_2" for r in failed)


def test_config_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["solve-pde", "--config", missing,
                 "--out", str(tmp_path)]) == 2

    no_seed = dict(BASE, sim={"n": 4, "replications": 2,
                              "sample_times": [1.0]})
    cfg = write_json(tmp_path / "noseed.json", no_seed)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    no_sim = {k: v for k, v in BASE.items() if k != "sim"}
    cfg = write_json(tmp_path / "nosim.json", no_sim)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    cfg = write_json(tmp_path / "s.json", BASE)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                 "--reps", "1"]) == 2

    # validate requires sample times on the pde mesh
    off_mesh = dict(BASE, sim=dict(BASE["sim"], sample_times=[0.5003]))
    cfg = write_json(tmp_path / "offmesh.json", off_mesh)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2

    # effective-rate refuses non-periodic arrivals
    cfg = write_json(tmp_path / "s.json", BASE)
    assert main(["effective-rate", "--config", cfg,
                 "--out", str(tmp_path)]) == 2

    # study verbs reject unknown parameter keys
    cfg = write_json(tmp_path / "p.json", {"surge": 2.0})
    assert main(["scenario-backlog", "--config", cfg,
                 "--out", str(tmp_path)]) == 2


def test_study_parameter_errors_name_their_key(tmp_path, capsys):
    cases = [
        ("scenario-backlog", {"curve_shapes": [["pareto", 0.5]]},
         "curve_shapes[0]: beta: must be > 1, got 0.5"),
        ("scenario-backlog", {"table_shapes": {"weibull": [-1]}},
         "table_shapes.weibull[0]: shape: must be > 0, got -1"),
        ("scenario-backlog", {"delta": 0.003}, "r_max:"),
        ("scenario-periodic", {"deltas": [0.0, 0.9]}, "deltas[1]:"),
        ("scenario-periodic", {"mean_rate": 1.5}, "mean_rate:"),
        # 0.2 holds 40 steps, 4 wait strides: fewer than 8 samples
        ("scenario-periodic", {"period": 0.2},
         "period: 0.2 holds fewer than 8 wait samples"),
        # the first of the 2000 / period maps starts from the empty grid
        ("scenario-periodic", {"period": 2400, "levels": 5, "r_max": 8.0,
                               "delta": 0.02},
         "period: 2400 fits fewer than 2 periods within t = 2000"),
    ]
    for verb, params, where in cases:
        cfg = write_json(tmp_path / "p.json", params)
        assert main([verb, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: {where}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("verb, params, where", [
    ("scenario-periodic", {"shapes": [["exponential", 7]], "deltas": [0.0]},
     "shapes[0]"),
    ("scenario-backlog", {"curve_shapes": [["exponential", 7]],
                          "table_shapes": {}}, "curve_shapes[0]"),
    ("scenario-backlog", {"curve_shapes": [],
                          "table_shapes": {"exponential": [7]}},
     "table_shapes.exponential[0]"),
])
def test_study_law_without_a_shape_refuses_one(tmp_path, capsys, verb,
                                               params, where):
    # the exponential law has no shape: a given one used to be dropped,
    # and written next to the result as if it had been used
    cfg = write_json(tmp_path / "p.json", params)
    assert main([verb, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert (f"config error: {where}: exponential takes no shape, got 7"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("table, parse", [(BACKLOG, parse_backlog),
                                          (PERIODIC, parse_periodic)])
def test_study_tables_read_back_unchanged(table, parse):
    # every declared key and default is one a --config document may give
    assert parse(json.dumps(table)) == table
    assert parse(None) == table


def test_readme_lists_each_study_table_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Study verbs", 1)[1].split("\n### ", 1)[0]
    lists = [re.findall(r"`(\w+)`", keys)
             for keys in re.findall(r"Keys: (.*?)[;.]", section, re.DOTALL)]
    assert lists == [list(BACKLOG), list(PERIODIC)]


@pytest.mark.parametrize("verb, params, where", [
    ("scenario-periodic", {"shapes": [["pareto", float("nan")]]},
     "shapes[0]: beta: expected a finite number"),
    ("scenario-backlog", {"table_shapes": {"gamma": [float("inf")]}},
     "table_shapes.gamma[0]: shape: expected a finite number"),
    ("scenario-periodic", {"period": float("inf")}, "period:"),
    ("scenario-periodic", {"shapes": [["gamma", "2"]]},
     "shapes[0]: shape: expected a number"),
    ("scenario-backlog", {"table_shapes": {"gamma": [True]}},
     "table_shapes.gamma[0]: shape: expected a number"),
])
def test_non_finite_study_entries_exit_2(tmp_path, capsys, verb, params,
                                         where):
    cfg = write_json(tmp_path / "p.json", params)
    assert main([verb, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config error: {where}" in capsys.readouterr().err


def test_unmapped_exception_exits_4_with_a_traceback(tmp_path, monkeypatch,
                                                     capsys):
    # `python -m fluidlb` keeps exit 1 for a failed validation: a fault
    # inside the program prints its traceback and exits 4
    import runpy

    from fluidlb.fluid import FluidSolver

    def broken(self, *args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(FluidSolver, "solve", broken)
    cfg = write_json(tmp_path / "s.json", BASE)
    monkeypatch.setattr(sys, "argv", ["fluidlb", "solve-pde", "--config", cfg,
                                      "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("fluidlb", run_name="__main__")
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: engine fault" in err


@pytest.mark.parametrize("verb", ["validate", "scenario-periodic",
                                  "effective-rate"])
def test_nonpositive_tolerance_exits_2(tmp_path, verb):
    # a bisection to tolerance 0 would never end, and one to an infinite
    # tolerance would never start
    cfg = write_json(tmp_path / "s.json", BASE)
    for tol in ("0", "-1e-3", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", cfg, "--out", str(tmp_path),
                  "--tolerance", tol])
        assert exc.value.code == 2


@pytest.mark.parametrize("rates", [(0.5, 1.0), (1.0, 3.0)])
def test_hyperexp_rate_of_one_exits_2(tmp_path, capsys, rates):
    # the mixture weight would be 0 or 1, and the fluid solver's ghost
    # ratio takes its log
    doc = dict(BASE, service={"family": "hyperexp", "rate1": rates[0],
                              "rate2": rates[1]})
    cfg = write_json(tmp_path / "s.json", doc)
    assert main(["solve-pde", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert ("config error: service.rate2: rates "
            f"{float(rates[0])!r}, {float(rates[1])!r} must lie strictly "
            "on either side of 1") in capsys.readouterr().err


def test_arrival_without_its_field_exits_2(tmp_path, capsys):
    # a missing arrival field was a KeyError traceback (exit 4)
    cfg = write_json(tmp_path / "s.json",
                     dict(BASE, arrival={"kind": "constant"}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: arrival.rate: missing" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_engine_value_error_is_not_a_config_error(tmp_path, monkeypatch,
                                                  capsys):
    # config problems arrive as ConfigError; a ValueError raised inside an
    # engine is a fault of the program and must not read as "config error"
    from fluidlb.fluid import FluidSolver

    def broken(self, *args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(FluidSolver, "solve", broken)
    cfg = write_json(tmp_path / "s.json", BASE)
    with pytest.raises(ValueError, match="engine fault"):
        main(["solve-pde", "--config", cfg, "--out", str(tmp_path)])
    assert "config error" not in capsys.readouterr().err


def test_engine_limits_are_config_errors(tmp_path, capsys):
    # limits an engine would only meet mid-run are refused up front, by
    # key, before any output is written
    periodic = {
        "arrival": {"kind": "periodic", "mean_rate": 0.6, "delta": 0.3,
                    "period": 2.0},
        "service": {"family": "exponential"},
        "pde": {"L0": 5, "R0": 8.0, "delta": 5e-3, "horizon": 1.0},
    }
    oracle = {k: BASE[k] for k in ("arrival", "service", "sim")}
    cases = [
        ("effective-rate", dict(periodic, arrival=dict(
            periodic["arrival"], period=0.2)),
         "arrival.period: 0.2 holds fewer than 8 wait samples"),
        ("effective-rate", dict(periodic, pde=dict(periodic["pde"],
                                                   R0=8.0025)), "pde.R0"),
        ("effective-rate", dict(periodic, arrival=dict(
            periodic["arrival"], period=2400.0), pde=dict(
                periodic["pde"], delta=0.02)),
         "arrival.period: 2400.0 fits fewer than 2 periods"),
        # the plateau fixed points need delta * d below 1
        ("effective-rate", dict(periodic, d=3, pde=dict(
            periodic["pde"], delta=0.4)), "pde.delta: 0.4 times d = 3"),
        ("oracle-ctmc", dict(oracle, sim=dict(BASE["sim"], n=2),
                             init={"jobs_per_queue": 31}),
         "init.jobs_per_queue"),
        # gamma(1 + 1/k) overflows: no unit-mean scale exists
        ("solve-pde", dict(BASE, service={"family": "weibull",
                                          "shape": 0.005}),
         "service.shape: 0.005 leaves no positive unit-mean scale"),
    ]
    for verb, data, where in cases:
        cfg = write_json(tmp_path / "c.json", data)
        assert main([verb, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: {where}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _refusal(capsys):
    """The message of the one config error the last command printed."""
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    return err[len("config error: "):]


PERIODIC_DOC = {"arrival": {"kind": "periodic", "mean_rate": 0.7,
                            "delta": 0.35, "period": 2.0},
                "service": {"family": "exponential"}}
ORACLE_DOC = dict(BASE, sim=dict(BASE["sim"], n=2))


@pytest.mark.parametrize("verb,data,want", [
    ("effective-rate", BASE,
     r"^arrival\.kind: effective-rate needs 'periodic', got 'constant'$"),
    ("oracle-ctmc", dict(ORACLE_DOC, service={"family": "gamma",
                                              "shape": 2.0}),
     r"^service\.family: oracle-ctmc supports 'exponential' only, "
     r"got 'gamma'$"),
    ("oracle-ctmc", dict(ORACLE_DOC, arrival=PERIODIC_DOC["arrival"]),
     r"^arrival\.kind: oracle-ctmc supports 'constant' only, "
     r"got 'periodic'$"),
    ("oracle-ctmc", dict(ORACLE_DOC, init={"kind": "stationary_ages"}),
     r"^init\.kind: oracle-ctmc supports 'fixed' only, "
     r"got 'stationary_ages'$"),
    ("oracle-ctmc", BASE,
     r"^sim\.n: oracle-ctmc is exact and only tractable for n <= 3, "
     r"got 30$"),
    ("simulate", {k: BASE[k] for k in ("arrival", "service")},
     r"^sim: missing, and this command needs the section$"),
    ("solve-pde", {k: BASE[k] for k in ("arrival", "service")},
     r"^pde: missing, and this command needs the section$"),
    ("validate", {k: BASE[k] for k in ("arrival", "service", "sim")},
     r"^pde: missing, and this command needs the section$"),
    ("simulate", {k: BASE[k] for k in ("service", "sim")},
     r"^arrival: missing$"),
], ids=["effective-rate-arrival.kind", "oracle-service.family",
        "oracle-arrival.kind", "oracle-init.kind", "oracle-sim.n",
        "simulate-sim", "solve-pde-pde", "validate-pde", "simulate-arrival"])
def test_verb_refusals_start_with_their_key_path(tmp_path, capsys, verb,
                                                 data, want):
    cfg = write_json(tmp_path / "c.json", data)
    assert main([verb, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert re.search(want, _refusal(capsys))
    assert not list(tmp_path.glob("*.csv"))


def test_effective_rate_without_a_pde_section_blames_d(tmp_path, capsys):
    # the mesh is the periodic study's, so delta * d >= 1 is d's doing
    cfg = write_json(tmp_path / "c.json", dict(PERIODIC_DOC, d=200))
    assert main(["effective-rate", "--config", cfg,
                 "--out", str(tmp_path)]) == 2
    assert re.search(r"^d: 200 times delta = 0\.005 must stay below 1; "
                     r"with no pde section, the mesh is the one in "
                     r"studies\.PERIODIC$", _refusal(capsys))
    assert PERIODIC["delta"] == 0.005
    assert not list(tmp_path.glob("*.csv"))


def test_fixed_start_above_the_level_count_exits_2(tmp_path, capsys):
    # a 6-job start on 3 levels cannot be represented; the fluid verbs
    # refuse it before writing anything, the simulator never reads pde
    data = dict(BASE, init={"kind": "fixed", "jobs_per_queue": 6},
                pde=dict(BASE["pde"], L0=3))
    cfg = write_json(tmp_path / "s.json", data)
    for verb in ("solve-pde", "validate"):
        out = tmp_path / verb
        assert main([verb, "--config", cfg, "--out", str(out)]) == 2
        assert ("config error: init.jobs_per_queue: 6 jobs per queue need "
                "pde.L0 >= 6, got 3") in capsys.readouterr().err
        assert not out.exists()
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "sim")]) == 0


def test_simulate_ignores_an_off_mesh_pde_section(tmp_path):
    # the pde mesh is checked where the fluid solver runs, not at parse
    off_mesh = dict(BASE, pde={"L0": 4, "R0": 8.0, "delta": 0.003,
                               "horizon": 0.9})
    cfg = write_json(tmp_path / "s.json", off_mesh)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["solve-pde", "--config", cfg,
                 "--out", str(tmp_path / "pde")]) == 2


def test_coarse_mesh_surge_exits_3(tmp_path):
    # with steps this coarse the per-step arrival mass overshoots the unit
    # interval during the surge; the command must report instability
    # instead of writing bad numbers
    cfg = write_json(tmp_path / "p.json", {
        "curve_shapes": [["pareto", 2.5]], "table_shapes": {},
        "levels": 6, "r_max": 5.0, "delta": 0.25, "table_delta": 0.25,
        "horizon": 2.0, "lead": 2.0, "surge_rate": 5.0,
    })
    assert main(["scenario-backlog", "--config", cfg,
                 "--out", str(tmp_path)]) == 3


def test_scenario_backlog_small_run(tmp_path):
    cfg = write_json(tmp_path / "p.json", {
        "curve_shapes": [["pareto", 2.5]],
        "table_shapes": {"pareto": [1.25, 2.5]},
        "levels": 6, "r_max": 8.0, "delta": 0.01, "table_delta": 0.01,
        "horizon": 6.0, "lead": 2.0, "surge_rate": 2.0,
        "surge_duration": 1.0,
    })
    assert main(["scenario-backlog", "--config", cfg,
                 "--out", str(tmp_path)]) == 0

    header, rows = read_csv(tmp_path / "backlog_wait.csv")
    assert header == ["family", "shape", "t", "wait"]
    assert all(r[0] == "pareto" and r[1] == "2.5" for r in rows)
    assert float(rows[0][3]) > 0.0

    header, rows = read_csv(tmp_path / "backlog_relaxation.csv")
    assert header == ["family", "shape", "median", "relaxation_time"]
    assert [r[1] for r in rows] == ["1.25", "2.5"]
    # median of the unit-mean heavy tail family: scale*(2^(1/beta)-1)
    for r in rows:
        assert float(r[2]) > 0.0


def test_scenario_periodic_small_run(tmp_path):
    cfg = write_json(tmp_path / "p.json", {
        "shapes": [["exponential", None]], "deltas": [0.0, 0.5],
        "mean_rate": 0.5, "levels": 5, "r_max": 8.0, "delta": 0.02,
    })
    assert main(["scenario-periodic", "--config", cfg,
                 "--out", str(tmp_path), "--tolerance", "2e-3"]) == 0
    header, rows = read_csv(tmp_path / "effective_rate.csv")
    assert header == ["family", "shape", "delta", "lambda_eff"]
    assert len(rows) == 2
    flat = rows[0]
    assert flat[0] == "exponential" and flat[1] == ""
    assert float(flat[2]) == 0.0
    assert float(flat[3]) == 0.5
    assert float(rows[1][3]) >= 0.5


def test_effective_rate_verb(tmp_path):
    cfg = write_json(tmp_path / "s.json", {
        "arrival": {"kind": "periodic", "mean_rate": 0.6, "delta": 0.0,
                    "period": 2.0},
        "service": {"family": "exponential"},
        "pde": {"L0": 5, "R0": 8.0, "delta": 0.02, "horizon": 1.0},
    })
    assert main(["effective-rate", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "effective_rate.csv")
    assert header == ["family", "shape", "delta", "lambda_eff"]
    assert len(rows) == 1
    # a flat pattern keeps exactly its mean rate
    assert float(rows[0][3]) == 0.6


def test_effective_rate_singular_jacobian_exits_3(tmp_path, monkeypatch,
                                                  capsys):
    # a plateau solve that finds no fixed point is a numerical failure
    # (exit 3), not a config error
    cfg = write_json(tmp_path / "s.json", {
        "arrival": {"kind": "periodic", "mean_rate": 0.6, "delta": 0.3,
                    "period": 2.0},
        "service": {"family": "exponential"},
        "pde": {"L0": 5, "R0": 8.0, "delta": 0.02, "horizon": 1.0},
    })
    monkeypatch.setattr("fluidlb.fluid.MAX_SWEEPS", 3)
    assert main(["effective-rate", "--config", cfg,
                 "--out", str(tmp_path)]) == 3
    assert "numerical failure: no fixed point" in capsys.readouterr().err


def test_oracle_ctmc_verb(tmp_path):
    cfg = write_json(tmp_path / "s.json", {
        "arrival": {"kind": "constant", "rate": 0.5},
        "service": {"family": "exponential"},
        "init": {"kind": "fixed", "jobs_per_queue": 1},
        "sim": {"n": 2, "replications": 2, "seed": 1,
                "sample_times": [1.0], "max_level": 3},
    })
    assert main(["oracle-ctmc", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "ctmc_tails.csv")
    assert header == ["t", "ell", "prob"]
    assert len(rows) == 3
    assert float(rows[0][2]) == pytest.approx(0.5787522608446836, abs=1e-12)

    bad = write_json(tmp_path / "bad.json", {
        "arrival": {"kind": "constant", "rate": 0.5},
        "service": {"family": "gamma", "shape": 2.0},
        "sim": {"n": 2, "replications": 2, "seed": 1,
                "sample_times": [1.0]},
    })
    assert main(["oracle-ctmc", "--config", bad,
                 "--out", str(tmp_path)]) == 2


def test_oracle_ctmc_reports_every_configured_level(tmp_path, capsys):
    sim = {"n": 2, "replications": 2, "seed": 1,
           "sample_times": [0.5, 1.0], "max_level": 5}
    doc = {"arrival": {"kind": "constant", "rate": 0.5},
           "service": {"family": "exponential"},
           "init": {"kind": "fixed", "jobs_per_queue": 1}, "sim": sim}
    cfg = write_json(tmp_path / "s.json", doc)
    assert main(["oracle-ctmc", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "ctmc_tails.csv")
    want = queue_tail_marginals(2, 0.5, [0.5, 1.0], max_level=5)
    assert [(float(t), int(ell)) for t, ell, _ in rows] == [
        (t, ell) for t in (0.5, 1.0) for ell in range(1, 6)]
    assert [float(p) for *_, p in rows] == want.tails.ravel().tolist()

    # a level above the lattice cap cannot be read off the lattice
    (tmp_path / "ctmc_tails.csv").unlink()
    cfg = write_json(tmp_path / "s.json", dict(doc, sim=dict(sim,
                                                              max_level=31)))
    assert main(["oracle-ctmc", "--config", cfg,
                 "--out", str(tmp_path)]) == 2
    assert "config error: sim.max_level: the oracle's lattice holds at " \
           "most 30 jobs per server, got 31" in capsys.readouterr().err
    assert not (tmp_path / "ctmc_tails.csv").exists()


def test_seed_override_outside_the_seed_range_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", BASE)
    for seed, why in (("-1", "must be >= 0"),
                      (str(2 ** 64), "must be <= 18446744073709551615")):
        for verb in ("simulate", "validate"):
            assert main([verb, "--config", cfg, "--out", str(tmp_path),
                         "--seed", seed]) == 2
            assert f"config error: --seed: {why}, got {seed}" \
                in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_module_entry_point(tmp_path):
    cfg = write_json(tmp_path / "s.json", {
        "arrival": {"kind": "constant", "rate": 0.5},
        "service": {"family": "exponential"},
        "sim": {"n": 1, "replications": 2, "seed": 1,
                "sample_times": [1.0]},
    })
    proc = subprocess.run(
        [sys.executable, "-m", "fluidlb", "oracle-ctmc",
         "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ctmc_tails.csv" in proc.stdout
    assert (tmp_path / "ctmc_tails.csv").exists()


_SCIPY_PROBE = """
import json, sys
from fluidlb.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

after_import = scipy_loaded()
runs = json.loads(sys.argv[1])
for argv in runs[:-1]:
    assert main(argv) == 0, argv
after_verbs = scipy_loaded()
assert main(runs[-1]) == 0, runs[-1]
print(json.dumps([after_import, after_verbs, scipy_loaded()]))
"""


def test_elementary_verbs_load_no_scipy(tmp_path):
    # scipy serves only special functions, brentq and the lattice oracle;
    # start-up and every verb on an elementary service law run on numpy
    # alone, checked in a fresh interpreter
    small_pde = {"L0": 4, "R0": 4.0, "delta": 0.01, "horizon": 0.5,
                 "output_times": [0.5]}
    hyper = write_json(tmp_path / "hyper.json", dict(
        BASE, service={"family": "hyperexp", "rate1": 0.5, "rate2": 2.0},
        pde=small_pde))
    periodic = write_json(tmp_path / "periodic.json", {
        "arrival": {"kind": "periodic", "mean_rate": 0.6, "delta": 0.3,
                    "period": 2.0},
        "service": {"family": "exponential"},
        "pde": {"L0": 5, "R0": 8.0, "delta": 0.02, "horizon": 1.0},
    })
    gamma = write_json(tmp_path / "gamma.json", dict(
        BASE, service={"family": "gamma", "shape": 2.0},
        init={"kind": "stationary_ages"},
        sim=dict(BASE["sim"], n=10, replications=2)))
    lognormal = write_json(tmp_path / "lognormal.json", dict(
        BASE, service={"family": "lognormal", "sigma": 0.5}, pde=small_pde))
    runs = [["solve-pde", "--config", hyper, "--out", str(tmp_path / "a")],
            ["effective-rate", "--config", periodic,
             "--out", str(tmp_path / "b")],
            ["simulate", "--config", gamma, "--out", str(tmp_path / "c")],
            ["solve-pde", "--config", lognormal,
             "--out", str(tmp_path / "d")]]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    after_import, after_verbs, after_lognormal = json.loads(
        proc.stdout.splitlines()[-1])
    assert after_import == []
    assert after_verbs == []
    # positive control: a special-function law does load scipy.special
    assert "scipy.special" in after_lognormal


def test_bench_tracer_installs():
    # the benchmark's tracer wraps public calls of every layer by name;
    # renaming one of them must fail here, not only in a traced run
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "from tracer import Tracer, install; install(Tracer())")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "bench"),
                           str(root / "src")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_spans_one_run_per_replication(tmp_path, monkeypatch):
    # the benchmark's traced Monte Carlo check counts one simulator.run
    # span per replication and reads its arrivals, and its events are the
    # arrivals plus the departures; replications run in other processes
    # would leave their spans out of the trace
    root = Path(__file__).resolve().parents[1]
    cfg = write_json(tmp_path / "s.json", BASE)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "tracer.py"), str(spans_path),
         "--", "simulate", "--config", cfg, "--out", str(tmp_path / "traced")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    traced = [(span[4]["arrivals"], span[4]["departures"]) for span in spans
              if span[0] == "simulator.run"]

    results = []
    plain_run = simulator.run

    def recording_run(*args, **kwargs):
        results.append(plain_run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(simulator, "run", recording_run)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(results) == BASE["sim"]["replications"]
    assert traced == [(res.arrivals, res.departures) for res in results]
    assert all(departures > 0 for _, departures in traced)
