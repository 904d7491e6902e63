"""Traced run of the fluidlb command line, for the per-layer metrics.

    python3 bench/tracer.py SPANS_JSON -- VERB [ARGS...]

Times `import fluidlb.cli`, wraps the public calls of each layer listed in
`install` in spans, runs `fluidlb.cli.main([VERB, ARGS...])` and then writes
the spans, kept in memory until the verb returns, to SPANS_JSON.  A span is
`[name, start_s, end_s, parent, extra]`: `parent` is the index of the span
open when it began (-1 at the root) and `extra` holds counts read from the
call's arguments or result.  The exit code is the verb's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.perf_counter


class Tracer:
    """Spans of nested calls, in the order they began."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, func, args=(), kwargs=None, extra=None):
        kwargs = kwargs or {}
        span = [name, clock(), None, self._open[-1] if self._open else -1,
                None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = func(*args, **kwargs)
        finally:
            span[2] = clock()
            self._open.pop()
        if extra is not None:
            span[4] = extra(args, result)
        return result

    def wrap(self, name, owners, attr, extra=None):
        """Replace `attr` on every owner (a module or class that binds the
        same callable) by a traced version of it."""
        inner = getattr(owners[0], attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            return self.call(name, inner, args, kwargs, extra)

        for owner in owners:
            setattr(owner, attr, traced)


def _solve_counts(args, traj):
    solver = args[0]
    return {"steps": int(traj.times.size) - 1,
            "cells": solver.levels * solver.cols}


def _run_counts(args, result):
    return {"arrivals": result.arrivals, "departures": result.departures}


def _draw_count(args, result):
    return {"draws": int(getattr(result, "size", 1))}


def install(tracer: Tracer):
    """Wrap the layer boundaries the per-layer metrics are read from.

    Names imported with `from ... import` are wrapped where the caller
    looks them up (`fluidlb.cli` for the verb's own calls)."""
    from fluidlb import cli, distributions, fluid, metrics, scenario, simulator

    wrap = tracer.wrap
    wrap("scenario.parse", [cli], "parse_scenario")
    wrap("distributions.construct", [distributions, scenario],
         "distribution_from_config")
    wrap("distributions.stationary_age", [distributions.ServiceDistribution],
         "sample_stationary_age", _draw_count)
    wrap("validation.fluid_parts", [cli], "fluid_parts")
    wrap("fluid.solve", [fluid.FluidSolver], "solve", _solve_counts)
    # FluidSolver.solve imports mean_virtual_wait from fluidlb.metrics per call
    wrap("metrics.wait", [metrics], "mean_virtual_wait")
    solver = metrics.EffectiveRateSolver
    wrap("metrics.effective_rate", [solver], "effective_rate")
    wrap("metrics.periodic_average", [solver], "periodic_average")
    wrap("metrics.plateau", [solver], "plateau")
    wrap("simulator.ensemble", [cli], "ensemble")
    wrap("simulator.init", [simulator], "initial_network")
    wrap("simulator.run", [simulator], "run", _run_counts)
    wrap("simulator.wait_probe", [simulator.Network], "expected_virtual_wait")


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- VERB [ARGS...]", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    start = clock()
    import fluidlb.cli
    import_s = clock() - start
    tracer = Tracer()
    install(tracer)
    code = tracer.call("cli.main", fluidlb.cli.main, (cli_args,))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "exit": code,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
