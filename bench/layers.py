"""Per-layer metrics from the span dump of one traced run (see tracer.py).

A layer's self time is its spans' duration minus the part covered by their
child spans.  Every metric is reported on every workload; a layer that does
not run on a workload reads 0 there.
"""

from __future__ import annotations

# Least memory traffic of one fluid step: the levels x columns float64 grid
# read once and written once.  A computed figure, not a measured one.
FLUID_BYTES_PER_CELL_STEP = 16


def _ratio(num, den):
    return num / den if den else 0.0


class Spans:
    def __init__(self, spans):
        self.spans = spans
        self.covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                self.covered[parent] += end - start

    def _select(self, name):
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def count(self, name) -> int:
        return len(self._select(name))

    def total(self, name) -> float:
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._select(name))

    def self_time(self, name) -> float:
        return self.total(name) - sum(self.covered[i]
                                      for i in self._select(name))

    def extra(self, name, key) -> int:
        return sum(self.spans[i][4][key] for i in self._select(name))


def layer_metrics(dump: dict, bytes_written: int) -> dict[str, float]:
    """Metric name -> value for one traced run.

    `dump` is what tracer.py wrote; `bytes_written` is the size of the files
    the verb left in its output directory.
    """
    sp = Spans(dump["spans"])
    solve_s = sp.self_time("fluid.solve")
    steps = sp.extra("fluid.solve", "steps")
    cell_steps = sum(span[4]["steps"] * span[4]["cells"]
                     for span in sp.spans if span[0] == "fluid.solve")
    events = (sp.extra("simulator.run", "arrivals")
              + sp.extra("simulator.run", "departures"))
    draws = sp.extra("distributions.stationary_age", "draws")
    # verb time outside every traced call: argument handling and output
    write_s = sp.self_time("cli.main")
    return {
        "fluid.solve_s": solve_s,
        "fluid.solve_calls": sp.count("fluid.solve"),
        "fluid.steps": steps,
        "fluid.ns_per_cell_step": 1e9 * _ratio(solve_s, cell_steps),
        "fluid.us_per_step": 1e6 * _ratio(solve_s, steps),
        "fluid.computed_gb_per_s": 1e-9 * _ratio(
            FLUID_BYTES_PER_CELL_STEP * cell_steps, solve_s),
        "metrics.wait_calls": sp.count("metrics.wait"),
        "metrics.wait_s": sp.total("metrics.wait"),
        "metrics.periodic_average_s": sp.total("metrics.periodic_average"),
        "metrics.plateau_calls": sp.count("metrics.plateau"),
        "metrics.plateau_s": sp.total("metrics.plateau"),
        "simulator.events": events,
        "simulator.run_s": sp.total("simulator.run"),
        # run() self time excludes the expected_virtual_wait probes
        "simulator.us_per_event": 1e6 * _ratio(sp.self_time("simulator.run"),
                                               events),
        "simulator.init_s": sp.total("simulator.init"),
        "simulator.wait_probe_s": sp.total("simulator.wait_probe"),
        "distributions.stationary_age_draws": draws,
        "distributions.us_per_stationary_age": 1e6 * _ratio(
            sp.total("distributions.stationary_age"), draws),
        "distributions.construct_s": sp.total("distributions.construct"),
        "cli.import_s": dump["import_s"],
        "scenario.parse_s": sp.total("scenario.parse"),
        "cli.write_s": write_s,
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": 1e-6 * _ratio(bytes_written, write_s),
    }


def arrival_counts(dump: dict) -> list[int]:
    """Arrivals of each Monte Carlo replication, in run order."""
    return [span[4]["arrivals"] for span in dump["spans"]
            if span[0] == "simulator.run"]
