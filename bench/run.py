"""fluidlb benchmark: CLI verbs timed end to end, or per layer when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
./src, and run-time files go to bench/out/.  One operation is one fresh
`python3 -m fluidlb VERB` process.  Operations run one at a time, in whole
rounds, until S seconds have passed.  With --trace 0 a round is one cold
set-up probe (bench/setup_probe.py) then one plain run, and the metrics are
the end-to-end ones of BENCHMARK.json, each the median over the run.  With
--trace 1 a round is a plain run then a traced run (bench/tracer.py), and
the metrics are the per-layer ones.  Every run's outputs must be
byte-identical, and the first is checked by bench/checks.py.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import layers

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"
# a run must end within 180 s; no single operation may take most of that
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    verb: str
    document: Callable[[int], dict]     # seed -> scenario document
    flags: Callable[[int], list]        # seed -> extra verb arguments
    check: Callable


def _pde_slices(seed):
    # README mesh; deterministic, so the seed does not enter
    return {"name": "pde_slices",
            "arrival": {"kind": "constant", "rate": 0.5},
            "service": {"family": "hyperexp", "rate1": 0.5, "rate2": 2.0},
            "d": 2, "init": {"kind": "fixed", "jobs_per_queue": 1},
            "pde": {"L0": 8, "R0": 20.0, "delta": 2e-3, "horizon": 10.0,
                    "output_times": [1.0, 5.0, 10.0]}}


def _mc_stationary(seed):
    return {"name": "mc_stationary",
            "arrival": {"kind": "constant", "rate": 0.7},
            "service": {"family": "gamma", "shape": 2.0},
            "d": 2, "init": {"kind": "stationary_ages"},
            "sim": {"n": 1000, "replications": 40, "seed": seed,
                    "sample_times": {"start": 1.0, "stop": 10.0, "step": 1.0},
                    "max_level": 3}}


def _effective_rate(seed):
    # deterministic; pde.horizon is required by the schema, unused by the verb
    return {"name": "effective_rate",
            "arrival": {"kind": "periodic", "mean_rate": 0.7, "delta": 0.35,
                        "period": 2.0},
            "service": {"family": "exponential"}, "d": 2,
            "pde": {"L0": 10, "R0": 20.0, "delta": 5e-3, "horizon": 10.0}}


WORKLOADS = {
    "pde_slices": Workload("solve-pde", _pde_slices, lambda seed: [],
                           checks.pde_slices),
    "mc_stationary": Workload("simulate", _mc_stationary,
                              lambda seed: ["--seed", str(seed)],
                              checks.mc_stationary),
    "effective_rate": Workload(
        "effective-rate", _effective_rate,
        lambda seed: ["--tolerance", repr(checks.EFFECTIVE_RATE_TOL)],
        checks.effective_rate),
}


@dataclass
class Outcome:
    wall_s: float
    peak_rss_mb: float
    code: int


def launch(cmd, log: Path) -> Outcome:
    """Run one child to its end; wall time from spawn to exit, peak RSS of
    that child alone (wait4)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            reaped = True
        finally:
            watchdog.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def digest(directory: Path) -> tuple[str, int]:
    """Hash and total size of the files a verb wrote."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


class Run:
    """The operations of one benchmark run and what they left behind."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.doc = self.workload.document(seed)
        self.seed = seed
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.scenario = self.dir / "scenario.json"
        self.scenario.write_text(json.dumps(self.doc, indent=2) + "\n",
                                 encoding="utf-8")
        self.count = 0
        self.failed = 0
        self.reference = None       # (output dir, digest) of the first run
        self.mismatches = 0
        self.plain: list[Outcome] = []
        self.traced: list[Outcome] = []
        self.traces: list[dict] = []
        self.bytes_written = 0

    def setup(self) -> float:
        """One cold set-up: a new interpreter imports fluidlb.cli, parses
        the scenario and builds its service distribution."""
        log = self.dir / "setup.log"
        res = launch([sys.executable, str(BENCH / "setup_probe.py"),
                      str(self.scenario)], log)
        text = log.read_text(encoding="utf-8", errors="replace")
        if res.code != 0 or str(SRC / "fluidlb") not in text:
            raise SystemExit(f"set-up failed (exit {res.code}):\n{text}")
        return res.wall_s

    def operation(self, traced: bool):
        self.count += 1
        op = self.dir / f"{self.count:03d}"
        csv_dir = op / "csv"
        csv_dir.mkdir(parents=True)
        argv = [self.workload.verb, "--config", str(self.scenario),
                "--out", str(csv_dir), *self.workload.flags(self.seed)]
        spans = op / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans),
                   "--", *argv]
        else:
            cmd = [sys.executable, "-m", "fluidlb", *argv]
        res = launch(cmd, op / "log.txt")
        if res.code != 0:
            self.failed += 1
            print(f"  operation {self.count} failed, exit {res.code}; see "
                  f"{op / 'log.txt'}", flush=True)
            return
        sig, size = digest(csv_dir)
        if self.reference is None:
            self.reference = (csv_dir, sig)
        elif sig != self.reference[1]:
            self.mismatches += 1
        else:
            shutil.rmtree(csv_dir)
        if traced:
            self.traced.append(res)
            self.traces.append(json.loads(spans.read_text(encoding="utf-8")))
            self.bytes_written = size
        else:
            self.plain.append(res)
        print(f"  {'traced' if traced else 'plain '} {self.count:3d}: "
              f"{res.wall_s:8.3f} s  {res.peak_rss_mb:7.1f} MiB", flush=True)

    def check(self) -> bool:
        if self.reference is None:
            print("  check: no operation succeeded", flush=True)
            return False
        ok = True
        if self.mismatches:
            print(f"  check: {self.mismatches} operation(s) wrote output that "
                  "differs from the first", flush=True)
            ok = False
        arrivals = [layers.arrival_counts(t) for t in self.traces]
        summary, failures = self.workload.check(self.reference[0], self.doc,
                                                arrivals)
        print(f"  check: {summary}", flush=True)
        for line in failures:
            print(f"  check FAILED: {line}", flush=True)
        return ok and not failures


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fluidlb" / "cli.py").is_file():
        print(f"error: no fluidlb sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))     # the Monte Carlo check's fluid solve
    units = declared_metrics(bool(args.trace))

    run = Run(args.workload, args.seed)
    print(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}", flush=True)
    setups = []
    start = time.perf_counter()
    while True:
        if not args.trace:
            setups.append(run.setup())
        run.operation(traced=False)
        if args.trace:
            run.operation(traced=True)
        if time.perf_counter() - start >= args.seconds:
            break
    correct = run.check()

    if not run.plain or (args.trace and not run.traced):
        print("error: no successful operation to take metrics from",
              file=sys.stderr)
        return 1
    plain_wall = statistics.median(r.wall_s for r in run.plain)
    if args.trace:
        per_run = [layers.layer_metrics(t, run.bytes_written)
                   for t in run.traces]
        values = {k: statistics.median(m[k] for m in per_run)
                  for k in per_run[0]}
        values["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in run.traced) - plain_wall)
    else:
        values = {"wall_s": plain_wall,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r.peak_rss_mb
                                                   for r in run.plain)}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1
    result = {"correct": correct, "attempted": run.count,
              "failed": run.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
