"""Steadiness of the benchmark: each workload run repeatedly, one seed per
run, and each metric's median and quartiles set against its bound.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--trace 0|1]

Runs `bench/run.py` one run at a time on every workload of BENCHMARK.json,
with its run length, taking the workloads in turn for each seed.  The
spread is the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median; an end-to-end metric
is steady when its spread is within a third of its bound.
Every run's result goes to bench/out/steady-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} with no "
                         f"result:\n{proc.stdout}{proc.stderr}") from None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound")
              for m in spec["end_to_end"] + spec["per_layer"]}

    # Round-robin over the workloads, so that a slow spell of the machine,
    # which can last minutes, falls on every workload alike.
    results = {w["name"]: [] for w in spec["workloads"]}
    for k in range(args.runs):
        seed = args.first_seed + k
        for workload, runs in results.items():
            res = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct {res['correct']}, "
                  f"{res['failed']}/{res['attempted']} failed", flush=True)

    steady = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {args.runs} runs, failed share "
              f"{sorted(shares)}, all correct "
              f"{all(r['correct'] for r in runs)}")
        steady &= len(shares) == 1 and all(r["correct"] for r in runs)
        print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = spread <= bound / 3
                steady &= ok
                verdict = "steady" if ok else "NOT STEADY"
            print(f"  {name:38s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{verdict}")
        print(flush=True)
    out = ROOT / "bench" / "out" / f"steady-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
