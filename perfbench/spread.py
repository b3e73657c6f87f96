#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, raw and calibrated.

    python3 perfbench/spread.py --workload serve --runs 10 --seconds 24

Runs ``run.py`` once per seed (``--first-seed`` onwards), then prints
for each end-to-end metric the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), for the
calibrated value the benchmark reports and for the raw value beside it,
with the metric's bound from ``BENCHMARK.json``.  Each run's result is
appended to ``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def one_run(workload: str, seed: int, seconds: float) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}, exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    result = json.loads(lines[-1])
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "result": result,
            "detail": detail}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        row = one_run(args.workload, seed, seconds)
        runs.append(row)
        with open(log, "a") as fh:
            fh.write(json.dumps(row) + "\n")
        print(f"seed {seed}: {row['wall_s']:.1f} s, correct={row['result']['correct']}, "
              f"failed={row['result']['failed']}", flush=True)
    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s; wall "
          f"{min(r['wall_s'] for r in runs):.1f}-{max(r['wall_s'] for r in runs):.1f} s")
    print(f"{'metric':<17}{'median':>12}{'IQR/med':>9}{'raw median':>12}{'raw IQR/med':>12}"
          f"{'bound':>7}  verdict")
    for name, bound in bounds.items():
        cal = [r["result"]["metrics"][name]["value"] for r in runs]
        raw = [r["detail"]["raw"][name] for r in runs]
        med, s = spread(cal)
        rmed, rs = spread(raw)
        verdict = "-" if name == "setup_s" else ("ok" if s < bound / 3 else
                                                  "within bound" if s <= bound else "TOO NOISY")
        print(f"{name:<17}{med:>12.4g}{s:>9.3f}{rmed:>12.4g}{rs:>12.3f}{bound:>7.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
