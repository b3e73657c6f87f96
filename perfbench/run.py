#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload build --seed 1 --seconds 40 --trace 0

Runs set-up, then the four user paths (offline build, batched query,
HTTP request, commit-to-visible) for ``--seconds``, checks every answer,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, calibrated for host speed (``calibration.py``);
``--trace 1`` reports the per-layer metrics from a run that measures
untraced for half the time and traced for the other half, and writes
its spans to ``perfbench/out/trace-<workload>-<seed>.json``.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("build", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time, split between the four paths")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def stop_children(timeout: float = 30.0) -> None:
    """Stop every child process still running and wait for each to end.

    The frontier-mp build's shared-memory arenas start multiprocessing's
    resource tracker as a child of this process.  It ignores SIGTERM and
    exits only once its pipe is closed, which would otherwise happen when
    this process exits, leaving it to end unreaped after the benchmark.
    Closing the pipe here lets it unlink anything left and exit.  Any
    child still alive after ``timeout`` seconds is killed; all are reaped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = tracker._pid = None
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in children():
                os.kill(pid, signal.SIGKILL)
        time.sleep(0.01)


def children() -> list:
    """Process ids whose parent is this process."""
    me, out = os.getpid(), []
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # ended meanwhile
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(name))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import runner

    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    finally:
        stop_children()
    for key in ("env", "detail", "failures"):
        print(f"# {key} " + json.dumps(result[key]), flush=True)
    tally = result["tally"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
