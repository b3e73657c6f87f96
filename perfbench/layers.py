"""Per-layer measurements taken from outside the program.

Each probe calls a public function of one layer, or reads what the
program already exports: the build's stats and ledger, the metrics
registry of a frontier-mp build, and the Prometheus text the net server
serves on ``/metrics``.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.kernels.bench import run_kernel_bench
from repro.parallel import WorkerPool
from repro.pvm import Machine
from repro.separators import find_good_separator

from calibration import median

KERNEL_OPS = ("sphere_side", "classify_level_spheres", "segmented_split_sides",
              "block_topk", "merge_candidate_stream")

_PROM_LINE = re.compile(r'^(\w+)\{key="([^"]+)"(?:,le="([^"]+)")?\} (\S+)$')


def _timed_ms(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def separator_probe(points: np.ndarray, seed: int) -> float:
    """ms for ``find_good_separator`` on the root point set."""
    return _timed_ms(lambda: find_good_separator(points, Machine(), seed=seed))


def kernel_probe(n: int, d: int, k: int, seed: int) -> Dict[str, float]:
    rows = run_kernel_bench(n=n, d=d, k=k, repeats=3, backends=["numpy"], seed=seed,
                            include_descend=False)
    by_op = {row["op"]: row["ns_per_element"] for row in rows}
    return {f"kernels.{op}.ns_per_elem": by_op[op] for op in KERNEL_OPS}


def pool_start_probe(workers: int) -> float:
    """ms to start and close a bare ``WorkerPool``."""

    def start_close() -> None:
        WorkerPool(workers).close()

    return _timed_ms(start_close)


def knn_query_probe(index, queries: np.ndarray, k: int) -> float:
    """ms for ``knn_query`` on one batch, on the serving index's layout."""
    return _timed_ms(lambda: repro.knn_query(index.tree, index.points, queries, k,
                                             layout=index.layout), repeats=5)


def build_layer_metrics(serial, multi, tracer) -> Dict[str, float]:
    """Counts and level walls of the serial build, the mp build's metrics."""
    levels = [s for root in tracer.roots for _, s in root.walk() if s.name == "frontier.level"]
    stats = serial.stats
    met = multi.machine.metrics
    return {
        "separators.attempts_per_node": stats.separator_attempts / stats.nodes,
        "core.frontier.levels": float(len(levels)),
        "core.frontier.level_s": sum(s.wall_seconds for s in levels),
        "core.nodes": float(stats.nodes),
        "core.corrections_fast": float(stats.corrections_fast),
        "core.punts": float(stats.punts),
        "pvm.work": float(serial.cost.work),
        "pvm.depth": float(serial.cost.depth),
        "parallel.copyin_s": met.gauge("parallel.copyin_seconds"),
        "parallel.dispatch_s": met.gauge("parallel.dispatch_seconds"),
        "parallel.collect_s": met.gauge("parallel.collect_seconds"),
        "parallel.busy_s": met.counter("parallel.busy_seconds"),
        "parallel.utilization": met.gauge("parallel.utilization"),
        "parallel.subtrees": met.gauge("parallel.subtrees"),
        "parallel.dispatch_bytes": met.counter("parallel.dispatch_bytes"),
        "parallel.result_bytes": met.counter("parallel.result_bytes"),
    }


# -- /metrics scraping ------------------------------------------------------


class Scrape:
    """Counters, gauges and histogram buckets of one ``/metrics`` text."""

    def __init__(self, text: str) -> None:
        self.values: Dict[Tuple[str, str], float] = {}
        self.buckets: Dict[str, List[Tuple[float, float]]] = {}
        for line in text.splitlines():
            m = _PROM_LINE.match(line)
            if m is None:
                continue
            name, key, le, value = m.group(1), m.group(2), m.group(3), float(m.group(4))
            if le is not None:
                self.buckets.setdefault(key, []).append((float(le), value))
            else:
                suffix = name.rsplit("_", 1)[-1] if name.endswith(("_total", "_count", "_sum")) else ""
                self.values[(key, suffix)] = value

    def get(self, key: str, suffix: str = "") -> float:
        return self.values.get((key, suffix), 0.0)


def _quantile(buckets: List[Tuple[float, float]], q: float) -> Optional[float]:
    """Quantile of a (cumulative) bucket list, linear within the bucket."""
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return None
    target = q * total
    prev_le, prev_c = 0.0, 0.0
    for le, c in buckets:
        if c >= target:
            if le == float("inf"):
                return prev_le
            if c == prev_c:
                return le
            return prev_le + (le - prev_le) * (target - prev_c) / (c - prev_c)
        prev_le, prev_c = le, c
    return prev_le


def _diff_buckets(after: Scrape, before: Scrape, key: str) -> List[Tuple[float, float]]:
    old = dict(before.buckets.get(key, []))
    return [(le, c - old.get(le, 0.0)) for le, c in after.buckets.get(key, [])]


def net_metrics(before: Scrape, after: Scrape, client_ms: List[float]) -> Dict[str, float]:
    """Server-side view of the HTTP phase between two scrapes."""
    req = _diff_buckets(after, before, "net.request_ms")
    p50 = _quantile(req, 0.5) or 0.0
    p99 = _quantile(req, 0.99) or 0.0
    batches = after.get("serve.batches", "total") - before.get("serve.batches", "total")
    served = after.get("serve.served", "total") - before.get("serve.served", "total")
    ticks = after.get("net.window_ticks", "count") - before.get("net.window_ticks", "count")
    tick_sum = after.get("net.window_ticks", "sum") - before.get("net.window_ticks", "sum")
    window = tick_sum / ticks if ticks > 0 else after.get("net.window_ms")
    client_sorted = sorted(client_ms)
    c50 = client_sorted[len(client_sorted) // 2]
    c99 = client_sorted[min(len(client_sorted) - 1, int(0.99 * len(client_sorted)))]
    return {
        "net.server_request_ms.p50": p50,
        "net.server_request_ms.p99": p99,
        "net.queue_wait_ms.p50": _quantile(_diff_buckets(after, before, "serve.queue_wait_ms"),
                                           0.5) or 0.0,
        "net.batch_ms.p50": _quantile(_diff_buckets(after, before, "serve.batch_ms"), 0.5) or 0.0,
        "net.batch_size.mean": served / batches if batches > 0 else 0.0,
        "net.window_ms": window,
        "net.client_gap_ms.p50": c50 - p50,
        "net.client_gap_ms.p99": c99 - p99,
    }
