"""One benchmark run: set-up, the four paths, checks and metrics."""

from __future__ import annotations

import math
import time
from typing import Any, Dict, Tuple

import layers
import phases as ph
from calibration import Calibrator, Samples, median, midmean, percentile
from spans import SpanRecorder

#: Set-up repetitions whose median is ``setup_s`` (one in the traced run).
SETUP_REPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "build_mp_s": "s",
    "index_build_s": "s",
    "query_pts_per_s": "pts/s",
    "http_rps": "req/s",
    "http_p50_ms": "ms",
    "commit_p50_ms": "ms",
    "commit_p90_ms": "ms",
}
#: Measured like the end-to-end metrics but reported per layer, without a
#: bound: over ten seeds its spread (IQR/median 0.22 on ``build``) was
#: too wide for a regression gate, because roughly 1% of fresh-query
#: requests meet the server's slow episodes and p99 sits on that edge.
TAIL_UNITS = {"http_p99_ms": "ms"}
PATH_UNITS = {**E2E_UNITS, **TAIL_UNITS}
RATES = ("query_pts_per_s", "http_rps")
#: Reported raw.  Client and server run in two processes and the server's
#: batching window sets much of the latency, so host speed moves these
#: less than it moves the calibration loop: over two ten-seed sets their
#: raw spread was 0.010-0.045 and their calibrated spread 0.054-0.146.
UNCALIBRATED = ("http_rps", "http_p50_ms", "http_p99_ms")

#: Layers whose self time the traced run reports (``self_s.<layer>``).
SELF_LAYERS = ("bench", "core", "core.frontier", "separators", "parallel", "core.online",
               "serve", "serve.index", "net")

PER_LAYER_UNITS: Dict[str, str] = {
    "separators.find_ms": "ms",
    "separators.attempts_per_node": "ratio",
    **{f"kernels.{op}.ns_per_elem": "ns" for op in layers.KERNEL_OPS},
    "core.frontier.levels": "count",
    "core.frontier.level_s": "s",
    "core.nodes": "count",
    "core.corrections_fast": "count",
    "core.punts": "count",
    "pvm.work": "count",
    "pvm.depth": "count",
    "parallel.copyin_s": "s",
    "parallel.dispatch_s": "s",
    "parallel.collect_s": "s",
    "parallel.busy_s": "s",
    "parallel.utilization": "ratio",
    "parallel.subtrees": "count",
    "parallel.dispatch_bytes": "bytes",
    "parallel.result_bytes": "bytes",
    "parallel.pool_start_ms": "ms",
    "serve.execute_ms": "ms",
    "core.query.knn_query_ms": "ms",
    "serve.batcher_self_ms": "ms",
    "serve.cache_hit_rate": "ratio",
    "serve.query_repeat_share": "ratio",
    "net.server_request_ms.p50": "ms",
    "net.server_request_ms.p99": "ms",
    "net.queue_wait_ms.p50": "ms",
    "net.batch_ms.p50": "ms",
    "net.batch_size.mean": "count",
    "net.window_ms": "ms",
    "net.client_gap_ms.p50": "ms",
    "net.client_gap_ms.p99": "ms",
    "core.online.commit_ms.p50": "ms",
    "core.online.reused_fraction": "ratio",
    "core.online.absorbed_fraction": "ratio",
    "pvm.commit_work": "count",
    "serve.snapshot_ms": "ms",
    "serve.swap_ms": "ms",
    "serve.layout_build_ms": "ms",
    "obs.trace_overhead": "ratio",
    "calib_ms": "ms",
    **TAIL_UNITS,
    **{f"raw.{name}": unit for name, unit in PATH_UNITS.items()},
    **{f"self_s.{layer}": "s" for layer in SELF_LAYERS},
    "ops": "count",
    "failed_ops": "count",
}


class Run:
    """Set-up state and the path loop shared by both run kinds."""

    def __init__(self, wl: ph.Workload, seed: int, seconds: float, out_dir: str) -> None:
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.cal = Calibrator()
        self.tally = ph.Tally()
        self.rng = ph.seeded_rng(seed, 10)
        self.stack: Any = None

    def set_up(self, reps: int) -> Samples:
        samples = Samples()
        for _ in range(reps):
            self.close()
            self.stack, raw, bracket = self.cal.timed(
                lambda: ph.set_up(self.wl, self.seed, self.out_dir, self.tally))
            samples.add(raw, bracket)
        return samples

    def paths(self, rec: Any, budget: float) -> tuple:
        """Interleave repetitions of the four paths for ``budget`` seconds.

        The next repetition always goes to the path furthest below its
        share of the time spent so far, so every path samples the whole
        run rather than one stretch of it; each path also runs at least
        ``MIN_REPS`` repetitions.  Returns the four records.
        """
        st, traced = self.stack, isinstance(rec, SpanRecorder)
        build, query, http, churn = ph.BuildRecord(), Samples(rate=True), ph.HttpRecord(), \
            ph.ChurnRecord()
        tag = f"{self.wl.name}-{self.seed}-{'t' if traced else 'u'}"
        steps = {
            "build": lambda: ph.build_cycle(st, self.seed, self.cal, rec, self.tally, build,
                                            traced),
            "query": lambda: ph.query_block(st, self.cal, rec, self.tally, query, self.rng),
            "http": lambda: ph.http_block(st, self.cal, rec, self.tally, http, self.rng, tag),
            "churn": lambda: ph.churn_round(st, self.cal, rec, self.tally, churn, self.rng),
        }
        shares = self.wl.shares
        spent = dict.fromkeys(steps, 0.0)
        reps = dict.fromkeys(steps, 0)
        end = time.perf_counter() + budget
        while True:
            short = [name for name in steps if reps[name] < ph.MIN_REPS[name]]
            if time.perf_counter() >= end:
                if not short:
                    break
                candidates = short
            else:
                candidates = list(steps)
            name = min(candidates, key=lambda n: spent[n] / shares[n])
            t0 = time.perf_counter()
            steps[name]()
            spent[name] += time.perf_counter() - t0
            reps[name] += 1
        return build, query, http, churn

    def close(self) -> None:
        if self.stack is not None:
            self.stack.close()
            self.stack = None


def e2e_metrics(setup: Samples, build, query: Samples, http, churn) -> tuple:
    """Reported end-to-end values (calibrated except ``UNCALIBRATED``),
    raw values, and sample counts."""

    out: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    count: Dict[str, int] = {}
    for name, samples in (("setup_s", setup), ("build_s", build.frontier),
                          ("build_mp_s", build.mp), ("index_build_s", build.index),
                          ("query_pts_per_s", query), ("http_rps", http.rps)):
        out[name] = midmean(samples.scaled())
        raw[name] = midmean(samples.raw)
        count[name] = len(samples)
    for name, samples, p in (("http_p50_ms", http.latencies, 50),
                             ("http_p99_ms", http.latencies, 99),
                             ("commit_p50_ms", churn.latencies, 50),
                             ("commit_p90_ms", churn.latencies, 90)):
        out[name] = percentile(samples.scaled(), p) * 1e3
        raw[name] = percentile(samples.raw, p) * 1e3
        count[name] = len(samples)
    out.update({name: raw[name] for name in UNCALIBRATED})
    return out, raw, count


def _traced_half(run: Run, setup: Samples) -> Tuple[Dict[str, float], SpanRecorder,
                                                     Dict[str, float]]:
    st = run.stack
    untraced_e2e, untraced_raw, _ = e2e_metrics(
        setup, *run.paths(ph.NullRecorder(), run.seconds / 2))

    rec = SpanRecorder(run.wl.name)
    timed_exec = ph.TimedExecutor(st.serving, rec)

    def scrape() -> layers.Scrape:
        return layers.Scrape(ph.http_get(st.port, "/metrics"))

    before = scrape()
    batches = st.batcher.stats.batches
    hits, misses = st.batcher.cache.hits, st.batcher.cache.misses
    st.batcher.executor = timed_exec
    build, query, http, churn = run.paths(rec, run.seconds / 2)
    st.batcher.executor = st.serving.execute
    batches = st.batcher.stats.batches - batches
    after = scrape()
    traced_e2e, _, _ = e2e_metrics(setup, build, query, http, churn)

    # traced / untraced time, rates inverted, as a geometric mean over
    # the path metrics (set-up is not traced)
    logs = []
    for name, value in traced_e2e.items():
        if name != "setup_s":
            ratio = value / untraced_e2e[name]
            logs.append(-math.log(ratio) if name in RATES else math.log(ratio))

    serial, multi = build.last["serial"], build.last["multi"]
    block_ms = sum(ph.QUERY_BLOCK / r for r in query.raw) * 1e3
    m: Dict[str, float] = {}
    m["separators.find_ms"] = layers.separator_probe(st.inputs.build, run.seed)
    m.update(layers.build_layer_metrics(serial, multi, serial.machine.tracer))
    m.update(layers.kernel_probe(run.wl.n_build, run.wl.d, ph.K, run.seed))
    m["parallel.pool_start_ms"] = layers.pool_start_probe(ph.nproc())
    m["serve.execute_ms"] = median(timed_exec.ms)
    m["core.query.knn_query_ms"] = layers.knn_query_probe(
        st.serving, st.queries.draw(ph.MAX_BATCH), ph.K)
    m["serve.batcher_self_ms"] = (block_ms - sum(timed_exec.ms)) / max(1, batches)
    hits = st.batcher.cache.hits - hits
    m["serve.cache_hit_rate"] = hits / (hits + st.batcher.cache.misses - misses)
    m["serve.query_repeat_share"] = st.queries.repeat_share
    m.update(layers.net_metrics(before, after,
                                [s * 1e3 for s in http.latencies.raw]))
    m["core.online.commit_ms.p50"] = median(churn.commit_ms)
    m["core.online.reused_fraction"] = sum(churn.reused) / len(churn.reused)
    m["core.online.absorbed_fraction"] = sum(churn.absorbed) / len(churn.absorbed)
    m["pvm.commit_work"] = median(churn.work)
    m["serve.snapshot_ms"] = median(churn.snapshot_ms)
    m["serve.swap_ms"] = median(churn.swap_ms)
    m["serve.layout_build_ms"] = median(churn.layout_ms)
    m["obs.trace_overhead"] = math.exp(sum(logs) / len(logs))
    m["calib_ms"] = median(run.cal.samples_ms)
    m.update({name: untraced_e2e[name] for name in TAIL_UNITS})
    m.update({f"raw.{name}": v for name, v in untraced_raw.items()})
    self_s = rec.self_seconds_by_layer()
    m.update({f"self_s.{layer}": self_s.get(layer, 0.0) for layer in SELF_LAYERS})
    return m, rec, self_s


def run(workload: str, seed: int, seconds: float, traced: bool, out_dir: str) -> Dict[str, Any]:
    wl = ph.WORKLOADS[workload]
    env = ph.environment(wl, seed)
    r = Run(wl, seed, seconds, out_dir)
    detail: Dict[str, Any] = {}
    try:
        setup = r.set_up(1 if traced else SETUP_REPS)
        if traced:
            values, rec, self_s = _traced_half(r, setup)
            detail["self_s"] = self_s
        else:
            records = r.paths(ph.NullRecorder(), seconds)
            e2e, raw, count = e2e_metrics(setup, *records)
            values = e2e
            detail.update({"raw": raw, "samples": count,
                           "tail": {name: e2e[name] for name in TAIL_UNITS},
                           "calib_ms": median(r.cal.samples_ms)})
        ph.churn_final_check(r.stack, r.tally)
    finally:
        r.close()
    if traced:
        values["ops"] = float(r.tally.ops)
        values["failed_ops"] = float(r.tally.failed)
        units = PER_LAYER_UNITS
        rec.write(f"{out_dir}/trace-{workload}-{seed}.json",
                  {"env": env, "metrics": values, "self_seconds": self_s})
    else:
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail["calib_samples"] = len(r.cal.samples_ms)
    return {"env": env, "detail": detail, "failures": r.tally.notes, "tally": r.tally,
            "metrics": metrics}
