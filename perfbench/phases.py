"""Workload inputs and the four user paths the benchmark times.

Every workload runs the same four paths, interleaved, on inputs of its
own (``Workload``):

A. ``build``   -- ``all_knn`` frontier, ``all_knn`` frontier-mp and
   ``build_index`` on the build point set;
B. ``query``   -- closed-loop batched queries through ``serve.Batcher``
   over the serving index;
C. ``http``    -- closed-loop single-point ``POST /v1/query`` over
   keep-alive connections to ``repro net serve`` in its own process;
D. ``churn``   -- small mutation batches committed into a mutable index,
   each swapped into a Batcher and read back at the new version, with
   fresh queries between commits.

Each timed repetition runs after ``gc.collect()`` between two calibration
brackets (``Calibrator.timed``; a churn round puts one bracket between
consecutive commits instead).  Every answer that leaves a timed region
is checked outside it; a mismatch counts in ``Tally.failed``.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import os
import platform
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.core.online import equivalence_report
from repro.pvm import Machine
from repro.serve import Batcher, ResultCache
from repro.workloads import clustered, uniform_cube

from calibration import Calibrator, Samples

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K = 2
MAX_BATCH = 256  # the serving defaults of repro.api.serve and `repro net serve`
CACHE_SIZE = 1024
QUERY_BLOCK = 2048  # queries per Batcher repetition
HTTP_BLOCK = 100  # requests per HTTP repetition
COMMITS_PER_ROUND = 10
QUERIES_BETWEEN_COMMITS = 64
HOT_SET = 512  # repeating queries' distinct points; fits the 1,024-entry cache
#: Share of a repeating stream drawn from the hot set.  Kept below one
#: half so the median request is a cache miss: the median of cache hits
#: is mostly the client's own overhead and drifted 0.13-0.19 (IQR/median)
#: over ten seeds at an 85% share.
REPEAT_SHARE = 0.3
CLUSTER_SPREAD = 0.01  # repro.workloads.clustered's default blob width
BRUTE_SAMPLE = 16
WARM_QUERIES = 4096  # queries that fill the result caches before timing


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dist: str  # "clustered" or "uniform"
    d: int
    n_build: int
    n_serve: int
    n_churn: int
    repeating: bool  # a share of queries repeats a hot set, else all fresh
    shares: Dict[str, float]  # share of --seconds per path


#: Repetitions each path runs even when its share of --seconds is spent:
#: 1,000 HTTP requests so p99 has 10 samples beyond it, 100 commits so
#: p90 has 10.
MIN_REPS = {"build": 10, "query": 10, "http": 10, "churn": 10}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "build",
            "variable-density clustered 3-D points with fresh queries; the offline "
            "builds get the largest share of the run",
            "clustered", 3, 10_000, 4_000, 2_000, False,
            {"build": 0.45, "query": 0.1, "http": 0.15, "churn": 0.3},
        ),
        Workload(
            "serve",
            "uniform 2-D points; 30% of queries repeat a 512-point hot set, so a "
            "result-cache change shows here and not on build",
            "uniform", 2, 4_000, 12_000, 4_000, True,
            {"build": 0.25, "query": 0.2, "http": 0.25, "churn": 0.3},
        ),
    )
}


def blas_threads() -> Any:
    """Thread count of numpy's bundled OpenBLAS (recorded, never set)."""
    import ctypes
    import glob

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def environment(wl: Workload, seed: int) -> Dict[str, Any]:
    """What every result records: inputs, engines and the host."""
    from repro.kernels import resolve_backend

    return {
        "workload": wl.name, "seed": seed, "k": K, "d": wl.d, "distribution": wl.dist,
        "n_build": wl.n_build, "n_serve": wl.n_serve, "n_churn": wl.n_churn, "d_churn": 2,
        "queries": f"{REPEAT_SHARE:.0%} from a {HOT_SET}-point hot set" if wl.repeating
        else "fresh",
        "engines": ["frontier", "frontier-mp", "build_index"], "workers": nproc(),
        "nproc": nproc(), "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": blas_threads(), "kernel_backend": resolve_backend("auto"),
        "repro": repro.__version__,
    }


# -- inputs -----------------------------------------------------------------


def seeded_rng(seed: int, tag: int) -> np.random.Generator:
    """The generator for one input stream of a run: the seed and a fixed tag."""
    return np.random.default_rng([seed, tag])


class QuerySource:
    """Query points: fresh draws, or a stream in which a fixed share
    repeats points from a small hot set (which fits in the result cache)."""

    def __init__(self, dist: str, data: np.ndarray, rng: np.random.Generator,
                 repeating: bool) -> None:
        self.dist = dist
        self.data = data
        self.rng = rng
        self.hot = self._fresh(HOT_SET) if repeating else None
        self.drawn = 0
        self.repeats = 0

    def _fresh(self, m: int) -> np.ndarray:
        if self.dist == "uniform":
            return self.rng.random((m, self.data.shape[1]))
        base = self.data[self.rng.integers(0, self.data.shape[0], size=m)]
        return base + self.rng.standard_normal(base.shape) * CLUSTER_SPREAD

    def draw(self, m: int) -> np.ndarray:
        out = self._fresh(m)
        self.drawn += m
        if self.hot is not None:
            hot = self.rng.random(m) < REPEAT_SHARE
            out[hot] = self.hot[self.rng.integers(0, HOT_SET, size=int(hot.sum()))]
            self.repeats += int(hot.sum())
        return out

    @property
    def repeat_share(self) -> float:
        """Share of drawn queries taken from the hot set."""
        return self.repeats / self.drawn if self.drawn else 0.0


def make_points(dist: str, n: int, d: int, seed: int, tag: int) -> np.ndarray:
    if dist == "clustered":
        return clustered(n, d, seed=seeded_rng(seed, tag))
    return uniform_cube(n, d, seed=seeded_rng(seed, tag))


@dataclass
class Inputs:
    build: np.ndarray
    serve: np.ndarray
    churn: np.ndarray

    @classmethod
    def generate(cls, wl: Workload, seed: int) -> "Inputs":
        return cls(
            build=make_points(wl.dist, wl.n_build, wl.d, seed, 1),
            serve=make_points(wl.dist, wl.n_serve, wl.d, seed, 2),
            # uniform 2-D in every workload: clustered or 3-D inserts make
            # commit cost heavy-tailed (p85 to p95 doubles), which 100
            # commits cannot pin down
            churn=make_points("uniform", wl.n_churn, 2, seed, 3),
        )


# -- checks -----------------------------------------------------------------


def brute_knn(points: np.ndarray, q: np.ndarray, k: int,
              exclude: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Exact k nearest rows of ``points`` to ``q``, (distance, index) order."""
    diff = points - q
    sq = np.einsum("ij,ij->i", diff, diff)
    if exclude is not None:
        sq[exclude] = np.inf
    order = np.lexsort((np.arange(points.shape[0]), sq))[:k]
    return order, sq[order]


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        if not ok:
            self.fail(note)


class NullRecorder:
    """Stands in for ``spans.SpanRecorder`` when the run is not traced."""

    def span(self, name: str, layer: str, **attrs: Any) -> contextlib.nullcontext:
        return contextlib.nullcontext()


# -- the HTTP server and client ---------------------------------------------


def program_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class ServerProcess:
    """``repro net serve`` in its own process, on an ephemeral port."""

    def __init__(self, points_path: str, seed: int, log_path: str) -> None:
        self.points_path = points_path
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "net", "serve", "--points-file", points_path,
             "-k", str(K), "--seed", str(seed), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, text=True, cwd=ROOT, env=program_env(),
        )
        self.port: Optional[int] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while self.port is None:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("net server did not start in time") from None
            if line is None:
                raise RuntimeError(f"net server exited with {self.proc.wait()}")
            if " on http://" in line:
                self.port = int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        return self.port

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self._log.close()


def http_post(port: int, payload: Dict[str, Any]) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/v1/query", json.dumps(payload),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def http_get(port: int, path: str) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.read().decode()
    finally:
        conn.close()


class HttpClient:
    """Closed-loop load: one thread per keep-alive connection."""

    def __init__(self, port: int, conns: int) -> None:
        self.conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                      for _ in range(conns)]
        self.seq = 0

    def close(self) -> None:
        for c in self.conns:
            c.close()

    def block(self, points: np.ndarray, rec: Any, tag: str) -> List[tuple]:
        """Send each row as one request; returns per request
        ``(row, rid, latency_s, status, echoed_rid, body_or_error)``."""
        m = points.shape[0]
        base = self.seq
        self.seq += m
        out: List[Optional[tuple]] = [None] * m
        bodies = [json.dumps({"point": row}) for row in points.tolist()]
        start = threading.Barrier(len(self.conns))

        def run(t: int) -> None:
            conn = self.conns[t]
            start.wait()
            for i in range(t, m, len(self.conns)):
                rid = f"{tag}-{base + i:08d}"
                with rec.span("net.request", "net", request_id=rid):
                    t0 = time.perf_counter()
                    try:
                        conn.request("POST", "/v1/query", bodies[i],
                                     {"Content-Type": "application/json", "X-Request-Id": rid})
                        resp = conn.getresponse()
                        doc = json.loads(resp.read())
                        out[i] = (i, rid, time.perf_counter() - t0, resp.status,
                                  resp.getheader("X-Request-Id"), doc)
                    except (OSError, http.client.HTTPException, ValueError) as exc:
                        conn.close()  # reconnects on the next request
                        out[i] = (i, rid, time.perf_counter() - t0, 0, None, repr(exc))

        threads = [threading.Thread(target=run, args=(t,)) for t in range(len(self.conns))]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        return [o for o in out if o is not None]


# -- one workload's state ---------------------------------------------------


@dataclass
class Stack:
    """Everything set-up builds: inputs, indexes, batchers and the server."""

    inputs: Inputs
    serving: Any  # ServingIndex
    batcher: Batcher
    churn_index: Any  # repro.Index
    churn_batcher: Batcher
    server: ServerProcess
    port: int
    client: HttpClient
    queries: QuerySource
    http_queries: QuerySource
    churn_queries: QuerySource
    mutations: np.random.Generator

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        os.remove(self.server.points_path)
        self.batcher.close()
        self.churn_batcher.close()


def set_up(wl: Workload, seed: int, out_dir: str, tally: Tally) -> Stack:
    """Imports (in a fresh interpreter), inputs, indexes, server, warm-up."""
    subprocess.run([sys.executable, "-c", "import numpy, repro"], check=True,
                   env=program_env(), cwd=ROOT)
    inputs = Inputs.generate(wl, seed)
    points_path = os.path.join(out_dir, f"serve-{wl.name}-{seed}.npy")
    np.save(points_path, inputs.serve)
    server = ServerProcess(points_path, seed, os.path.join(out_dir, f"server-{wl.name}.log"))
    try:
        serving = repro.build_index(inputs.serve, K, seed=seed).snapshot()
        batcher = Batcher(serving, max_batch=MAX_BATCH, cache=ResultCache(CACHE_SIZE))
        churn_index = repro.build_index(inputs.churn, K, seed=seed)
        churn_batcher = Batcher(churn_index.snapshot(), max_batch=MAX_BATCH,
                                cache=ResultCache(CACHE_SIZE))
        queries = QuerySource(wl.dist, inputs.serve, seeded_rng(seed, 4), wl.repeating)
        http_queries = QuerySource(wl.dist, inputs.serve, seeded_rng(seed, 5), wl.repeating)
        churn_queries = QuerySource("uniform", inputs.churn, seeded_rng(seed, 6), False)
        # warm-up: lazy descent layouts, result caches filled from the
        # workload's own query stream, a small build of the frontier code
        # path, the keep-alive connections and the server's cache
        warm = WARM_QUERIES if wl.repeating else MAX_BATCH  # fresh queries never hit
        for b, source in ((batcher, queries), (churn_batcher, churn_queries)):
            b.submit_many(source.draw(warm))
            b.flush()
        repro.all_knn(inputs.build[:2000], K, engine="frontier", seed=seed)
        port = server.wait_ready()
        client = HttpClient(port, nproc())
        for _ in range(warm // 2048):
            status, _ = http_post(port, {"points": http_queries.draw(2048).tolist()})
            tally.check(status == 200, f"warm-up batch request failed: {status}")
        for row in client.block(http_queries.draw(16 * len(client.conns)), NullRecorder(),
                                "warm"):
            tally.check(row[3] == 200, f"warm-up request {row[1]} failed: {row[5]}")
    except BaseException:
        server.stop()
        os.remove(points_path)
        raise
    return Stack(inputs, serving, batcher, churn_index, churn_batcher, server, port, client,
                 queries, http_queries, churn_queries, seeded_rng(seed, 8))


# -- A: offline builds ------------------------------------------------------


@dataclass
class BuildRecord:
    frontier: Samples = field(default_factory=Samples)
    mp: Samples = field(default_factory=Samples)
    index: Samples = field(default_factory=Samples)
    ledger: Optional[Tuple[float, float]] = None
    index_ledger: Optional[Tuple[float, float]] = None
    checked_brute: bool = False
    last: Dict[str, Any] = field(default_factory=dict)


def build_cycle(stack: Stack, seed: int, cal: Calibrator, rec: Any, tally: Tally,
                out: BuildRecord, traced: bool) -> None:
    pts = stack.inputs.build
    workers = nproc()

    def run(label: str, layer: str, fn: Callable[[Machine], Any], samples: Samples) -> Any:
        machine = Machine()
        tracer = machine.enable_tracing() if traced else None
        spans = []

        def call() -> Any:
            with rec.span(f"api.{label}", layer, n=int(pts.shape[0])) as span:
                spans.append(span)
                return fn(machine)

        result, raw, bracket = cal.timed(call)
        if tracer is not None:
            rec.import_tracer(tracer, spans[0])
        samples.add(raw, bracket)
        tally.ops += 1
        return result

    with rec.span("build.cycle", "bench"):
        serial = run("all_knn.frontier", "core",
                     lambda m: repro.all_knn(pts, K, engine="frontier", seed=seed, machine=m),
                     out.frontier)
        multi = run("all_knn.frontier-mp", "parallel",
                    lambda m: repro.all_knn(pts, K, engine="frontier-mp", workers=workers,
                                            seed=seed, machine=m),
                    out.mp)
        index = run("build_index", "core.online",
                    lambda m: repro.build_index(pts, K, seed=seed, machine=m),
                    out.index)
    ledger = (serial.cost.depth, serial.cost.work)
    tally.check(np.array_equal(serial.indices, multi.indices)
                and np.array_equal(serial.sq_dists, multi.sq_dists),
                "frontier-mp neighbors differ from frontier")
    tally.check((multi.cost.depth, multi.cost.work) == ledger,
                f"frontier-mp ledger {multi.cost} differs from frontier {serial.cost}")
    tally.check(np.array_equal(serial.indices, index.system.neighbor_indices)
                and np.array_equal(serial.sq_dists, index.system.neighbor_sq_dists),
                "build_index neighbors differ from frontier")
    tally.check(out.ledger is None or out.ledger == ledger, "frontier ledger not repeatable")
    index_ledger = (index.cost.depth, index.cost.work)
    tally.check(out.index_ledger is None or out.index_ledger == index_ledger,
                "build_index ledger not repeatable")
    out.ledger, out.index_ledger = ledger, index_ledger
    if not out.checked_brute:
        out.checked_brute = True
        rows = seeded_rng(seed, 9).choice(pts.shape[0], size=BRUTE_SAMPLE, replace=False)
        for i in rows.tolist():
            idx, sq = brute_knn(pts, pts[i], K, exclude=i)
            tally.check(np.array_equal(idx, serial.indices[i])
                        and np.array_equal(sq, serial.sq_dists[i]),
                        f"all_knn row {i} differs from brute force")
    out.last = {"serial": serial, "multi": multi, "index": index}


# -- B: batched queries -----------------------------------------------------


class TimedExecutor:
    """Batch executor timing each ``ServingIndex.execute`` call."""

    def __init__(self, index: Any, rec: Any) -> None:
        self.index = index
        self.rec = rec
        self.ms: List[float] = []

    def __call__(self, kind: str, queries: np.ndarray, k: Optional[int]) -> Any:
        with self.rec.span("serve.execute", "serve.index", n=int(queries.shape[0])):
            t0 = time.perf_counter()
            out = self.index.execute(kind, queries, k)
            self.ms.append((time.perf_counter() - t0) * 1e3)
        return out


def verify_tickets(tickets: List[Any], pts_q: np.ndarray, data: np.ndarray,
                   rng: np.random.Generator, tally: Tally, what: str,
                   sample: int = BRUTE_SAMPLE) -> None:
    for t in tickets:
        if not t.done:
            tally.fail(f"{what}: unfulfilled ticket")
    for i in rng.choice(len(tickets), size=min(sample, len(tickets)),
                        replace=False).tolist():
        idx, sq = brute_knn(data, pts_q[i], K)
        got_idx, got_sq = tickets[i].value
        tally.check(np.array_equal(idx, got_idx) and np.array_equal(sq, got_sq),
                    f"{what}: query {i} differs from brute force")


def query_block(stack: Stack, cal: Calibrator, rec: Any, tally: Tally, samples: Samples,
                rng: np.random.Generator) -> None:
    q = stack.queries.draw(QUERY_BLOCK)
    batcher = stack.batcher

    def op() -> List[Any]:
        with rec.span("serve.batcher.block", "serve", n=QUERY_BLOCK):
            tickets = batcher.submit_many(q)
            batcher.flush()
        return tickets

    tickets, raw, bracket = cal.timed(op)
    samples.add(QUERY_BLOCK / raw, bracket)
    tally.ops += QUERY_BLOCK
    verify_tickets(tickets, q, stack.inputs.serve, rng, tally, "batcher")


# -- C: HTTP ----------------------------------------------------------------


@dataclass
class HttpRecord:
    rps: Samples = field(default_factory=lambda: Samples(rate=True))
    latencies: Samples = field(default_factory=Samples)  # seconds per request


def http_block(stack: Stack, cal: Calibrator, rec: Any, tally: Tally, out: HttpRecord,
               rng: np.random.Generator, tag: str) -> None:
    q = stack.http_queries.draw(HTTP_BLOCK)

    def op() -> List[tuple]:
        with rec.span("net.block", "bench", n=HTTP_BLOCK):
            return stack.client.block(q, rec, tag)

    rows, raw, bracket = cal.timed(op)
    out.rps.add(len(rows) / raw, bracket)
    tally.ops += HTTP_BLOCK
    tally.check(len(rows) == HTTP_BLOCK, "HTTP requests lost")
    exp_idx, exp_sq = stack.serving.execute("knn", q, K)
    for i, rid, lat, status, echoed, doc in rows:
        out.latencies.add(lat, bracket)
        if status != 200:
            tally.fail(f"HTTP {rid}: status {status}: {doc}")
            continue
        if echoed != rid:
            tally.fail(f"HTTP {rid}: echoed request id {echoed!r}")
            continue
        res = doc["results"][0]
        tally.check(res["ids"] == exp_idx[i].tolist() and res["sq_dists"] == exp_sq[i].tolist(),
                    f"HTTP {rid}: answer differs from the in-process index")
    for i in rng.choice(len(q), size=4, replace=False).tolist():
        idx, sq = brute_knn(stack.inputs.serve, q[i], K)
        tally.check(np.array_equal(idx, exp_idx[i]) and np.array_equal(sq, exp_sq[i]),
                    f"HTTP query {i}: in-process answer differs from brute force")


# -- D: churn ---------------------------------------------------------------


@dataclass
class ChurnRecord:
    latencies: Samples = field(default_factory=Samples)  # seconds per commit
    commit_ms: List[float] = field(default_factory=list)
    snapshot_ms: List[float] = field(default_factory=list)
    swap_ms: List[float] = field(default_factory=list)
    layout_ms: List[float] = field(default_factory=list)
    reused: List[float] = field(default_factory=list)
    absorbed: List[bool] = field(default_factory=list)
    work: List[float] = field(default_factory=list)


def _mutation(stack: Stack, commit_no: int) -> Tuple[np.ndarray, np.ndarray]:
    ix = stack.churn_index
    n, d = ix.points.shape
    m = max(2, round(n / 1000))
    inserts = m // 2 + (commit_no % 2) * (m % 2)
    rng = stack.mutations
    return rng.random((inserts, d)), rng.choice(n, size=m - inserts, replace=False)


def churn_round(stack: Stack, cal: Calibrator, rec: Any, tally: Tally, out: ChurnRecord,
                rng: np.random.Generator) -> None:
    """``COMMITS_PER_ROUND`` commits, each timed from the first mutation
    call until a query is answered at the new version.

    A calibration bracket sits between consecutive commits, so each
    commit is scaled by the brackets on either side of it.
    """
    ix = stack.churn_index
    b = stack.churn_batcher
    done = []
    gc.collect()
    before = cal.measure()
    for _ in range(COMMITS_PER_ROUND):
        new, dels = _mutation(stack, len(out.commit_ms) + len(done))
        probe = stack.churn_queries.draw(1)[0]
        between = stack.churn_queries.draw(QUERIES_BETWEEN_COMMITS)
        with rec.span("churn.commit", "bench"):
            t0 = time.perf_counter()
            ix.insert(new)
            ix.delete(dels)
            with rec.span("core.online.commit", "core.online"):
                t1 = time.perf_counter()
                info = ix.commit()
                t2 = time.perf_counter()
            with rec.span("serve.snapshot", "serve"):
                snap = ix.snapshot()
                t3 = time.perf_counter()
            with rec.span("serve.swap_index", "serve"):
                b.swap_index(snap)
                t4 = time.perf_counter()
            with rec.span("serve.first_query", "serve"):
                ticket = b.submit(probe)
                b.flush()
                t5 = time.perf_counter()
        after = cal.measure()
        work = ix.machine.total.work
        with rec.span("serve.batcher.block", "serve", n=QUERIES_BETWEEN_COMMITS):
            tickets = b.submit_many(between)
            b.flush()
        done.append((t5 - t0, (before, after), t2 - t1, t3 - t2, t4 - t3, t5 - t4, info,
                     work, ticket, probe, b.index.version, ix.points, tickets, between))
        before = after
    for (lat, bracket, c_s, s_s, w_s, l_s, info, work, ticket, probe, version, points,
         tickets, between) in done:
        out.latencies.add(lat, bracket)
        out.commit_ms.append(c_s * 1e3)
        out.snapshot_ms.append(s_s * 1e3)
        out.swap_ms.append(w_s * 1e3)
        out.layout_ms.append(l_s * 1e3)
        out.reused.append(info.reused_fraction)
        out.absorbed.append(info.absorbed)
        out.work.append(work)
        tally.ops += 1 + len(tickets) + 1
        tally.check(version == info.version and not info.noop,
                    f"commit {info.version}: batcher serves version {version}")
        idx, sq = brute_knn(points, probe, K)
        got_idx, got_sq = ticket.value
        tally.check(np.array_equal(idx, got_idx) and np.array_equal(sq, got_sq),
                    f"commit {info.version}: first query differs from brute force")
        verify_tickets(tickets, between, points, rng, tally, f"churn v{info.version}",
                       sample=2)


def churn_final_check(stack: Stack, tally: Tally) -> None:
    """The last committed version against a from-scratch build."""
    mutable = stack.churn_index.mutable
    problems = equivalence_report(mutable, mutable.fresh_like())
    tally.ops += 1
    for p in problems:
        tally.fail(f"final churn version v{mutable.version}: {p}")
