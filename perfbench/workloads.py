"""The three workloads: set-up, measured phase, correctness gate.

* ``exact-bulk`` — HTTP bulk ``quantify_exact``, 4000 rows a request,
  one keep-alive connection in a closed loop, in-process server with
  ``workers=0``.
* ``point-stream`` — an open loop of single-point ``QueryService.submit``
  calls (four kinds, a skewed hot set) from one generator thread.
* ``vpr-serve`` — HTTP bulk ``quantify_vpr``, 8000 rows a request, one
  connection in a closed loop, against the ``serve-http`` posture
  (``workers=2``, ``backend="auto"``, shared V_Pr plane).

Each workload sets up several times and keeps the last set-up for the
measured phase (the bulk workloads measure the last four, see
:data:`MEASURED`); ``setup_s`` is the median.  The traced run repeats
the measured phase with tracing and the :mod:`layers` wrappers on and
reports per-layer figures instead.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import PNNIndex
from repro.obs.metrics import ENGINE, KERNEL
from repro.obs.trace import TraceConfig
from repro.serving import HttpConfig, ServerThread, ServiceConfig
from repro.serving.http import decode_result
from repro.spatial.kernels import get_provider
from repro.uncertain.discrete import DiscreteUncertainPoint

import checks
import hostenv
import inputs
import layers

#: Tail percentile reported as ``tail_ms``, fixed per workload: the
#: highest of p50/p75/p90/p99/p99.9 that keeps ten samples beyond it
#: even on a host running at half speed (a 25 s run answers 100-120
#: exact-bulk and 140-165 vpr-serve requests on a 2-vCPU virtual
#: machine, depending on the hypervisor's steal time).  point-stream
#: stops at p90: on identical code its p99.9 read 38-162 ms and its p99
#: 9-42 ms from run to run, tracking the hypervisor's steal time (even
#: a median of 2 s-window p99s kept that spread), so they measured the
#: host rather than the program.
TAIL = {"exact-bulk": 75.0, "point-stream": 90.0, "vpr-serve": 75.0}
SETUPS = {"exact-bulk": 9, "point-stream": 25, "vpr-serve": 4}
#: The bulk workloads split their measured phase over the servers of
#: their last MEASURED set-ups: one vpr-serve server read 137-166 ms at
#: p50 against the next in the same minute (each set-up starts new
#: workers and maps a new plane), and a run that measured only one of
#: them carried that spread.
MEASURED = 4

BULK_ROWS = 4000
VPR_ROWS = 8000
BODIES = 8                  # distinct request bodies, cycled
STREAM_RATE = 4000.0        # point-stream requests per second
STREAM_WARM_S = 1.0         # open-loop warm-up before measuring
STREAM_HOT, STREAM_HOT_SHARE = 64, 0.2
STREAM_KINDS = (("delta", {}), ("nonzero_nn", {}), ("quantify_exact", {}),
                ("top_k", {"k": 3, "method": "exact"}))
TRACE_SPANS = 1 << 20
#: point-stream traces one request in ten: keeping every span of ~50k
#: requests made the collector's pauses, not the layers, dominate.
STREAM_TRACE_SAMPLE = 0.1


#: point-stream cuts its measured phase into windows of WINDOW_S
#: seconds, and its latency figures pool the requests of the fastest
#: QUIET_SHARE of them, ranked by their median latency.  On a shared
#: 2-vCPU virtual machine the hypervisor steals CPU in bursts of
#: seconds, and the open loop queues up behind every lost millisecond:
#: runs that met such bursts read up to twice as slow at p50 over the
#: whole run, while their quiet windows read close to those of
#: undisturbed runs.  A change that slows the program slows every
#: window, so it still shows.  The whole-run figures go into the run
#: record.
WINDOW_S = 1.0
QUIET_SHARE = 0.25


@dataclass
class Phase:
    """What one measured phase observed."""

    latencies: List[float] = field(default_factory=list)
    rows: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    answers: object = None      # point-stream: the _Completions
    starts: Optional[np.ndarray] = None   # point-stream: due times

    def quiet(self) -> np.ndarray:
        """Mask of the requests in the fastest :data:`QUIET_SHARE` of
        the windows, the windows ranked by their median latency."""
        lat = np.asarray(self.latencies)
        win = (self.starts // WINDOW_S).astype(np.int64)
        ids = np.unique(win)
        medians = np.array([np.median(lat[win == w]) for w in ids])
        count = max(1, int(round(len(ids) * QUIET_SHARE)))
        keep = ids[np.argsort(medians, kind="stable")[:count]]
        return np.isin(win, keep)

    def end_to_end(self, setup_s: float, tail: float,
                   whole: bool = False) -> Dict[str, float]:
        lat = np.asarray(self.latencies)
        if self.starts is not None and not whole:
            lat = lat[self.quiet()]
        return {
            "setup_s": setup_s,
            "rows_per_s": self.rows / self.wall,
            "p50_ms": float(np.percentile(lat, 50.0)) * 1e3,
            "tail_ms": float(np.percentile(lat, tail)) * 1e3,
            "cpu_us_per_row": self.cpu / self.rows * 1e6,
            "rss_mb": hostenv.peak_rss_mb(),
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
        }


@dataclass
class Result:
    """A workload run: metrics plus the run record."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    info: Dict[str, object]
    table: str = ""             # the traced run's per-layer budget


def _index(point_sets) -> PNNIndex:
    return PNNIndex([DiscreteUncertainPoint([tuple(s) for s in sites],
                                            list(weights))
                     for sites, weights in point_sets])


def _merge(phases: List[Phase]) -> Phase:
    """One phase of the requests of several bulk phases."""
    return Phase(latencies=[x for p in phases for x in p.latencies],
                 rows=sum(p.rows for p in phases),
                 wall=sum(p.wall for p in phases),
                 cpu=sum(p.cpu for p in phases),
                 attempted=sum(p.attempted for p in phases),
                 failed=sum(p.failed for p in phases))


def _pct(traced: float, untraced: float) -> float:
    return (traced - untraced) / untraced * 100.0


# ----------------------------------------------------------------------
# HTTP bulk workloads (exact-bulk, vpr-serve)
# ----------------------------------------------------------------------
@dataclass
class Body:
    """One pre-encoded bulk request and its reference answers."""

    payload: bytes
    queries: np.ndarray
    nn: List[List[int]]
    oracle: Dict[int, Dict[int, float]]
    digest: Optional[bytes] = None


def _bodies(oracle: PNNIndex, queries: np.ndarray, rows: int) -> List[Body]:
    out = []
    for b in range(len(queries) // rows):
        q = queries[b * rows:(b + 1) * rows]
        out.append(Body(
            payload=json.dumps({"queries": q.tolist()}).encode(),
            queries=q, nn=oracle.batch_nonzero_nn(q),
            oracle={j: oracle.quantify((float(q[j, 0]), float(q[j, 1])),
                                       method="exact")
                    for j in checks.sample_rows(rows)}))
    return out


class BulkServer:
    """An in-process HTTP server over one index, plus its client."""

    def __init__(self, index: PNNIndex, config: ServiceConfig) -> None:
        self.index = index
        self.service = index.serve(config)
        self.server = ServerThread(self.service, HttpConfig(port=0)).start()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.server.port,
                                               timeout=120)
        while self.get("/healthz")[0] != 200:
            time.sleep(0.002)

    def get(self, path: str):
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def post(self, path: str, payload: bytes):
        self.conn.request("POST", path, body=payload,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def close(self) -> None:
        self.conn.close()
        self.server.stop()
        self.service.close()


def _verify_bulk(kind: str, b: int, body: Body, data: bytes, doc: Dict,
                 oracle: PNNIndex) -> None:
    """Check one bulk response against the invariants, the scalar oracle
    sample and *oracle*'s in-process batch answers, row by row.

    Identical response bytes for a body are checked once.
    """
    digest = hashlib.sha1(data).digest()
    if digest == body.digest:
        return
    where = f"{kind} body {b}"
    rows = [decode_result(kind, r) for r in doc["results"]]
    checks.check_quantify_rows(rows, body.nn, where)
    for j, want in body.oracle.items():
        checks.check_equal(rows[j], want, f"{where} row {j}")
    for j, want in enumerate(oracle.batch_quantify_exact(body.queries)):
        checks.check_equal(rows[j], want, f"{where} row {j} vs exact")
    body.digest = digest


def _bulk_phase(srv: BulkServer, kind: str, bodies: List[Body],
                seconds: float, oracle: PNNIndex,
                timers: Optional[layers.Timers] = None) -> Phase:
    """Closed loop, one connection: send, read, parse, verify, repeat.

    Verification runs between requests while the server is idle; its
    time is left out of the measured wall time, its CPU (this thread's)
    out of the server's CPU, and its library calls out of *timers*.
    """
    path = f"/v1/query/{kind}"
    phase = Phase()
    parse = []
    nbytes = 0
    cpu0, own0 = hostenv.cpu_seconds(), time.thread_time()
    i = 0
    while phase.wall < seconds:
        b = i % len(bodies)
        body = bodies[b]
        i += 1
        t0 = time.perf_counter()
        status, data = srv.post(path, body.payload)
        t1 = time.perf_counter()
        doc = json.loads(data)
        t2 = time.perf_counter()
        phase.wall += t2 - t0
        phase.attempted += 1
        if status != 200 or doc.get("count") != len(body.queries):
            phase.failed += 1
            continue
        phase.latencies.append(t2 - t0)
        parse.append(t2 - t1)
        phase.rows += len(body.queries)
        nbytes += len(data)
        if timers is None:
            _verify_bulk(kind, b, body, data, doc, oracle)
        else:
            with timers.paused():
                _verify_bulk(kind, b, body, data, doc, oracle)
    phase.cpu = (hostenv.cpu_seconds() - cpu0) - (time.thread_time() - own0)
    phase.extra = {"client.parse.ms": float(np.mean(parse)) * 1e3,
                   "http.bytes_per_row": nbytes / phase.rows}
    return phase


def _warm_up(srv: BulkServer, kind: str, bodies: List[Body],
             oracle: PNNIndex) -> None:
    """Send every body once, unmeasured but checked.

    The first requests after set-up run measurably slower (worker pages
    of the shared plane fault in on first touch), so the measured phase
    starts after them.
    """
    for b, body in enumerate(bodies):
        status, data = srv.post(f"/v1/query/{kind}", body.payload)
        if status != 200:
            raise RuntimeError(f"warm-up request failed with {status}")
        _verify_bulk(kind, b, body, data, json.loads(data), oracle)


def _bulk_layers(tracer, timers: layers.Timers,
                 phase: Phase) -> Dict[str, float]:
    """Per-request layer split of a traced bulk phase."""
    traces = [t for t in layers.per_trace(tracer.spans()).values()
              if "http.request" in t]
    n = len(traces)

    def mean(name: str) -> float:
        return sum(t.get(name, 0.0) for t in traces) / n * 1e3

    request, batch = mean("http.request"), mean("service.batch")
    dispatch, busiest = mean("shard.dispatch"), mean("worker.busiest")
    reassemble = mean("shard.reassemble")
    per = 1e3 / phase.attempted
    exact_batch = timers.total["exact.batch"] * per
    latency = float(np.mean(phase.latencies)) * 1e3
    parse = phase.extra["client.parse.ms"]
    out = {
        "http.request.ms": request,
        "http.codec.ms": request - batch,
        "client.parse.ms": parse,
        "service.batch.ms": batch,
        "service.self.ms": batch - exact_batch - dispatch - reassemble,
        "exact.matrix.ms": timers.total["exact.matrix"] * per,
        "exact.glue.ms": timers.self_time["exact.matrix"] * per,
        "exact.rows.ms": timers.self_time["exact.batch"] * per,
        "kernel.distance_matrix.ms":
            timers.total["kernel.distance_matrix"] * per,
        "kernel.sweep_eq2.ms": timers.total["kernel.sweep_eq2"] * per,
        "shard.dispatch.ms": dispatch,
        "worker.compute.ms": busiest,
        "worker.unattributed.ms": busiest,
        "shard.ipc.ms": dispatch - busiest,
        "shard.reassemble.ms": reassemble,
        "unattributed.ms": latency - parse - request,
    }
    out["unattributed.pct"] = out["unattributed.ms"] / latency * 100.0
    return out


def _bulk_table(name: str, m: Dict[str, float], latency: float) -> str:
    rows = [("client latency (mean)", latency, "ms/request"),
            ("  client.parse", m["client.parse.ms"], "ms/request"),
            ("  http.request", m["http.request.ms"], "ms/request"),
            ("    http.codec (decode, validate, encode)",
             m["http.codec.ms"], "ms/request"),
            ("    service.batch", m["service.batch.ms"], "ms/request"),
            ("      service self", m["service.self.ms"], "ms/request")]
    if name == "exact-bulk":
        rows += [("      exact.rows (dict materialisation)",
                  m["exact.rows.ms"], "ms/request"),
                 ("      exact.glue (matrix minus kernels)",
                  m["exact.glue.ms"], "ms/request"),
                 ("      kernel.distance_matrix",
                  m["kernel.distance_matrix.ms"], "ms/request"),
                 ("      kernel.sweep_eq2", m["kernel.sweep_eq2.ms"],
                  "ms/request")]
    else:
        rows += [("      shard.dispatch", m["shard.dispatch.ms"],
                  "ms/request"),
                 ("        shard.ipc (dispatch minus busiest worker)",
                  m["shard.ipc.ms"], "ms/request"),
                 ("        worker.compute (busiest worker)",
                  m["worker.compute.ms"], "ms/request"),
                 ("          unattributed (in-worker locate/dict split)",
                  m["worker.unattributed.ms"], "ms/request"),
                 ("      shard.reassemble", m["shard.reassemble.ms"],
                  "ms/request")]
    rows.append(("  unattributed (socket, event loop, scheduling)",
                 m["unattributed.ms"], "ms/request"))
    if name == "vpr-serve":
        rows += [("parent-side quantify_vpr, same rows: vpr.locate",
                  m["vpr.locate.ms"], "ms/request"),
                 ("parent-side quantify_vpr, same rows: vpr.rows (dicts)",
                  m["vpr.rows.ms"], "ms/request")]
    rows.append(("trace overhead, p50", m["trace.overhead.p50_pct"], "%"))
    rows.append(("trace overhead, rows/s",
                 m["trace.overhead.rows_per_s_pct"], "%"))
    return layers.table(f"{name}: per-layer budget", rows)


def _run_bulk(name: str, kind: str, seconds: float, trace: bool,
              make_index: Callable[[], PNNIndex], config: Callable,
              bodies: List[Body], oracle: PNNIndex) -> Result:
    setups = []
    phases = []
    span = (seconds / 2 if trace else seconds) / MEASURED
    for k in range(SETUPS[name]):
        gc.collect()
        builds0 = ENGINE.get("vpr.builds")
        t0 = time.perf_counter()
        srv = BulkServer(make_index(), config(None))
        try:
            status, data = srv.post(f"/v1/query/{kind}", bodies[0].payload)
            setups.append(time.perf_counter() - t0)
            if status != 200:
                raise RuntimeError(f"set-up request failed with {status}")
            if SETUPS[name] - k > MEASURED:
                continue
            info = _serving_info(srv)
            _warm_up(srv, kind, bodies, oracle)
            phases.append(_bulk_phase(srv, kind, bodies, span, oracle))
            info["vpr_builds"] = ENGINE.get("vpr.builds") - builds0
        finally:
            srv.close()
        if kind == "quantify_vpr" and info["vpr_builds"] != 1:
            raise checks.WrongAnswer(f"parent built V_Pr "
                                     f"{info['vpr_builds']} times for one "
                                     f"server, expected exactly 1")
        if kind == "quantify_vpr" and not info["plane_served"]:
            raise checks.WrongAnswer("workers do not serve the shared plane")
    phase = _merge(phases)
    e2e = phase.end_to_end(statistics.median(setups), TAIL[name])
    info["samples"] = len(phase.latencies)
    if not trace:
        return Result(e2e, phase.attempted, phase.failed, info)

    gc.collect()
    timers = layers.Timers()
    layers.install(timers)
    try:
        tracer_cfg = TraceConfig(sample=1.0, max_spans=TRACE_SPANS)
        srv = BulkServer(make_index(), config(tracer_cfg))
        srv.post(f"/v1/query/{kind}", bodies[0].payload)
        setup = {k: timers.total[k] for k in
                 ("vpr.build", "planelocate.build", "codec.plane_encode",
                  "executor.start")}
        setup["vpr.label"] = timers.within[("vpr.build", "exact.matrix")]
        vinfo = srv.service.vpr_info()
        _warm_up(srv, kind, bodies, oracle)
        timers.reset()
        srv.service.tracer.clear()
        chunks0 = ENGINE.get("exact_sweep.chunks")
        widen0 = ENGINE.get("exact_sweep.prefix_widenings")
        kcalls0 = sum(KERNEL.snapshot().values())
        try:
            traced = _bulk_phase(srv, kind, bodies, seconds / 2, oracle,
                                 timers)
            m = _bulk_layers(srv.service.tracer, timers, traced)
            kcalls = sum(KERNEL.snapshot().values()) - kcalls0
            if kind == "quantify_vpr":
                # The workers' locate/dict split is out of reach; time the
                # same rows through the parent's diagram, outside the
                # measured phase, for the sanity split.
                timers.reset()
                for body in bodies:
                    srv.index.batch_quantify_vpr(body.queries)
                per = 1e3 / len(bodies)
                m["vpr.locate.ms"] = timers.total["vpr.locate"] * per
                m["vpr.rows.ms"] = timers.self_time["vpr.quantify"] * per
                m["vpr.query_gather.ms"] = (timers.self_time["vpr.query"]
                                            * per)
        finally:
            srv.close()
    finally:
        timers.restore()
    chunks = ENGINE.get("exact_sweep.chunks") - chunks0
    m["exact.widenings_per_chunk"] = (
        (ENGINE.get("exact_sweep.prefix_widenings") - widen0)
        / chunks if chunks else 0.0)
    m["kernel.calls"] = kcalls / traced.attempted
    m["http.bytes_per_row"] = traced.extra["http.bytes_per_row"]
    m["vpr.build.s"] = setup["vpr.build"]
    m["vpr.label.s"] = setup["vpr.label"]
    m["planelocate.build.s"] = setup["planelocate.build"]
    m["codec.plane_encode.s"] = setup["codec.plane_encode"]
    m["executor.start.s"] = setup["executor.start"]
    m["vpr.faces"] = vinfo.get("faces", 0)
    m["vpr.builds"] = info["vpr_builds"]
    m["codec.plane_bytes"] = vinfo.get("plane_bytes", 0)
    m["planelocate.bytes"] = vinfo.get("locator_stats", {}).get("nbytes", 0)
    t2e = traced.end_to_end(0.0, TAIL[name])
    m["trace.overhead.p50_pct"] = _pct(t2e["p50_ms"], e2e["p50_ms"])
    m["trace.overhead.rows_per_s_pct"] = _pct(e2e["rows_per_s"],
                                              t2e["rows_per_s"])
    table = _bulk_table(name, m, float(np.mean(traced.latencies)) * 1e3)
    return Result(m, phase.attempted + traced.attempted,
                  phase.failed + traced.failed, info, table)


def _serving_info(srv: BulkServer) -> Dict[str, object]:
    """The resolved run environment of a live server."""
    service = srv.service
    executor = service.executor
    vinfo = service.vpr_info()
    return {
        "kernel": get_provider(srv.index.kernel).name,
        "backend": executor.mode if executor is not None else "inline",
        "executor_workers": executor.workers if executor is not None else 0,
        "plane_served": bool(vinfo.get("plane_served")),
        "plane_encoded": bool(vinfo.get("plane_encoded")),
    }


def exact_bulk(seed: int, seconds: float, trace: bool) -> Result:
    sets = inputs.point_sets(seed, inputs.BULK_POINTS, inputs.BULK_SITES,
                             inputs.BULK_EXTENT, inputs.BULK_SPREAD)
    oracle = _index(sets)
    queries = inputs.uniform_queries(seed, BODIES * BULK_ROWS, 0.0,
                                     inputs.BULK_EXTENT)
    bodies = _bodies(oracle, queries, BULK_ROWS)
    return _run_bulk("exact-bulk", "quantify_exact", seconds, trace,
                     lambda: _index(sets),
                     lambda tr: ServiceConfig(workers=0, trace=tr),
                     bodies, oracle)


def vpr_serve(seed: int, seconds: float, trace: bool) -> Result:
    sets = inputs.point_sets(inputs.VPR_INDEX_SEED, inputs.VPR_POINTS,
                             inputs.VPR_SITES, inputs.VPR_EXTENT,
                             inputs.VPR_SPREAD)
    oracle = _index(sets)
    # Inside the diagram window: the window pads the sites' bounding box.
    sites = np.concatenate([s for s, _ in sets])
    lo, hi = float(sites.min()), float(sites.max())
    queries = inputs.uniform_queries(seed, BODIES * VPR_ROWS, lo, hi)
    bodies = _bodies(oracle, queries, VPR_ROWS)

    def make_index() -> PNNIndex:
        index = _index(sets)
        index.cached_vpr().locator  # build the lazy locator in set-up
        return index

    # The serve-http default posture.
    return _run_bulk("vpr-serve", "quantify_vpr", seconds, trace,
                     make_index,
                     lambda tr: ServiceConfig(
                         workers=2, backend="auto", cache_capacity=8192,
                         max_batch=128, flush_window=0.002, trace=tr),
                     bodies, oracle)


# ----------------------------------------------------------------------
# point-stream
# ----------------------------------------------------------------------
class _Completions:
    """Completion times and answers of the open loop's requests.

    Kept in flat arrays and a list of rows, not futures: holding every
    future would give the garbage collector the benchmark's objects to
    scan, and its pauses would show up as program latency.
    """

    def __init__(self, count: int) -> None:
        self.done_at = np.zeros(count)
        self.failed = np.zeros(count, dtype=bool)
        self.rows: List[object] = [None] * count

    def done(self, i: int, fut) -> None:
        self.done_at[i] = time.perf_counter()
        if fut.exception() is None:
            self.rows[i] = fut.result()
        else:
            self.failed[i] = True


def _stream_phase(service, kinds: np.ndarray, points: np.ndarray,
                  warm: int) -> Phase:
    """Open loop at :data:`STREAM_RATE`: request ``i`` is due at
    ``start + i / rate`` whether or not earlier ones have answered.

    Latency runs from the due time to the future's completion; the first
    *warm* requests fill the cache and are not measured.
    """
    count = len(kinds)
    interval = 1.0 / STREAM_RATE
    late = np.zeros(count)
    hit = np.zeros(count, dtype=bool)
    out = _Completions(count)
    names = [STREAM_KINDS[k][0] for k in range(4)]
    params = [STREAM_KINDS[k][1] for k in range(4)]
    submit = service.submit
    stats0 = cpu0 = None
    last = None
    start = time.perf_counter() + 0.005
    i = 0
    while i < count:
        due = start + i * interval
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            continue
        if i == warm:
            stats0 = service.stats()
            cpu0 = hostenv.cpu_seconds()
        late[i] = now - due
        k = kinds[i]
        fut = submit(names[k], (points[i, 0], points[i, 1]), **params[k])
        hit[i] = fut.done()
        fut.add_done_callback(partial(out.done, i))
        last = fut
        i += 1
    service.flush()
    last.result(timeout=60)
    deadline = time.perf_counter() + 60
    while not out.done_at.all() and time.perf_counter() < deadline:
        time.sleep(0.001)
    cpu = hostenv.cpu_seconds() - cpu0
    stats1 = service.stats()
    out.failed |= out.done_at == 0      # never answered: timed out
    due_times = start + np.arange(count) * interval
    measured = slice(warm, count)
    ok = ~out.failed[measured]
    lat = (out.done_at[measured] - due_times[measured])[ok]
    phase = Phase(latencies=lat.tolist(), rows=int(ok.sum()),
                  wall=float(out.done_at[measured].max() - due_times[warm]),
                  cpu=cpu, attempted=count - warm,
                  failed=int((~ok).sum()),
                  starts=due_times[measured][ok] - due_times[warm])
    c0, c1 = stats0["cache"], stats1["cache"]
    hits = c1["hits"] - c0["hits"]
    misses = c1["misses"] - c0["misses"]
    b0, b1 = stats0["coalescer"], stats1["coalescer"]
    mhit = hit[measured][ok]
    phase.extra = {
        "cache.hit_ratio": hits / (hits + misses),
        "cache.hit.ms": float(np.median(lat[mhit])) * 1e3,
        "cache.miss.ms": float(np.median(lat[~mhit])) * 1e3,
        "coalesce.rows_per_flush": ((b1["submitted"] - b0["submitted"])
                                    / (b1["flushes"] - b0["flushes"])),
        "gen.late.ms": float(np.mean(late[measured])) * 1e3,
    }
    phase.answers = out
    return phase


def _scalar_oracle(oracle: PNNIndex, kind: int, q) -> object:
    if kind == 0:
        return oracle.delta(q)
    if kind == 1:
        return oracle.nonzero_nn(q)
    if kind == 2:
        return oracle.quantify(q, method="exact")
    return oracle.top_k_nn(q, 3, method="exact")


def _verify_stream(oracle: PNNIndex, kinds: np.ndarray, points: np.ndarray,
                   answers: _Completions) -> None:
    """Invariants on every answered row; the scalar oracle on a sample."""
    deltas = oracle.batch_delta(points)
    nns = oracle.batch_nonzero_nn(points)
    sample = set(checks.sample_rows(len(kinds)))
    for i, row in enumerate(answers.rows):
        if answers.failed[i]:
            continue
        kind, nn = int(kinds[i]), nns[i]
        where = f"request {i} ({STREAM_KINDS[kind][0]})"
        if kind == 0:
            checks.check_equal(row, deltas[i], where)
        elif kind == 1:
            if not row:
                raise checks.WrongAnswer(f"{where}: NN!=0 is empty")
            checks.check_equal(row, nn, where)
        elif kind == 2:
            checks.check_quantify_row(row, nn, where)
        else:
            ranked = [p for _, p in row]
            if (not row or len(row) > 3
                    or ranked != sorted(ranked, reverse=True)
                    or any(p <= 0.0 or j not in nn for j, p in row)):
                raise checks.WrongAnswer(f"{where}: bad top-3 {row!r} "
                                         f"for NN!=0 {nn}")
        if i in sample:
            q = (float(points[i, 0]), float(points[i, 1]))
            checks.check_equal(row, _scalar_oracle(oracle, kind, q),
                               f"{where} vs scalar oracle")


def point_stream(seed: int, seconds: float, trace: bool) -> Result:
    sets = inputs.point_sets(seed, inputs.BULK_POINTS, inputs.BULK_SITES,
                             inputs.BULK_EXTENT, inputs.BULK_SPREAD)
    oracle = _index(sets)
    span = seconds / 2 if trace else seconds
    warm = int(STREAM_WARM_S * STREAM_RATE)
    count = warm + int(span * STREAM_RATE)
    kinds, points = inputs.point_stream(seed, count, STREAM_HOT,
                                        STREAM_HOT_SHARE, inputs.BULK_EXTENT)
    first = [(k, (float(points[k, 0]), float(points[k, 1])))
             for k in range(4)]

    def set_up(trace_cfg):
        service = _index(sets).serve(ServiceConfig(trace=trace_cfg))
        futures = [service.submit(STREAM_KINDS[k][0], q, **STREAM_KINDS[k][1])
                   for k, q in first]
        for fut in futures:
            fut.result(timeout=60)
        return service

    setups = []
    service = None
    for _ in range(SETUPS["point-stream"]):
        if service is not None:
            service.close()
            service = None
            gc.collect()
        t0 = time.perf_counter()
        service = set_up(None)
        setups.append(time.perf_counter() - t0)
    info = {"kernel": get_provider(service.index.kernel).name,
            "backend": "inline", "executor_workers": 0,
            "plane_served": False, "plane_encoded": False}
    try:
        phase = _stream_phase(service, kinds, points, warm)
    finally:
        service.close()
    _verify_stream(oracle, kinds, points, phase.answers)
    e2e = phase.end_to_end(statistics.median(setups), TAIL["point-stream"])
    whole = phase.end_to_end(0.0, TAIL["point-stream"], whole=True)
    info["whole_run"] = {"p50_ms": round(whole["p50_ms"], 4),
                         "tail_ms": round(whole["tail_ms"], 4),
                         "samples": len(phase.latencies),
                         "quiet_samples": int(phase.quiet().sum())}
    info["cache_hit_ratio"] = round(phase.extra["cache.hit_ratio"], 4)
    info["gen_late_ms"] = round(phase.extra["gen.late.ms"], 4)
    if not trace:
        return Result(e2e, phase.attempted, phase.failed, info)

    gc.collect()
    timers = layers.Timers()
    layers.install(timers)
    try:
        service = set_up(TraceConfig(sample=STREAM_TRACE_SAMPLE,
                                     max_spans=TRACE_SPANS))
        timers.reset()
        service.tracer.clear()
        kcalls0 = sum(KERNEL.snapshot().values())
        try:
            traced = _stream_phase(service, kinds, points, warm)
            kcalls = sum(KERNEL.snapshot().values()) - kcalls0
            spans = service.tracer.spans()
        finally:
            service.close()
    finally:
        timers.restore()
    _verify_stream(oracle, kinds, points, traced.answers)
    n_submit, submit_s = layers.span_stats(spans, "service.submit")
    n_wait, wait_s = layers.span_stats(spans, "coalesce.wait")
    _, flush_s = layers.span_stats(spans, "coalesce.flush")
    calls = timers.calls["batch_engine"]
    t2e = traced.end_to_end(0.0, TAIL["point-stream"])
    # The timers saw every request of the traced phase, warm-up included.
    per_request = 1.0 / count
    latency = float(np.mean(traced.latencies)) * 1e3
    m = dict(traced.extra)
    m.update({
        "service.submit.us": submit_s * 1e6,
        "coalesce.wait.ms": wait_s * 1e3,
        "coalesce.flush.ms": flush_s * 1e3,
        "batch_engine.ms": (timers.total["batch_engine"] / calls * 1e3
                            if calls else 0.0),
        "batch_engine.rows_per_call": (timers.rows["batch_engine"] / calls
                                       if calls else 0.0),
        "exact.matrix.ms": timers.total["exact.matrix"] * per_request * 1e3,
        "exact.glue.ms": timers.self_time["exact.matrix"] * per_request
        * 1e3,
        "exact.rows.ms": timers.self_time["exact.batch"] * per_request * 1e3,
        "kernel.distance_matrix.ms":
            timers.total["kernel.distance_matrix"] * per_request * 1e3,
        "kernel.sweep_eq2.ms": timers.total["kernel.sweep_eq2"]
        * per_request * 1e3,
        "kernel.calls": kcalls * per_request,
        "trace.overhead.p50_pct": _pct(t2e["p50_ms"], e2e["p50_ms"]),
        "trace.overhead.rows_per_s_pct": _pct(e2e["rows_per_s"],
                                              t2e["rows_per_s"]),
    })
    blocking = (m["gen.late.ms"] + m["service.submit.us"] / 1e3
                + m["coalesce.wait.ms"] * n_wait / n_submit)
    m["unattributed.ms"] = latency - blocking
    m["unattributed.pct"] = m["unattributed.ms"] / latency * 100.0
    rows = [("request latency from due time (mean)", latency, "ms"),
            ("  gen.late", m["gen.late.ms"], "ms"),
            ("  service.submit (canonicalize, cache, enqueue)",
             m["service.submit.us"] / 1e3, "ms"),
            ("  coalesce.wait x miss share",
             m["coalesce.wait.ms"] * n_wait / n_submit, "ms"),
            ("  unattributed (callback and thread hand-off)",
             m["unattributed.ms"], "ms"),
            ("cache.hit_ratio", m["cache.hit_ratio"], "ratio"),
            ("cache.hit latency p50", m["cache.hit.ms"], "ms"),
            ("cache.miss latency p50", m["cache.miss.ms"], "ms"),
            ("coalesce.rows_per_flush", m["coalesce.rows_per_flush"], "rows"),
            ("coalesce.flush (per flush)", m["coalesce.flush.ms"], "ms"),
            ("batch_engine (per call)", m["batch_engine.ms"], "ms"),
            ("exact.matrix (per request)", m["exact.matrix.ms"], "ms"),
            ("  exact.glue", m["exact.glue.ms"], "ms"),
            ("  kernels", m["kernel.distance_matrix.ms"]
             + m["kernel.sweep_eq2.ms"], "ms"),
            ("exact.rows (per request)", m["exact.rows.ms"], "ms"),
            ("trace overhead, p50", m["trace.overhead.p50_pct"], "%"),
            ("trace overhead, rows/s", m["trace.overhead.rows_per_s_pct"],
             "%")]
    return Result(m, phase.attempted + traced.attempted,
                  phase.failed + traced.failed, info,
                  layers.table("point-stream: per-layer budget", rows))


WORKLOADS = {"exact-bulk": exact_bulk, "point-stream": point_stream,
             "vpr-serve": vpr_serve}
