"""The five end-to-end workloads; each run is one process.

``python -m benchmarks.e2e.workloads SPEC_JSON`` runs one workload and
writes its result (metrics plus every correctness check) to
``spec["out"]``; :mod:`benchmarks.e2e.cli` starts it, so the run gets a
fresh interpreter with single-threaded BLAS.  Exit code 1 means a wrong
answer, a counter drift or a failed attribution check.

Inputs come from ``spec["seed"]``.  The service workloads serve the
fixed S4 corpus (datasets generated once from :data:`CORPUS_SEED`, as a
deployed service would hold them); the seed drives the traffic: query
coordinates, repeat targets and the datasets of sessions registered
mid-run.  The kernel workloads build their inputs through
``ExperimentRunner(seed=...)``.  The program only ever sees the
generated arrays, through its public API, with its default settings.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from benchmarks.e2e import tracing
from repro.apps.barneshut import barneshut_oracle
from repro.apps.base import QuerySet, chunked_sq_dists
from repro.fleet import FleetConfig, FleetRouter
from repro.gpusim.device import TESLA_C2070
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    TraversalLaunch,
)
from repro.harness.config import SCALES
from repro.harness.runner import ExperimentRunner
from repro.points.datasets import dataset_by_name
from repro.points.sorting import morton_order
from repro.service.service import ServiceConfig, TraversalService
from repro.service.sessions import SessionRegistry

PINS_PATH = Path(__file__).with_name("pins.json")

#: Session set S4: (app, dataset, build kwargs).  nn's kd-tree has no
#: bucket size, so it takes no leaf_size.
SESSIONS: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("pc", "geocity", {"radius": 0.01, "leaf_size": 8}),
    ("knn", "random", {"k": 4, "leaf_size": 8}),
    ("nn", "geocity", {}),
    ("vp", "random", {"leaf_size": 8}),
)
APPS = tuple(app for app, _, _ in SESSIONS)
BUILD_KWARGS = {app: kwargs for app, _, kwargs in SESSIONS}
CORPUS_SEED = 0
#: interactive replays one fixed arrival trace (times, and which region
#: of the corpus each query comes from); the run's seed picks the points
#: and repeats.  Arrival coincidences then queue the same way in every
#: run, instead of adding a lottery to the latency quantiles.
TRACE_SEED = 0
#: queries are corpus points moved by this much, so they land where the
#: data is (a uniform query over geocity would mostly hit empty space).
QUERY_JITTER = 1e-3
#: interactive: every REPEAT_EVERY-th query of a session (20%) repeats
#: one of its last REPEAT_WINDOW queries bit for bit (the memo's hits).
REPEAT_EVERY = 5
REPEAT_WINDOW = 32
#: interactive offered load, queries per second.  The CPU backend
#: serves 110-150 q/s on a 2-vCPU host, so the service is 13-18% busy:
#: low enough that a host slowdown of x% lengthens latency by about x%,
#: not the ~2x that queueing at 40 q/s turned it into.
RATE_QPS = 20.0
#: interactive metrics are medians over this many equal parts of the run.
WINDOWS = 3
#: closed loops: one client cycle sends every app once at each size,
#: so a run of whole cycles always has the same mix of work.
CYCLE = 8
#: client 0 registers a fresh session before every CHURN_EVERY-th request.
CHURN_EVERY = 6

KERNEL_CELLS = {
    # (bench, input, sorted points)
    "kernel-lockstep": (("pc", "geocity", True), ("pc", "geocity", False)),
    "kernel-autoropes": (("bh", "plummer", True), ("vp", "random", True)),
}
#: rows per kernel cell checked against an independent brute force.
ORACLE_ROWS = 32


@dataclass(frozen=True)
class Sizes:
    n_data: int
    big_rows: int
    small_rows: int
    kernel_scale: Dict[str, str]
    setup_reps: int


FULL = Sizes(
    n_data=8192, big_rows=128, small_rows=16,
    kernel_scale={"kernel-lockstep": "medium", "kernel-autoropes": "small"},
    setup_reps=5,
)
#: --smoke: every path still taken (64 rows scatter in the fleet, 8 rows
#: clear min_gpu_batch), at sizes that finish in a second or two.
SMOKE = Sizes(
    n_data=1024, big_rows=64, small_rows=8,
    kernel_scale={"kernel-lockstep": "tiny", "kernel-autoropes": "tiny"},
    setup_reps=2,
)


def stream_rng(seed: int, tag: int) -> np.random.Generator:
    """An independent random stream per (seed, purpose)."""
    return np.random.default_rng([seed, tag])


def corpus(n: int) -> Dict[str, np.ndarray]:
    """The S4 datasets, each stored in Morton order (see draw_queries)."""
    cache: Dict[str, np.ndarray] = {}
    out = {}
    for app, dataset, _ in SESSIONS:
        if dataset not in cache:
            points = dataset_by_name(dataset, n, seed=CORPUS_SEED).points
            cache[dataset] = points[morton_order(points)]
        out[app] = cache[dataset]
    return out


def draw_queries(rng, data: np.ndarray, rows: int,
                 order_rng=None) -> np.ndarray:
    """``rows`` queries, one near a point of each of ``rows`` equal
    slices of ``data`` (Morton-ordered, so each slice is one region).

    A query's cost depends on where it lands: a pc query in geocity's
    biggest city counts thousands of neighbours, one between cities
    almost none.  Plain random draws make every run's total work a
    different sample of that long tail; one draw per region keeps the
    work of a run, and of each request, nearly the same for every seed.
    Rows come back in an order shuffled by ``order_rng`` (default
    ``rng``), so sorting still has work to do.
    """
    edges = np.linspace(0, len(data), rows + 1).astype(np.int64)
    picks = rng.integers(edges[:-1], np.maximum(edges[1:], edges[:-1] + 1))
    points = data[(order_rng or rng).permutation(picks)]
    return points + rng.normal(0.0, QUERY_JITTER, points.shape)


def fresh_dataset(rng, data: np.ndarray) -> np.ndarray:
    """A new snapshot of one corpus dataset: reordered and moved by a
    hair, so it builds a new tree and plan but costs the same to query."""
    return data[rng.permutation(len(data))] + rng.normal(0.0, 1e-6, data.shape)


def timed_setup(build: Callable[[], Any], reps: int,
                discard: Callable[[Any], None]) -> Tuple[Any, float]:
    """Build ``reps`` times, keep the last; the median build seconds."""
    times: List[float] = []
    obj = None
    for _ in range(reps):
        if obj is not None:
            discard(obj)
        t0 = time.perf_counter()
        obj = build()
        times.append(time.perf_counter() - t0)
    return obj, statistics.median(times)


def union_s(intervals: List[Tuple[float, float]]) -> float:
    """Total time covered by at least one interval."""
    total, end = 0.0, -np.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process, or (``RUSAGE_CHILDREN``) of the largest
    child reaped so far."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def oracle_wrong(
    sessions: Dict[str, Tuple[str, np.ndarray]],
    answered: List[Tuple[str, np.ndarray, dict]],
) -> int:
    """Rows whose answer differs from ``TreeSession.oracle``.

    The oracle sessions are built here from the benchmark's own arrays,
    not taken from the program.  Integers must match exactly, floats to
    ``allclose(rtol=1e-9, atol=1e-9)`` (the fleet audit's tolerance).
    """
    registry = SessionRegistry()
    by_session: Dict[str, List[Tuple[np.ndarray, dict]]] = {}
    for name, coords, result in answered:
        by_session.setdefault(name, []).append((coords, result))
    wrong = 0
    for name, rows in by_session.items():
        app, data = sessions[name]
        registry.register(name, app, data, **BUILD_KWARGS[app])
        expected = registry.get(name).oracle(np.stack([c for c, _ in rows]))
        for i, (_, result) in enumerate(rows):
            for key, exp in expected.items():
                got = np.asarray(result[key])
                if np.issubdtype(exp.dtype, np.floating):
                    good = np.allclose(got, exp[i], rtol=1e-9, atol=1e-9)
                else:
                    good = np.array_equal(got, exp[i])
                if not good:
                    wrong += 1
                    break
    return wrong


def _latency_metrics(lat_ms: np.ndarray) -> Dict[str, float]:
    """Median and p95 (an interactive run of 300 queries keeps 15 beyond
    p95)."""
    p50, p95 = np.percentile(lat_ms, [50, 95])
    return {"latency_p50_ms": float(p50), "latency_p95_ms": float(p95)}


# -- service workloads --------------------------------------------------------


def build_service(n_data: int, rec) -> Tuple[TraversalService, dict]:
    data = corpus(n_data)
    svc = TraversalService(ServiceConfig())
    if rec is not None:
        tracing.instrument_service(rec, svc)
    for app in APPS:
        svc.register(app, app, data[app], **BUILD_KWARGS[app])
    return svc, data


def run_interactive(seed: int, seconds: float, sizes: Sizes, rec) -> dict:
    """Open loop: Poisson single-row arrivals through ``submit``.

    Given their count, a Poisson process's arrival times are sorted
    uniform draws; fixing the count at rate x seconds fixes the offered
    load.  The logical clock is the arrival's scheduled ms, and the
    load generator calls ``advance`` at each batch-window deadline it
    computes from its own pending tickets.

    Capacity and latency are medians over :data:`WINDOWS` consecutive
    equal parts of the arrival trace.  p95 is fragile otherwise: a burst
    of host slowness covering 5% of the run owns the slowest 5% of
    queries.
    """
    (svc, data), setup_s = timed_setup(
        lambda: build_service(sizes.n_data, rec), sizes.setup_reps,
        lambda _: None,
    )
    rng = stream_rng(seed, 1)
    trace = stream_rng(TRACE_SEED, 2)
    n = max(WINDOWS, int(round(RATE_QPS * seconds)))
    arrivals = np.sort(trace.uniform(0.0, seconds, n))
    # Sessions take turns; a session's k-th query repeats one of its
    # last REPEAT_WINDOW queries when (k + 1) % REPEAT_EVERY == 0.
    fresh = {}
    for a, app in enumerate(APPS):
        count = len(range(a, n, len(APPS)))
        fresh[app] = iter(draw_queries(
            rng, data[app], count - count // REPEAT_EVERY, order_rng=trace
        ))
    recent: Dict[str, List[np.ndarray]] = {app: [] for app in APPS}
    queries: List[Tuple[str, np.ndarray]] = []
    for i in range(n):
        app = APPS[i % len(APPS)]
        hist = recent[app]
        if (i // len(APPS) + 1) % REPEAT_EVERY == 0:
            coords = hist[int(rng.integers(len(hist)))]
        else:
            coords = next(fresh[app])
        hist.append(coords)
        del hist[:-REPEAT_WINDOW]
        queries.append((app, coords))

    max_wait = svc.config.max_wait_ms
    tickets: List[Any] = [None] * n
    lat = np.zeros(n)
    lags: List[float] = []
    calls: List[Tuple[float, float]] = []
    pending: List[Tuple[Any, int]] = []
    if rec is not None:
        rec.phase = "run"
    t0 = time.perf_counter()
    i = 0
    while i < n or pending:
        t_arrival = arrivals[i] * 1e3 if i < n else np.inf
        t_deadline = (
            min(t.t_submit for t, _ in pending) + max_wait
            if pending else np.inf
        )
        t_next = min(t_arrival, t_deadline)
        delay = t0 + t_next / 1e3 - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if t_deadline <= t_arrival:
            c0 = time.perf_counter()
            svc.advance(now=t_deadline)
            c1 = time.perf_counter()
            calls.append((c0, c1))
            still = []
            for ticket, k in pending:
                if ticket.done:
                    lat[k] = c1 - (t0 + arrivals[k])
                else:
                    still.append((ticket, k))
            pending = still
            continue
        app, coords = queries[i]
        if rec is not None:
            rec.set_request(i)
        c0 = time.perf_counter()
        lags.append(1e3 * (c0 - (t0 + arrivals[i])))
        ticket = svc.submit(app, coords, now=t_arrival)
        c1 = time.perf_counter()
        calls.append((c0, c1))
        tickets[i] = ticket
        if ticket.done:
            lat[i] = c1 - (t0 + arrivals[i])
        else:
            pending.append((ticket, i))
        i += 1
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    if rec is not None:
        rec.phase = "check"

    window = np.arange(n) * WINDOWS // n
    starts = [t0 + arrivals[np.argmax(window == w)] for w in range(1, WINDOWS)]
    call_window = np.searchsorted(starts, [c0 for c0, _ in calls], side="right")
    call_s = np.array([c1 - c0 for c0, c1 in calls])
    per_window = [
        {
            "capacity_qps": (window == w).sum() / call_s[call_window == w].sum(),
            **_latency_metrics(1e3 * lat[window == w]),
        }
        for w in range(WINDOWS)
    ]
    windowed = {
        key: statistics.median(m[key] for m in per_window)
        for key in per_window[0]
    }

    failed = sum(1 for t in tickets if not t.ok)
    answered = [
        (app, coords, t.result)
        for (app, coords), t in zip(queries, tickets) if t.ok
    ]
    failed += oracle_wrong({app: (app, data[app]) for app in APPS}, answered)
    busy = sum(c1 - c0 for c0, c1 in calls)
    served = [t for t in tickets if t.ok and t.backend != "memo"]
    return {
        "attempted": n,
        "failed": failed,
        "end_to_end": {
            "setup_s": setup_s,
            "throughput_qps": n / wall,
            **windowed,
            "rss_peak_mb": rss,
        },
        "trace_inputs": {
            "busy_s": busy,
            "requests": n,
            "lags_ms": lags,
            "wait_ms": [t.wait_ms for t in served],
            "batch_sizes": list(
                {(t.session, t.batch_id): t.batch_size for t in served}.values()
            ),
            "memo_hit_ratio": svc.stats().memo.hit_rate,
            "plan_stats": svc.plan_cache.stats(),
            "retries": svc.resilience.retries,
        },
        "detail": {"queries": n, "memo_hits": n - len(served)},
    }


def client_requests(
    seed: int, client: int, sizes: Sizes, data: Dict[str, np.ndarray]
) -> Iterator[Tuple[Optional[tuple], str, np.ndarray]]:
    """One closed-loop client's endless request stream.

    Each item is ``(registration or None, app, coords)``.  Request ``j``
    alternates big and small row counts; the app order makes every
    :data:`CYCLE` consecutive requests send each app once at each size.
    Client 0 registers a fresh session of the next app (round-robin)
    before every :data:`CHURN_EVERY`-th request and queries it from then
    on.  The stream depends only on (seed, client), so ``bulk`` and
    ``fleet`` send the same bytes.
    """
    rng = stream_rng(seed, 10 + client)
    churn = 0
    j = 0
    while True:
        registration = None
        if client == 0 and j % CHURN_EVERY == CHURN_EVERY - 1:
            app = APPS[churn % len(APPS)]
            registration = (app, f"{app}-churn{churn}",
                            fresh_dataset(rng, data[app]))
            churn += 1
        app = APPS[(j + j // 4 + 2 * client) % len(APPS)]
        rows = sizes.big_rows if j % 2 == 0 else sizes.small_rows
        yield registration, app, draw_queries(rng, data[app], rows)
        j += 1


class FifoLock:
    """A lock granted in request order: a single-threaded server's queue.

    With two closed-loop clients it makes them alternate, so each
    request waits for exactly one request of the other client in every
    run (an unfair lock lets the interleaving, and with it the latency
    quantiles, change from run to run).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._issued = 0
        self._serving = 0

    def acquire(self) -> None:
        with self._cond:
            ticket = self._issued
            self._issued += 1
            while ticket != self._serving:
                self._cond.wait()

    def release(self) -> None:
        with self._cond:
            self._serving += 1
            self._cond.notify_all()


@contextmanager
def _holding(lock, rec):
    """The serve-mode shared lock (None: clients run concurrently)."""
    if lock is None:
        yield
        return
    if rec is None:
        lock.acquire()
    else:
        with rec.span("loadgen.lock_wait"):
            lock.acquire()
    try:
        yield
    finally:
        lock.release()


def run_closed_loop(
    seed: int, seconds: float, sizes: Sizes, data: Dict[str, np.ndarray],
    query: Callable[[str, np.ndarray], List[Tuple[bool, Optional[dict]]]],
    register: Callable[[str, str, np.ndarray], Any],
    lock, rec, rss: Callable[[], float],
) -> dict:
    """Two closed-loop clients; each sends whole cycles until time is up.

    ``rss`` is sampled as soon as the clients finish, before the oracle
    check allocates its distance matrices.
    """
    records: List[list] = [[], []]
    errors: List[BaseException] = []
    t0 = time.perf_counter()

    def client(c: int) -> None:
        try:
            current = {app: app for app in APPS}
            stream = client_requests(seed, c, sizes, data)
            j = 0
            while j % CYCLE or time.perf_counter() - t0 < seconds:
                registration, app, coords = next(stream)
                if rec is not None:
                    rec.set_request(f"c{c}r{j}")
                t_issue = time.perf_counter()
                with _holding(lock, rec):
                    c0 = time.perf_counter()
                    if registration is not None:
                        reg_app, name, reg_data = registration
                        register(name, reg_app, reg_data)
                        current[reg_app] = name
                    answers = query(current[app], coords)
                    c1 = time.perf_counter()
                records[c].append(
                    (t_issue, c0, c1, current[app], coords, answers,
                     registration)
                )
                j += 1
        except Exception as exc:  # re-raised by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(c,)) for c in (0, 1)]
    if rec is not None:
        rec.phase = "run"
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    rss_mb = rss()
    if rec is not None:
        rec.phase = "check"
    if errors:
        raise errors[0]

    flat = [r for per_client in records for r in per_client]
    wall = max(r[2] for r in flat) - t0
    rows = sum(len(r[4]) for r in flat)
    calls = [(r[1], r[2]) for r in flat]
    sessions = {app: (app, data[app]) for app in APPS}
    answered = []
    failed = 0
    for _, _, _, name, coords, answers, registration in flat:
        if registration is not None:
            sessions[registration[1]] = (registration[0], registration[2])
        for row, (ok, result) in zip(coords, answers):
            if ok:
                answered.append((name, row, result))
            else:
                failed += 1
    failed += oracle_wrong(sessions, answered)
    lat_ms = np.array([1e3 * (r[2] - r[0]) for r in flat])
    return {
        "attempted": rows,
        "failed": failed,
        "end_to_end": {
            "throughput_qps": rows / wall,
            "capacity_qps": rows / union_s(calls),
            **_latency_metrics(lat_ms),
            "rss_peak_mb": rss_mb,
        },
        "trace_inputs": {
            "busy_s": sum(c1 - c0 for c0, c1 in calls),
            "requests": len(flat),
        },
        "detail": {
            "requests": len(flat),
            "registrations": sum(1 for r in flat if r[6] is not None),
            "wall_s": wall,
        },
    }


def run_bulk(seed: int, seconds: float, sizes: Sizes, rec) -> dict:
    (svc, data), setup_s = timed_setup(
        lambda: build_service(sizes.n_data, rec), sizes.setup_reps,
        lambda _: None,
    )

    tickets: List[Any] = []

    def query(name, coords):
        answered = svc.query_many(name, coords)
        tickets.extend(answered)
        return [(t.ok, t.result) for t in answered]

    def register(name, app, reg_data):
        svc.register(name, app, reg_data, **BUILD_KWARGS[app])

    out = run_closed_loop(
        seed, seconds, sizes, data, query, register, FifoLock(), rec,
        peak_rss_mb,
    )
    out["end_to_end"]["setup_s"] = setup_s
    out["trace_inputs"].update(
        wait_ms=[t.wait_ms for t in tickets],
        batch_sizes=list(
            {(t.session, t.batch_id): t.batch_size for t in tickets}.values()
        ),
        memo_hit_ratio=svc.stats().memo.hit_rate,
        plan_stats=svc.plan_cache.stats(),
        retries=svc.resilience.retries,
    )
    return out


def run_fleet(seed: int, seconds: float, sizes: Sizes, rec) -> dict:
    def boot() -> Tuple[FleetRouter, dict]:
        data = corpus(sizes.n_data)
        router = FleetRouter(FleetConfig(workers=2))
        router.start()
        try:
            if rec is not None:
                tracing.instrument_router(rec, router)
            for app in APPS:
                router.register(app, app, data[app], **BUILD_KWARGS[app])
        except BaseException:
            router.drain()
            raise
        return router, data

    (router, data), setup_s = timed_setup(
        boot, sizes.setup_reps, lambda booted: booted[0].drain()
    )
    try:
        def query(name, coords):
            return [(r["ok"], r["result"]) for r in router.submit_many(name, coords)]

        def register(name, app, reg_data):
            router.register(name, app, reg_data, **BUILD_KWARGS[app])

        out = run_closed_loop(
            seed, seconds, sizes, data, query, register, None, rec,
            peak_rss_mb,
        )
    finally:
        report = router.drain()
    if not report["ok"]:
        raise RuntimeError(f"fleet did not drain clean: {report}")
    # drain() joined the workers, so their peaks are now visible.
    out["end_to_end"]["rss_peak_mb"] = max(
        out["end_to_end"]["rss_peak_mb"], peak_rss_mb(resource.RUSAGE_CHILDREN)
    )
    out["end_to_end"]["setup_s"] = setup_s
    return out


# -- kernel workloads ---------------------------------------------------------


def _cell_name(bench: str, dataset: str, sorted_points: bool, scale: str,
               executor: str) -> str:
    suffix = "" if sorted_points else "-unsorted"
    return f"{bench}/{dataset}{suffix}@{scale}/{executor}"


def sampled_oracle_ok(bench: str, app, out: Dict[str, np.ndarray],
                      rows: np.ndarray) -> bool:
    """Check ``rows`` of one launch's output against brute force.

    A full brute force of a medium cell takes longer than the launch
    (seconds for pc, ~15 s for bh), so a seeded sample of rows is
    checked; later launches of the cell must then match the first
    bit for bit.
    """
    q = QuerySet(app.queries.coords[rows], app.queries.orig_ids[rows])
    if bench == "bh":
        x = app.extras
        want = barneshut_oracle(
            app.tree, q, float(x["dsq0"][0]), app.params["eps_sq"],
            x["body_coords"], x["body_mass"], x["body_ids"],
        )["acc"]
        return bool(np.allclose(out["acc"][rows], want, rtol=1e-9, atol=1e-12))
    d = chunked_sq_dists(q.coords, app.extras["bucket_coords"])
    own = app.extras["bucket_ids"][None, :] == q.orig_ids[:, None]
    if bench == "pc":
        want = ((d <= app.params["radius_sq"]) & ~own).sum(axis=1)
        return bool(np.array_equal(out["count"][rows], want))
    if bench == "vp":
        d[own] = np.inf
        return bool(np.allclose(
            out["nn_dist"][rows], np.sqrt(d.min(axis=1)), rtol=1e-9, atol=1e-12
        ))
    raise KeyError(f"no sampled oracle for {bench!r}")


def load_pins(key: str, seed: int) -> Optional[Dict[str, dict]]:
    if not PINS_PATH.exists():
        return None
    return json.loads(PINS_PATH.read_text()).get(key, {}).get(str(seed))


def store_pins(key: str, seed: int, counters: Dict[str, dict]) -> None:
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    pins.setdefault(key, {})[str(seed)] = counters
    pins[key] = dict(sorted(pins[key].items(), key=lambda kv: int(kv[0])))
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def run_kernel(workload: str, seed: int, seconds: float, sizes: Sizes, rec,
               pins_key: str, record_pins: bool) -> dict:
    """Closed loop of launches: whole passes over the cell list until
    time is up (one pass when recording pins)."""
    executor = workload.split("-", 1)[1]
    scale = sizes.kernel_scale[workload]
    cls = LockstepExecutor if executor == "lockstep" else AutoropesExecutor

    def build():
        runner = ExperimentRunner(scale=SCALES[scale], seed=seed)
        if rec is not None:
            tracing.instrument_plans(rec, runner.plans)
        cells = []
        for bench, dataset, sorted_points in KERNEL_CELLS[workload]:
            app, compiled = runner.app_for(bench, dataset, sorted_points)
            kernel = compiled.lockstep if executor == "lockstep" else compiled.autoropes
            name = _cell_name(bench, dataset, sorted_points, scale, executor)
            cells.append((name, bench, app, kernel))
        return runner, cells

    (runner, cells), setup_s = timed_setup(build, sizes.setup_reps, lambda _: None)
    pins = None if record_pins else load_pins(pins_key, seed)
    rng = stream_rng(seed, 30)
    first: Dict[str, Tuple[dict, Dict[str, np.ndarray]]] = {}
    walls: Dict[str, List[float]] = {name: [] for name, _, _, _ in cells}
    failed = 0
    problems: List[str] = []
    if rec is not None:
        rec.phase = "run"
    t0 = time.perf_counter()
    while True:
        for name, bench, app, kernel in cells:
            launch = TraversalLaunch(
                kernel=kernel, tree=app.tree, ctx=app.make_ctx(),
                n_points=app.n_points, device=TESLA_C2070,
            )
            ex = cls(launch)
            c0 = time.perf_counter()
            result = ex.run()
            walls[name].append(time.perf_counter() - c0)
            counters = {
                "steps": int(result.stats.steps),
                "node_visits": int(result.stats.node_visits),
                "warp_node_visits": int(result.stats.warp_node_visits),
                "model_time_ms": float(result.time_ms),
            }
            out = launch.ctx.out
            bad = []
            if name not in first:
                first[name] = (counters, out)
                rows = rng.choice(app.n_points, min(ORACLE_ROWS, app.n_points),
                                  replace=False)
                if not sampled_oracle_ok(bench, app, out, rows):
                    bad.append("oracle")
            elif counters != first[name][0]:
                bad.append("counters differ between launches")
            elif any(not np.array_equal(out[k], v)
                     for k, v in first[name][1].items()):
                bad.append("outputs differ between launches")
            if pins is not None and counters != pins.get(name):
                bad.append(f"counters {counters} != pinned {pins.get(name)}")
            if bad:
                failed += 1
                problems.append(f"{name}: {'; '.join(bad)}")
        if record_pins or time.perf_counter() - t0 >= seconds:
            break
    rss = peak_rss_mb()
    if rec is not None:
        rec.phase = "check"
    # One pass over the cell list at each cell's median launch time: a
    # launch slowed by a passing burst of machine noise drops out.
    points = sum(app.n_points for _, _, app, _ in cells)
    pass_s = sum(statistics.median(w) for w in walls.values())
    every = [w for per_cell in walls.values() for w in per_cell]
    return {
        "attempted": len(every),
        "failed": failed,
        "end_to_end": {
            "setup_s": setup_s,
            "throughput_qps": points / pass_s,
            "capacity_qps": points / pass_s,
            **_latency_metrics(1e3 * np.array(every)),
            "rss_peak_mb": rss,
        },
        "trace_inputs": {
            "busy_s": sum(every),
            "requests": len(every),
            "plan_stats": runner.plans.stats(),
        },
        "detail": {
            "launches": len(every),
            "launch_s": walls,
            "pinned": pins is not None,
            "problems": problems,
            "counters": {name: c for name, (c, _) in first.items()},
        },
    }


# -- entry point --------------------------------------------------------------

SERVICE_RUNNERS = {
    "interactive": run_interactive,
    "bulk": run_bulk,
    "fleet": run_fleet,
}
WORKLOADS = tuple(SERVICE_RUNNERS) + tuple(KERNEL_CELLS)
#: per-layer attribution must account for the measured wall within this.
ATTRIBUTION_TOLERANCE = 0.05


def run_workload(spec: Dict[str, Any]) -> dict:
    workload, seed = spec["workload"], int(spec["seed"])
    seconds = float(spec["seconds"])
    sizes = SMOKE if spec["smoke"] else FULL
    rec = tracing.SpanRecorder() if spec["trace"] else None
    if rec is not None:
        if workload == "fleet":
            tracing.instrument_wire(rec)
        else:
            tracing.instrument_executors(rec)
            tracing.instrument_sorting(rec)
    record = bool(spec.get("record_pins"))
    if workload in KERNEL_CELLS:
        key = workload + ("@smoke" if spec["smoke"] else "")
        out = run_kernel(workload, seed, seconds, sizes, rec, key, record)
        if record and not out["failed"]:
            store_pins(key, seed, out["detail"]["counters"])
    else:
        out = SERVICE_RUNNERS[workload](seed, seconds, sizes, rec)
    problems = list(out["detail"].get("problems", ()))
    if out["failed"]:
        problems.append(f"{out['failed']} of {out['attempted']} failed")
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "smoke": bool(spec["smoke"]),
        "trace": bool(spec["trace"]),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "end_to_end": out["end_to_end"],
        "detail": out["detail"],
    }
    if rec is not None:
        inputs = dict(out["trace_inputs"])
        inputs["throughput_qps"] = out["end_to_end"]["throughput_qps"]
        result["per_layer"] = tracing.layer_metrics(rec, inputs)
        result["layer_self_ms"] = tracing.layer_self_ms(rec)
        coverage = result["per_layer"]["trace.coverage"]
        if abs(coverage - 1.0) > ATTRIBUTION_TOLERANCE:
            problems.append(
                f"layer self times cover {coverage:.3f} of the measured "
                f"call wall time (tolerance {ATTRIBUTION_TOLERANCE})"
            )
        if spec.get("chrome_trace"):
            rec.write_chrome_trace(spec["chrome_trace"])
    result["problems"] = problems
    result["correct"] = not problems
    return result


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(argv[0])
    result = run_workload(spec)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh, indent=2)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
