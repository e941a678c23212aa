"""Outside-in layer attribution for the end-to-end benchmark.

The benchmark never edits the program to time it.  A traced run wraps
the public functions of each layer *from the benchmark side* and
records one span per call: name, start, end, parent span, request id,
thread.  Spans stay in memory and are written as a Chrome trace when
the run ends.  A span's self time is its duration minus the time its
children cover; children run on the caller's thread, so they never
overlap each other and the cover is their summed duration.

Layers are named after the modules they wrap:

=============  ========================================================
``service``    ``TraversalService.submit/advance/flush/query_many/register``
``dispatch``   ``svc.dispatcher.decide`` and ``.execute`` (the CPU
               backend is ``execute`` with ``backend="cpu"``)
``sorting``    ``morton_order`` / ``kd_bucket_order`` as the service sees them
``sessions``   ``SessionRegistry.register`` (tree build + plan lookup)
``plancache``  ``PlanCache.get_or_compile``
``executors``  ``LockstepExecutor.run`` / ``AutoropesExecutor.run``
``router``     ``FleetRouter.submit_many`` / ``.register``
``wire``       ``repro.fleet.wire.send_request`` / ``recv_reply``
``loadgen``    the benchmark's own shared-lock wait
=============  ========================================================
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

#: spans of these layers are the benchmark's own time, not the program's.
BENCHMARK_LAYERS = ("loadgen",)


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "request", "tid", "phase",
                 "meta", "child_s")

    def __init__(self, name, parent, request, tid, phase, meta) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.tid = tid
        self.phase = phase
        self.meta = meta
        self.t0 = self.t1 = 0.0
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """In-memory span store fed by wrappers around layer entry points.

    ``phase`` tags every span opened while it is set (``"setup"`` or
    ``"run"``), so the attribution check can restrict itself to the
    timed window.  Request ids are per thread (:meth:`set_request`).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self._local = threading.local()

    def set_request(self, request: Any) -> None:
        self._local.request = request

    def _open(self, name: str, meta: Dict[str, Any]) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            name, stack[-1] if stack else None,
            getattr(self._local, "request", None),
            threading.get_ident(), self.phase, meta,
        )
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.dur
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        """A span around a block of the benchmark's own code."""
        span = self._open(name, meta)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        pre: Optional[Callable[[tuple, dict], dict]] = None,
        post: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``pre(args, kwargs)`` runs before the call and ``post(args,
        kwargs, result)`` after the span closes, so neither is counted
        in the wrapped layer's time.
        """
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            span = recorder._open(name, pre(args, kwargs) if pre else {})
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(span)
            if post is not None:
                span.meta.update(post(args, kwargs, result))
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def run_spans(self) -> List[Span]:
        return [s for s in self.spans if s.phase == "run"]

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto)."""
        base = min((s.t0 for s in self.spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.t0):
            args = {"phase": s.phase, "self_ms": round(s.self_s * 1e3, 4)}
            if s.request is not None:
                args["request"] = s.request
            args.update({k: _jsonable(v) for k, v in s.meta.items()})
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": tids.setdefault(s.tid, len(tids) + 1),
                "ts": round((s.t0 - base) * 1e6, 3),
                "dur": round(s.dur * 1e6, 3),
                "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return value


# -- instrumentation ----------------------------------------------------------


def _launch_counters(args, kwargs, result) -> dict:
    return {
        "steps": int(result.stats.steps),
        "node_visits": int(result.stats.node_visits),
    }


def instrument_executors(rec: SpanRecorder) -> None:
    """Class-level wrappers: every launch in this process is traced."""
    from repro.gpusim.executors import AutoropesExecutor, LockstepExecutor

    rec.wrap(LockstepExecutor, "run", "executors.lockstep",
             post=_launch_counters)
    rec.wrap(AutoropesExecutor, "run", "executors.autoropes",
             post=_launch_counters)


def instrument_sorting(rec: SpanRecorder) -> None:
    """The sort functions under the names the service module calls."""
    import repro.service.service as service_module

    for fn in ("morton_order", "kd_bucket_order"):
        rec.wrap(service_module, fn, f"sorting.{fn}")


def instrument_plans(rec: SpanRecorder, plans) -> None:
    rec.wrap(plans, "get_or_compile", "plancache.get_or_compile",
             pre=lambda a, k: {"miss": a[0] not in plans})


def _execute_meta(args, kwargs) -> dict:
    backend = args[2] if len(args) > 2 else kwargs["backend"]
    return {"backend": backend, "rows": len(args[1])}


def instrument_service(rec: SpanRecorder, svc) -> None:
    """Instance-level wrappers on one TraversalService and its parts."""
    for method in ("submit", "advance", "flush", "query_many", "register"):
        rec.wrap(svc, method, f"service.{method}")
    rec.wrap(svc.dispatcher, "decide", "dispatch.decide")
    rec.wrap(svc.dispatcher, "execute", "dispatch.execute", pre=_execute_meta)
    rec.wrap(svc.registry, "register", "sessions.register")
    instrument_plans(rec, svc.registry.plans)


def _frame_meta(args, kwargs) -> dict:
    coords = kwargs.get("coords")
    return {
        "worker": args[1], "cmd": args[2],
        "rows": 0 if coords is None else len(coords),
    }


def _frame_kb(args, kwargs, result) -> dict:
    from repro.fleet import wire

    frame = wire.request(args[2], **kwargs)
    return {"kb": len(ForkingPickler.dumps(frame)) / 1024.0}


def instrument_wire(rec: SpanRecorder) -> None:
    from repro.fleet import wire

    rec.wrap(wire, "send_request", "wire.send_request",
             pre=_frame_meta, post=_frame_kb)
    rec.wrap(wire, "recv_reply", "wire.recv_reply")


def instrument_router(rec: SpanRecorder, router) -> None:
    rec.wrap(router, "submit_many", "router.submit_many",
             pre=lambda a, k: {"rows": len(a[1])})
    rec.wrap(router, "register", "router.register")


# -- per-layer metrics --------------------------------------------------------


def _select(spans: List[Span], name: str, **match: Any) -> List[Span]:
    return [
        s for s in spans
        if s.name == name and all(s.meta.get(k) == v for k, v in match.items())
    ]


def _mean_ms(spans: List[Span]) -> float:
    return 1e3 * sum(s.dur for s in spans) / len(spans) if spans else 0.0


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rec: SpanRecorder, run: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric from the spans plus the load generator's counts.

    ``run`` carries what only the load generator knows: ``busy_s`` (its own
    clock around every program call of the timed window), ``requests``,
    and the optional ``lags_ms``, ``wait_ms``, ``batch_sizes``,
    ``memo_hit_ratio``, ``plan_stats``, ``retries``.  A layer the
    workload never reaches reports 0.
    """
    spans = rec.run_spans()
    every = rec.spans
    busy = run["busy_s"]
    requests = max(1, run["requests"])
    m: Dict[str, float] = {}

    m["loadgen.lag_p99_ms"] = _pct(run.get("lags_ms", ()), 99)
    service_self = sum(s.self_s for s in spans if s.layer == "service")
    m["service.self_ms_per_req"] = 1e3 * service_self / requests
    m["batcher.wait_ms_p50"] = _pct(run.get("wait_ms", ()), 50)
    m["batcher.wait_ms_p99"] = _pct(run.get("wait_ms", ()), 99)
    sizes = run.get("batch_sizes", ())
    m["batcher.batch_size_mean"] = float(np.mean(sizes)) if len(sizes) else 0.0
    m["memo.hit_ratio"] = run.get("memo_hit_ratio", 0.0)

    sorts = [s for s in spans if s.layer == "sorting"]
    m["sorting.ms_per_batch"] = _mean_ms(sorts)
    decides = _select(spans, "dispatch.decide")
    m["dispatch.decide_ms_per_batch"] = _mean_ms(decides)
    m["dispatch.decide_share"] = sum(s.dur for s in decides) / busy
    for backend in ("lockstep", "nonlockstep", "cpu"):
        execs = _select(spans, "dispatch.execute", backend=backend)
        m[f"dispatch.execute_ms_per_batch.{backend}"] = _mean_ms(execs)
        m[f"dispatch.batches.{backend}"] = float(len(execs))
    m["dispatch.retries"] = float(run.get("retries", 0))
    cpu = _select(spans, "dispatch.execute", backend="cpu")
    cpu_rows = sum(s.meta["rows"] for s in cpu)
    m["cpusim.ms_per_query"] = (
        1e3 * sum(s.dur for s in cpu) / cpu_rows if cpu_rows else 0.0
    )

    launches = [s for s in spans if s.layer == "executors"]
    for kind in ("lockstep", "autoropes"):
        runs = _select(spans, f"executors.{kind}")
        m[f"executors.run_s.{kind}"] = _mean_ms(runs) / 1e3
    steps = sum(s.meta["steps"] for s in launches)
    m["executors.steps"] = steps / len(launches) if launches else 0.0
    m["executors.node_visits"] = (
        sum(s.meta["node_visits"] for s in launches) / len(launches)
        if launches else 0.0
    )
    m["executors.us_per_step"] = (
        1e6 * sum(s.dur for s in launches) / steps if steps else 0.0
    )

    plan_stats = run.get("plan_stats")
    m["plancache.hit_ratio"] = plan_stats.hit_rate if plan_stats else 0.0
    m["plancache.compile_ms"] = _mean_ms(
        _select(every, "plancache.get_or_compile", miss=True)
    )
    m["plancache.codegen_emit_ms"] = (
        plan_stats.codegen_emit_ms if plan_stats else 0.0
    )
    m["sessions.register_ms"] = _mean_ms(_select(every, "sessions.register"))

    submits = _select(spans, "router.submit_many")
    m["router.submit_ms_p50"] = _pct([1e3 * s.dur for s in submits], 50)
    router_self = sum(s.self_s for s in spans if s.layer == "router")
    m["router.self_share"] = router_self / busy
    frames = _select(spans, "wire.send_request")
    # A scattered request sends one submit frame per worker slice.
    frames_per_submit: Dict[int, int] = {}
    for f in frames:
        if f.parent is not None and f.parent.name == "router.submit_many":
            key = id(f.parent)
            frames_per_submit[key] = frames_per_submit.get(key, 0) + 1
    scattered = sum(1 for n in frames_per_submit.values() if n > 1)
    m["router.scatter_share"] = scattered / len(submits) if submits else 0.0
    m["router.register_ms"] = _mean_ms(_select(every, "router.register"))
    rows_per_worker: Dict[str, int] = {}
    for f in frames:
        if f.meta["cmd"] == "submit":
            rows_per_worker[f.meta["worker"]] = (
                rows_per_worker.get(f.meta["worker"], 0) + f.meta["rows"]
            )
    if rows_per_worker and sum(rows_per_worker.values()):
        per = list(rows_per_worker.values())
        m["router.rows_max_over_mean"] = max(per) / (sum(per) / len(per))
    else:
        m["router.rows_max_over_mean"] = 0.0
    m["wire.frames"] = float(len(frames))
    m["wire.send_ms_per_frame"] = _mean_ms(frames)
    m["wire.send_kb_per_frame"] = (
        sum(f.meta["kb"] for f in frames) / len(frames) if frames else 0.0
    )
    m["wire.recv_wait_ms_per_frame"] = _mean_ms(_select(spans, "wire.recv_reply"))

    m["trace.coverage"] = attributed_s(rec) / busy
    m["trace.throughput_qps"] = run["throughput_qps"]
    return m


def attributed_s(rec: SpanRecorder) -> float:
    """Program self time inside the timed window (benchmark spans out)."""
    return sum(
        s.self_s for s in rec.run_spans() if s.layer not in BENCHMARK_LAYERS
    )


def layer_self_ms(rec: SpanRecorder) -> Dict[str, float]:
    """Timed-window self time per layer, for the report."""
    out: Dict[str, float] = {}
    for s in rec.run_spans():
        out[s.layer] = out.get(s.layer, 0.0) + 1e3 * s.self_s
    return {k: round(v, 3) for k, v in sorted(out.items())}
