"""Serve mode: the service behind pull-based HTTP telemetry endpoints.

``python -m repro.service --serve`` keeps a :class:`TraversalService`
alive behind a stdlib :class:`~http.server.ThreadingHTTPServer` (no
third-party dependencies) so scrapers and probes can *pull* state the
way production monitoring does:

* ``GET /metrics``  — Prometheus text exposition of the full registry;
* ``GET /healthz``  — readiness JSON from
  :meth:`~repro.service.service.TraversalService.health` (HTTP 503
  while degraded: an open breaker, a saturated queue, or an SLO fast
  burn);
* ``GET /statsz``   — the strict-JSON
  :class:`~repro.service.stats.ServiceStats` snapshot;
* ``GET /profilez`` — the continuous kernel profiler's ranked hot-op
  and per-depth attribution (:meth:`KernelProfiler.snapshot`);
* ``GET /tracez``   — the most recent spans (``?limit=N``) plus the
  tracer's drop counter;
* ``GET /logz``     — the structured event log (``?limit=N``,
  ``?level=warn`` severity floor, ``?trace_id=...`` correlation
  filter) — the logging pillar joined to traces on trace ids;
* ``GET /debugz``   — one strict-JSON diagnostics snapshot: config,
  engines, plan cache, breaker states, flight dumps, recent errors.

The service itself stays single-threaded in spirit: every handler and
the optional synthetic-load driver serialize on one
:class:`threading.RLock`, so the logical clock and all counters keep
their deterministic semantics; HTTP threading only overlaps socket I/O.

Shutdown is graceful by contract: :meth:`TraversalServer.shutdown`
stops the load driver, then force-flushes every pending query under
the lock (drain-or-fail — each ticket resolves with a result or a
typed error, never silently dropped) before the listener closes.  The
CLI wires SIGTERM/SIGINT to exactly this path.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from typing import TYPE_CHECKING, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.service.resilience import ServiceError
from repro.service.service import TraversalService
from repro.telemetry import LEVELS
from repro.telemetry.metrics import OPENMETRICS_CONTENT_TYPE

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

#: OpenMetrics exposition content type — the format the registry emits
#: (exemplars require it; a real Prometheus negotiates and parses it).
METRICS_CONTENT_TYPE = OPENMETRICS_CONTENT_TYPE
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: default span count returned by /tracez (override with ?limit=N).
TRACEZ_DEFAULT_LIMIT = 256

#: default record count returned by /logz (override with ?limit=N).
LOGZ_DEFAULT_LIMIT = 256


class SyntheticLoadDriver(threading.Thread):
    """Background query generator for serve mode.

    Each wall-clock tick advances the *logical* clock by ``tick_ms``
    and submits ``queries_per_tick`` seeded random queries round-robin
    across the registered sessions, so a scraped ``/metrics`` shows a
    live, moving system.  Determinism: the submitted coordinates and
    logical timestamps depend only on the seed and tick count, never
    on wall time — wall time only paces the loop.
    """

    def __init__(
        self,
        service: TraversalService,
        lock: threading.RLock,
        *,
        seed: int = 7,
        tick_ms: float = 2.0,
        queries_per_tick: int = 8,
        interval_s: float = 0.05,
        record: Optional[List] = None,
    ) -> None:
        super().__init__(name="serve-load-driver", daemon=True)
        if tick_ms <= 0:
            raise ValueError(f"tick_ms must be positive, got {tick_ms}")
        if queries_per_tick < 0:
            raise ValueError(
                f"queries_per_tick must be >= 0, got {queries_per_tick}"
            )
        self.service = service
        self.lock = lock
        self.tick_ms = float(tick_ms)
        self.queries_per_tick = int(queries_per_tick)
        self.interval_s = float(interval_s)
        self.ticks = 0
        self.submitted = 0
        self.rejected = 0
        #: when given, every admitted ticket is appended here — the
        #: fleet benchmark audits load-driver traffic ticket by ticket.
        self.record = record
        # NB: not "_stop" — that would shadow threading.Thread._stop().
        self._halt = threading.Event()
        self._rng = np.random.default_rng(seed)
        with lock:
            names = service.registry.names()
            self._pools = {}
            for name in names:
                data = service.registry.get(name).data
                jitter = self._rng.normal(scale=0.01, size=data.shape)
                self._pools[name] = np.clip(
                    data + jitter, data.min(axis=0), data.max(axis=0)
                )
        self._names = list(names)

    def run(self) -> None:
        while not self._halt.is_set():
            self.tick()
            self._halt.wait(self.interval_s)

    def tick(self) -> None:
        """One load step (public so tests can drive it synchronously)."""
        if not self._names:
            return
        with self.lock:
            now = self.service.now_ms + self.tick_ms
            self.service.advance(now)
            for i in range(self.queries_per_tick):
                name = self._names[(self.ticks + i) % len(self._names)]
                pool = self._pools[name]
                coord = pool[int(self._rng.integers(len(pool)))]
                try:
                    ticket = self.service.submit(name, coord, now=now)
                    self.submitted += 1
                    if self.record is not None:
                        self.record.append(ticket)
                except ServiceError:
                    # Admission control refused it; the client saw a
                    # typed error and nothing was queued.
                    self.rejected += 1
            self.ticks += 1

    def stop(self, timeout: float = 5.0) -> None:
        self._halt.set()
        if self.is_alive():
            self.join(timeout)


class TraversalServer:
    """HTTP front-end owning one service and one lock (see module doc)."""

    def __init__(
        self,
        service: TraversalService,
        host: str = "127.0.0.1",
        port: int = 0,
        driver: Optional[SyntheticLoadDriver] = None,
        otlp=None,
    ) -> None:
        self.service = service
        self.lock = threading.RLock()
        self.host = host
        self.port = port
        self.driver = driver
        #: optional repro.telemetry.OTLPExporter; single-process egress
        #: pulls from the tracer's outbox on the exporter's own thread.
        self.otlp = otlp
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._shut = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, start serving on a daemon thread, start the driver.

        Returns the bound ``(host, port)`` — with ``port=0`` the OS
        picks a free one, which the smoke tests rely on.
        """
        if self._httpd is not None:
            raise RuntimeError("server already started")
        # Imported on first listen: a process that serves no HTTP never
        # loads http.server, http.client or ssl.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class _Handler(BaseHTTPRequestHandler):
            server_version = "repro-serve/1.0"
            protocol_version = "HTTP/1.1"

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                try:
                    status, ctype, body = server.respond(self.path)
                except Exception as exc:  # defensive: a handler bug
                    # must answer 500, not kill the connection thread.
                    status, ctype = 500, JSON_CONTENT_TYPE
                    body = json.dumps({"error": repr(exc)}).encode()
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args) -> None:
                pass  # keep scrape traffic off stderr

        self._httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        if self.otlp is not None:
            tel = self.service.telemetry
            tracer = tel.tracer
            if tracer is not None:
                tracer.enable_outbox()

                def _harvest():
                    with self.lock:
                        return tracer.drain_outbox()

                self.otlp.source = _harvest
            log = tel.log
            if log is not None:
                log.enable_outbox()

                def _harvest_logs():
                    with self.lock:
                        return log.drain_outbox()

                self.otlp.log_source = _harvest_logs
            if tel.registry is not None:
                registry = tel.registry

                def _metrics_snapshot():
                    with self.lock:
                        return registry.to_dict()

                self.otlp.metrics_source = _metrics_snapshot
                self.otlp.clock = lambda: self.service.now_ms
            self.otlp.start()
        if self.driver is not None:
            self.driver.start()
        return self.host, self.port

    def shutdown(self, drain: bool = True) -> None:
        """Graceful stop: driver off, pending queries drained, listener
        closed.  Idempotent — signal handler and finally-block may race
        to call it."""
        if self._shut:
            return
        self._shut = True
        if self.driver is not None:
            self.driver.stop()
        if drain:
            with self.lock:
                # Drain-or-fail: every queued ticket resolves (result
                # or typed error) before the process exits.
                self.service.flush()
        if self.otlp is not None:
            # After the drain every span is finished; one final flush
            # ships them, then the exporter thread stops.
            self.otlp.stop(flush=True)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "TraversalServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- routing ---------------------------------------------------------

    def respond(self, path: str) -> Tuple[int, str, bytes]:
        """Route one GET; returns ``(status, content_type, body)``.

        Pure function of the service state under the lock — handlers
        and tests share it, so endpoint behavior is testable without
        sockets.
        """
        parts = urlsplit(path)
        query = parse_qs(parts.query)
        route = parts.path.rstrip("/") or "/"
        if route == "/metrics":
            return self._metrics()
        if route == "/healthz":
            return self._healthz()
        if route == "/statsz":
            return self._statsz(query)
        if route == "/profilez":
            return self._profilez()
        if route == "/tracez":
            return self._tracez(query)
        if route == "/logz":
            return self._logz(query)
        if route == "/debugz":
            return self._debugz()
        return self._json(
            404,
            {
                "error": f"no route {parts.path!r}",
                "routes": [
                    "/metrics", "/healthz", "/statsz", "/profilez",
                    "/tracez", "/logz", "/debugz",
                ],
            },
        )

    @staticmethod
    def _parse_limit(query: dict, default: Optional[int]):
        """``?limit=N`` → (limit, error_payload).  Malformed or negative
        values are a client error (400 + JSON body), never a traceback.
        """
        if "limit" not in query:
            return default, None
        raw = query["limit"][-1]
        try:
            limit = int(raw)
        except ValueError:
            return None, {"error": f"limit must be an integer, got {raw!r}"}
        if limit < 0:
            return None, {"error": f"limit must be >= 0, got {limit}"}
        return limit, None

    @staticmethod
    def _json(status: int, payload: dict) -> Tuple[int, str, bytes]:
        # allow_nan=False: the exports are NaN-free by design (see
        # repro.service.stats) and a standards-strict scraper must
        # never receive a bare NaN token.
        body = json.dumps(
            payload, indent=2, allow_nan=False, default=_jsonable
        ).encode()
        return status, JSON_CONTENT_TYPE, body

    def _metrics(self) -> Tuple[int, str, bytes]:
        tel = self.service.telemetry
        if not tel.enabled or tel.registry is None:
            return self._json(
                503, {"error": "metrics disabled (telemetry off)"}
            )
        if self.otlp is not None:
            self.otlp.sync_metrics(tel.registry)
        with self.lock:
            text = tel.registry.expose_text()
        return 200, METRICS_CONTENT_TYPE, text.encode()

    def _healthz(self) -> Tuple[int, str, bytes]:
        with self.lock:
            health = self.service.health()
        return self._json(200 if health["ok"] else 503, health)

    def _statsz(self, query: dict) -> Tuple[int, str, bytes]:
        _, bad = self._parse_limit(query, None)
        if bad is not None:
            return self._json(400, bad)
        with self.lock:
            payload = self.service.stats().to_dict()
        if self.otlp is not None:
            payload["otlp"] = self.otlp.stats()
        return self._json(200, payload)

    def _profilez(self) -> Tuple[int, str, bytes]:
        profiler = self.service.telemetry.profiler
        if profiler is None:
            return self._json(
                200, {"enabled": False, "reason": "profile_sample_rate=0"}
            )
        with self.lock:
            snap = profiler.snapshot()
        snap["enabled"] = True
        return self._json(200, snap)

    def _tracez(self, query: dict) -> Tuple[int, str, bytes]:
        tracer = self.service.telemetry.tracer
        if tracer is None:
            return self._json(
                200, {"enabled": False, "spans": [], "dropped": 0}
            )
        limit, bad = self._parse_limit(query, TRACEZ_DEFAULT_LIMIT)
        if bad is not None:
            return self._json(400, bad)
        with self.lock:
            spans = tracer.spans()
            payload = {
                "enabled": True,
                "total_spans": len(spans),
                "dropped": tracer.dropped,
                "spans": [s.to_dict() for s in spans[-limit:]] if limit else [],
            }
        return self._json(200, payload)

    def _logz(self, query: dict) -> Tuple[int, str, bytes]:
        """Structured event log; ``?limit=N`` caps the record list,
        ``?level=warn`` is a severity floor, ``?trace_id=...`` filters
        to one trace's records."""
        log = self.service.telemetry.log
        if log is None:
            return self._json(
                200,
                {"enabled": False, "records": [],
                 "recorded": 0, "dropped": 0},
            )
        limit, bad = self._parse_limit(query, LOGZ_DEFAULT_LIMIT)
        if bad is not None:
            return self._json(400, bad)
        level = query.get("level", [None])[-1]
        if level is not None and level not in LEVELS:
            return self._json(
                400,
                {"error": f"level must be one of {list(LEVELS)}, "
                          f"got {level!r}"},
            )
        trace_id = query.get("trace_id", [None])[-1]
        with self.lock:
            payload = {
                "enabled": True,
                "recorded": log.recorded,
                "dropped": log.dropped,
                "records": log.records(
                    level=level, trace_id=trace_id, limit=limit
                ),
            }
        return self._json(200, payload)

    def _debugz(self) -> Tuple[int, str, bytes]:
        """One strict-JSON diagnostics snapshot: config, engines, plan
        cache, breaker states, flight dumps, and the most recent
        error-level records with their trace ids."""
        from dataclasses import asdict

        svc = self.service
        tel = svc.telemetry
        with self.lock:
            stats = svc.stats().to_dict()
            health = svc.health()
            errors = (
                tel.log.records(level="error", limit=20)
                if tel.log is not None else []
            )
            payload = {
                "config": asdict(svc.config),
                "now_ms": svc.now_ms,
                "sessions": svc.registry.names(),
                "engines": stats.get("backends"),
                "plan_cache": stats.get("plan_cache"),
                "breakers": health["checks"]["breakers"],
                "queue": health["checks"]["queue"],
                "telemetry": {
                    "enabled": tel.enabled,
                    "spans_recorded": (
                        len(tel.tracer) if tel.tracer is not None else 0
                    ),
                    "log_records": (
                        tel.log.recorded if tel.log is not None else 0
                    ),
                    "flight_dumps": (
                        tel.flight.to_dict() if tel.flight is not None
                        else None
                    ),
                },
                "otlp": self.otlp.stats() if self.otlp is not None else None,
                "recent_errors": errors,
            }
        return self._json(200, payload)


def _jsonable(obj):
    """JSON fallback for numpy scalars and stray non-JSON leaves."""
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def run_serve(
    server: TraversalServer,
    *,
    duration_s: Optional[float] = None,
    announce=print,
) -> int:
    """Blocking serve loop with SIGTERM/SIGINT graceful drain.

    Runs until a signal arrives (or ``duration_s`` elapses, for
    scripted smoke runs), then shuts the server down with a full
    drain.  Returns a process exit code.
    """
    stop = threading.Event()
    previous = {}

    def _on_signal(signum, frame) -> None:
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _on_signal)
        except ValueError:
            # Not the main thread (tests drive run_serve directly):
            # rely on duration_s / stop alone.
            pass
    host, port = server.start()
    announce(
        f"serving on http://{host}:{port} "
        "(/metrics /healthz /statsz /profilez /tracez /logz /debugz) — "
        "SIGTERM or Ctrl-C drains and exits"
    )
    deadline = time.monotonic() + duration_s if duration_s else None
    try:
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            stop.wait(0.1)
    finally:
        server.shutdown(drain=True)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    with server.lock:
        pending = server.service.queue_depth
    announce(f"drained and stopped (pending queries after drain: {pending})")
    return 0 if pending == 0 else 1
