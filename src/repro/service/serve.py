"""Serve mode: the service behind pull-based HTTP telemetry endpoints.

``python -m repro.service --serve`` keeps a :class:`TraversalService`
alive behind the diagnostics plane's one HTTP front-end
(:mod:`repro.telemetry.http`: a stdlib threading listener, no
third-party dependencies) so scrapers and probes can *pull* state the
way production monitoring does.  :class:`TraversalServer` supplies the
single-process payload of each route: ``/metrics`` is 503 while
telemetry is off, and ``/healthz`` is 503 while the service is
degraded (an open breaker, a saturated queue, or an SLO fast burn).

The service itself stays single-threaded in spirit: every handler and
the optional synthetic-load driver serialize on one
:class:`threading.RLock`, so the logical clock and all counters keep
their deterministic semantics; HTTP threading only overlaps socket I/O.

Shutdown is graceful by contract: :meth:`TraversalServer.shutdown`
stops the load driver, then force-flushes every pending query under
the lock (drain-or-fail — each ticket resolves with a result or a
typed error, never silently dropped) before the listener closes.  The
CLI wires SIGTERM/SIGINT to exactly this path through
:func:`~repro.telemetry.http.serve_until_signalled`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

import numpy as np

from repro.service.resilience import ServiceError
from repro.service.service import TraversalService
from repro.telemetry.http import (
    ROUTES,
    DiagnosticsServer,
    Payload,
    Query,
    newest,
)


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


class TraversalServer(DiagnosticsServer):
    """One service and one lock behind the HTTP front-end (see module
    doc)."""

    server_version = "repro-serve/1.0"

    def __init__(
        self,
        service: TraversalService,
        host: str = "127.0.0.1",
        port: int = 0,
        driver: Optional[SyntheticLoadDriver] = None,
        otlp=None,
    ) -> None:
        super().__init__(host, port)
        self.service = service
        self.lock = threading.RLock()
        self.driver = driver
        #: optional repro.telemetry.OTLPExporter; single-process egress
        #: pulls from the tracer's outbox on the exporter's own thread.
        self.otlp = otlp

    # -- lifecycle -------------------------------------------------------

    def _locked(self, fn):
        """``fn`` wrapped to run under the service lock (the exporter
        calls its sources from its own thread)."""
        def call():
            with self.lock:
                return fn()

        return call

    def _start_background(self) -> None:
        if self.otlp is not None:
            tel = self.service.telemetry
            if tel.tracer is not None:
                tel.tracer.enable_outbox()
                self.otlp.source = self._locked(tel.tracer.drain_outbox)
            if tel.log is not None:
                tel.log.enable_outbox()
                self.otlp.log_source = self._locked(tel.log.drain_outbox)
            if tel.registry is not None:
                self.otlp.metrics_source = self._locked(tel.registry.to_dict)
                self.otlp.clock = lambda: self.service.now_ms
            self.otlp.start()
        if self.driver is not None:
            self.driver.start()

    def _stop(self) -> Dict[str, Any]:
        """Driver off, pending queries drained, exporter flushed."""
        if self.driver is not None:
            self.driver.stop()
        with self.lock:
            # Drain-or-fail: every queued ticket resolves (result or
            # typed error) before the process exits.
            self.service.flush()
            pending = self.service.queue_depth
        if self.otlp is not None:
            # After the drain every span is finished; one final flush
            # ships them, then the exporter thread stops.
            self.otlp.stop(flush=True)
        return {"ok": pending == 0, "pending": pending}

    def banner(self, host: str, port: int) -> str:
        return (
            f"serving on http://{host}:{port} ({' '.join(ROUTES)}) — "
            "SIGTERM or Ctrl-C drains and exits"
        )

    def verdict(self, report: Dict[str, Any]) -> List[str]:
        return [
            "drained and stopped (pending queries after drain: "
            f"{report['pending']})"
        ]

    # -- payloads --------------------------------------------------------

    def metrics(self, query: Query) -> Payload:
        tel = self.service.telemetry
        if not tel.enabled or tel.registry is None:
            return 503, {"error": "metrics disabled (telemetry off)"}
        if self.otlp is not None:
            self.otlp.sync_metrics(tel.registry)
        with self.lock:
            return 200, tel.registry.expose_text()

    def healthz(self, query: Query) -> Payload:
        with self.lock:
            health = self.service.health()
        return (200 if health["ok"] else 503), health

    def statsz(self, query: Query) -> Payload:
        with self.lock:
            payload = self.service.stats().to_dict()
        if self.otlp is not None:
            payload["otlp"] = self.otlp.stats()
        return 200, payload

    def profilez(self, query: Query) -> Payload:
        profiler = self.service.telemetry.profiler
        if profiler is None:
            return 200, {"enabled": False, "reason": "profile_sample_rate=0"}
        with self.lock:
            snap = profiler.snapshot()
        snap["enabled"] = True
        return 200, snap

    def tracez(self, query: Query) -> Payload:
        tracer = self.service.telemetry.tracer
        if tracer is None:
            return 200, {"enabled": False, "spans": [], "dropped": 0}
        with self.lock:
            spans = tracer.spans()
            return 200, {
                "enabled": True,
                "total_spans": len(spans),
                "dropped": tracer.dropped,
                "spans": [s.to_dict() for s in newest(spans, query.cap())],
            }

    def logz(self, query: Query) -> Payload:
        log = self.service.telemetry.log
        if log is None:
            return 200, {"enabled": False, "records": [],
                         "recorded": 0, "dropped": 0}
        with self.lock:
            return 200, {
                "enabled": True,
                "recorded": log.recorded,
                "dropped": log.dropped,
                "records": log.records(
                    level=query.level, trace_id=query.trace_id,
                    limit=query.cap(),
                ),
            }

    def debugz(self, query: Query) -> Payload:
        """Config, engines, plan cache, breaker states, flight dumps,
        and the most recent error-level records with their trace ids."""
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
            return 200, {
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
