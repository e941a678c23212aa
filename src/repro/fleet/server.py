"""The fleet behind the diagnostics plane's HTTP front-end.

:class:`FleetServer` supplies the fleet payload of each route of
:mod:`repro.telemetry.http` (the router builds them: merged
``/metrics``, ``/tracez`` and ``/logz``; ``/healthz`` is 503 while any
worker is degraded, unreachable or dead) and the background threads a
live fleet needs:

* a load pump fanning seeded synthetic ticks to the workers, so a
  scraped fleet shows a live, moving system;
* a supervision loop healing dead workers (restart + ledger replay),
  so a SIGKILLed worker shows up in ``/healthz`` as degraded, then
  recovers;
* a telemetry sweep (one ``telemetry_drain`` frame per live worker),
  so spans and records stranded between submits, or orphaned by a
  worker death, still reach the router's rings.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

from repro.fleet.assembly import chrome_trace
from repro.fleet.router import FleetRouter
from repro.telemetry.http import ROUTES, DiagnosticsServer, Payload, Query


class FleetServer(DiagnosticsServer):
    """Router behind the HTTP front-end (see module doc)."""

    server_version = "repro-fleet/1.0"

    def __init__(
        self,
        router: FleetRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        load_queries_per_tick: int = 0,
        load_tick_ms: float = 2.0,
        load_interval_s: float = 0.05,
        heal_interval_s: float = 0.25,
        sweep_interval_s: float = 0.5,
    ) -> None:
        super().__init__(host, port)
        self.router = router
        self.load_queries_per_tick = load_queries_per_tick
        self.load_tick_ms = load_tick_ms
        self.load_interval_s = load_interval_s
        self.heal_interval_s = heal_interval_s
        self.sweep_interval_s = sweep_interval_s
        self._threads: List[threading.Thread] = []
        self._halt = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def _start_background(self) -> None:
        router = self.router
        if self.load_queries_per_tick > 0:
            # RuntimeError: no live workers right now; the healer may
            # still bring some back, so keep pumping until shutdown.
            self._every("fleet-load-pump", self.load_interval_s,
                        RuntimeError, lambda: router.run_load(
                            ticks=1,
                            queries_per_tick=self.load_queries_per_tick,
                            tick_ms=self.load_tick_ms,
                        ))
        if router.config.supervise:
            # Serve mode heals on the wall-floored clock (an idle
            # fleet's backoff must still elapse); supervision must
            # never kill the serving loop.
            self._every("fleet-healer", self.heal_interval_s, Exception,
                        lambda: router.heal(now=router.wall_now_ms()))
        if router.trace is not None or router.logs is not None:
            # Spans and records stranded between submits (or orphaned
            # by a worker death) still reach the rings; telemetry
            # collection must never kill serving.
            self._every("fleet-telemetry-sweep", self.sweep_interval_s,
                        Exception, router.drain_telemetry)

    def _every(self, name: str, interval_s: float, quiet, step) -> None:
        """Run ``step`` every ``interval_s`` on a daemon thread until
        shutdown, swallowing the ``quiet`` exceptions."""
        def loop() -> None:
            while not self._halt.is_set():
                try:
                    step()
                except quiet:
                    pass
                self._halt.wait(interval_s)

        thread = threading.Thread(target=loop, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _stop(self) -> Dict[str, Any]:
        """Stop load, healing and sweeps, then drain the fleet: a
        worker leaves only through the drain protocol."""
        self._halt.set()
        for thread in self._threads:
            thread.join(timeout=10.0)
        report = self.router.drain()
        if self.router.otlp is not None:
            # After the final drain sweep the rings have everything;
            # one last flush, then the exporter thread stops.
            self.router.otlp.stop(flush=True)
        return report

    def banner(self, host: str, port: int) -> str:
        return (
            f"fleet of {len(self.router.handles)} workers on "
            f"http://{host}:{port} ({' '.join(ROUTES)}) — SIGTERM or "
            "Ctrl-C drains every worker and exits"
        )

    def verdict(self, report: Dict[str, Any]) -> List[str]:
        """Exit 0 *only* when every current worker drained clean and
        exited 0 — deaths healed by the supervisor do not taint it."""
        pendings = {
            w: e.get("pending") for w, e in report["workers"].items()
        }
        lines = [
            f"fleet drained and stopped (ok={report['ok']}, "
            f"restarts={report.get('restarts_total', 0)}, "
            f"pending per worker: {pendings})"
        ]
        if not report["ok"]:
            # A not-ok drain must say why, per worker, or the exit code
            # is undebuggable from the smoke-job log alone.
            for worker, entry in sorted(report["workers"].items()):
                if entry.get("error") or entry.get("exitcode") != 0:
                    lines.append(
                        f"  {worker}: error={entry.get('error')!r} "
                        f"exitcode={entry.get('exitcode')}"
                    )
        return lines

    # -- payloads --------------------------------------------------------

    def metrics(self, query: Query) -> Payload:
        return 200, self.router.metrics_text()

    def healthz(self, query: Query) -> Payload:
        health = self.router.healthz()
        return (200 if health["ok"] else 503), health

    def statsz(self, query: Query) -> Payload:
        return 200, self.router.statsz()

    def profilez(self, query: Query) -> Payload:
        return 200, self.router.profilez()

    def tracez(self, query: Query) -> Payload:
        if query.format == "chrome":
            if self.router.trace is None:
                return 200, {"traceEvents": []}
            self.router.drain_telemetry()
            return 200, chrome_trace(self.router.trace)
        return 200, self.router.tracez(limit=query.cap())

    def logz(self, query: Query) -> Payload:
        return 200, self.router.logz(
            limit=query.cap(), level=query.level, worker=query.worker,
            trace_id=query.trace_id,
        )

    def debugz(self, query: Query) -> Payload:
        return 200, self.router.debugz()
