"""Fleet router: placement, scatter/gather, aggregation, healing, drain.

The router owns the worker pool and is the only process that talks to
every shard.  It keeps **no traversal state** — trees, plans, clocks,
and metrics all live in the workers — so its job reduces to five
verbs:

* **place** — sessions map to workers by consistent hash
  (:class:`~repro.fleet.hashring.HashRing`).  Registrations broadcast
  to every worker (shared-nothing peers each build their own tree), so
  placement is a routing *preference*, not a correctness constraint:
  when a worker dies, the ring rehashes its sessions onto live workers
  that already hold the trees.
* **scatter/gather** — a single-session batch at or above
  ``scatter_threshold`` rows splits into balanced contiguous slices
  (:mod:`repro.fleet.slicing`), one per live worker, executed in
  parallel and gathered back into submission order.  Results are
  bit-identical to unsliced execution because per-query answers never
  depend on batch composition.  Rows stranded on a shard that dies
  mid-scatter get one automatic retry against the survivors, so a
  mid-scatter death degrades to slower-but-correct, not typed-error
  rows.
* **aggregate** — ``/metrics`` merges the workers' registry exports
  with a ``worker`` label per series plus the router's own ``fleet_*``
  instruments; ``/healthz`` is degraded if any worker is degraded or
  dead; ``/statsz`` is a strict-JSON fleet snapshot (summed counters,
  ``None`` — never ``NaN`` — for aggregates with no samples) including
  per-session registration coverage from the ledger.
* **heal** — worker death trips a router-side breaker
  (closed → open); the supervisor (:mod:`repro.fleet.supervisor`)
  decides when the shard may be respawned under a seeded restart
  policy.  A respawn boots a fresh process, moves the breaker to
  **half-open**, replays the session catalog from the router-held
  :class:`~repro.fleet.ledger.SessionLedger` (digest-verified), sends
  a probe, and only then closes the breaker and re-joins the ring.
  ``/healthz`` recovers to healthy after the rejoin.
* **drain** — SIGTERM fans out ``drain`` frames; every worker flushes
  (drain-or-fail), reports its pending depth, and exits 0.  The fleet
  exit code is 0 only when every *current* worker drained clean — a
  death that was healed by a restart does not taint the exit, an
  unhealed or evicted one does.

Fleet-level chaos (:mod:`repro.fleet.chaos`) can kill workers, drop
replies, and stall pipes on a schedule that is deterministic per
``(seed, worker, logical clock)``; recovery is observable through
``fleet_restarts_total``, ``fleet_replay_sessions_total``, the
``fleet_recovery_ms`` histogram, and recovery spans kept in a
router-side flight recorder.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.fleet import wire
from repro.fleet.chaos import FleetChaos, FleetChaosConfig
from repro.fleet.hashring import DEFAULT_REPLICAS, HashRing
from repro.fleet.ledger import STATE_MISSING, STATE_OK, SessionLedger
from repro.fleet.pool import mp_context, start_process
from repro.fleet.slicing import scatter_slices
from repro.fleet.supervisor import (
    DECIDE_EVICT,
    DECIDE_RESTART,
    FleetSupervisor,
    RestartPolicy,
)
from repro.fleet.logs import FleetLogAssembler
from repro.fleet.tracing import FleetTraceAssembler, ROUTER_WORKER
from repro.fleet.worker import worker_main
from repro.service.serve import JSON_CONTENT_TYPE, METRICS_CONTENT_TYPE
from repro.telemetry import (
    EventLog,
    FlightRecorder,
    LEVELS,
    MetricsRegistry,
    TraceContext,
    Tracer,
    derive_trace_id,
    expose_export_text,
    merge_labeled_exports,
    sum_exports,
)

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

#: buckets for the time-to-recovery histogram (logical ms).
RECOVERY_MS_BUCKETS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 5000.0)


@dataclass(frozen=True)
class FleetConfig:
    """Knobs for one fleet (router + N workers)."""

    #: worker process count.
    workers: int = 4
    #: hash-ring virtual nodes per worker.
    replicas: int = DEFAULT_REPLICAS
    #: single-session batches with at least this many rows scatter
    #: across all live workers; smaller ones route whole to the
    #: session's placed shard.  0 disables scattering entirely.
    scatter_threshold: int = 64
    #: the single fleet seed every worker seed derives from.
    seed: int = 7
    #: pin workers to CPUs round-robin (best-effort, Linux only).
    pin_cpus: bool = True
    #: multiprocessing start method (None = fork where available).
    start_method: Optional[str] = None
    #: reply deadline for one worker exchange, seconds (None = wait).
    call_timeout_s: Optional[float] = 120.0
    #: plain-dict ServiceConfig payload forwarded to every worker (see
    #: repro.fleet.worker.build_worker_service).
    service: Dict[str, Any] = field(default_factory=dict)
    #: restart dead workers (replay sessions, rejoin the ring); off
    #: restores the PR-6 terminal-breaker behavior.
    supervise: bool = True
    #: restart backoff / budget policy (logical clock).
    restart: RestartPolicy = field(default_factory=RestartPolicy)
    #: scatter rows stranded by a mid-scatter death get one retry
    #: against the surviving workers.
    scatter_retry: bool = True
    #: fleet-level fault injection (worker kill / reply drop / stall).
    fleet_chaos: Optional[FleetChaosConfig] = None
    #: distributed tracing: stamp a TraceContext on every submit frame,
    #: assemble the workers' span streams in the router, expose the
    #: merged timeline at /tracez.  Off ⇒ frames are byte-identical to
    #: the pre-tracing protocol and the router allocates no assembler.
    trace: bool = True
    #: fleet trace assembler ring capacity (merged finished spans).
    trace_capacity: int = 50_000
    #: structured logging: assemble the workers' event-log streams in
    #: the router, expose the merged stream at /logz.  Off ⇒ frames
    #: carry no ``logs`` keys and the router allocates no assembler.
    log: bool = True
    #: fleet log assembler ring capacity (merged log records).
    log_capacity: int = 50_000


#: router-side breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass
class WorkerBreaker:
    """Router-side breaker for one shard — full lifecycle.

    ``closed`` — the shard takes traffic.  ``open`` — the process is
    dead (or its pipe is unusable); routing rehashes away until the
    supervisor respawns it.  ``half_open`` — a replacement process is
    up and being re-armed: the session catalog replays into it and a
    probe request must succeed before :meth:`close` re-joins it to the
    ring.  A probe or replay failure re-opens the breaker (and counts
    against the restart budget).
    """

    worker: str
    state: str = BREAKER_CLOSED
    reason: str = ""
    trips: int = 0
    recoveries: int = 0

    def trip(self, reason: str) -> None:
        self.state = BREAKER_OPEN
        self.reason = reason
        self.trips += 1

    def half_open(self, reason: str = "restarting") -> None:
        self.state = BREAKER_HALF_OPEN
        self.reason = reason

    def close(self) -> None:
        self.state = BREAKER_CLOSED
        self.reason = ""
        self.recoveries += 1

    @property
    def closed(self) -> bool:
        return self.state == BREAKER_CLOSED


class WorkerHandle:
    """One shard as the router sees it: process, pipe, lock, breaker.

    The handle object is stable across restarts — a respawn swaps
    ``proc`` and ``conn`` in place (under :attr:`lock`) and bumps
    :attr:`incarnation`, so every thread holding the handles dict sees
    the replacement the moment the breaker closes.
    """

    def __init__(self, worker_id: str, index: int, proc, conn) -> None:
        self.id = worker_id
        self.index = index
        self.proc = proc
        self.conn = conn
        #: held across one full send->recv exchange so concurrent HTTP
        #: scrapes and scatter submits never interleave frames; also
        #: held across a respawn's proc/conn swap.
        self.lock = threading.Lock()
        self.breaker = WorkerBreaker(worker_id)
        #: process generation: 0 for the boot process, +1 per respawn.
        self.incarnation = 0

    @property
    def alive(self) -> bool:
        return self.breaker.closed


class FleetRouter:
    """Owns the workers; see module docstring for the contract."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()
        if self.config.workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.handles: Dict[str, WorkerHandle] = {}
        self.ring = HashRing(replicas=self.config.replicas)
        self.ledger = SessionLedger()
        self.supervisor = FleetSupervisor(self.config.restart)
        self.chaos = (
            FleetChaos(self.config.fleet_chaos)
            if self.config.fleet_chaos is not None
            else None
        )
        #: fleet logical clock: high-water mark of every ``now`` seen in
        #: submits and worker replies.  Supervision backoff and chaos
        #: schedules run on this clock, so a driven run is deterministic.
        self.now_ms = 0.0
        self.registry = MetricsRegistry()
        #: recovery observability: spans per recovery, ring per worker.
        #: trace_seed=fleet seed so router span identity is derived the
        #: same way worker identity is — pure function of the one seed.
        self.tracer = Tracer(max_spans=10_000, trace_seed=self.config.seed)
        self.flight = FlightRecorder(capacity=32)
        #: fleet-wide trace assembly (None when tracing is off: the
        #: query path then carries no trace payloads at all).
        self.trace = (
            FleetTraceAssembler(capacity=self.config.trace_capacity)
            if self.config.trace
            else None
        )
        #: fleet-wide log assembly + the router's own structured log
        #: (None when logging is off: frames carry no ``logs`` keys and
        #: the router pays nothing on the query path).
        self.logs = (
            FleetLogAssembler(capacity=self.config.log_capacity)
            if self.config.log
            else None
        )
        self.log = (
            EventLog(capacity=self.config.log_capacity, tracer=self.tracer)
            if self.config.log
            else None
        )
        #: optional OTLP egress (attach_otlp); never blocks the router.
        self.otlp = None
        self._ticket_lock = threading.Lock()
        self._next_ticket = 0
        self._trace_synced: Dict[str, int] = {}
        self._m = {
            "workers": self.registry.gauge(
                "fleet_workers", "worker count by state", labels=("state",)
            ),
            "deaths": self.registry.counter(
                "fleet_worker_deaths_total",
                "worker breaker trips (process death or wire failure)",
                labels=("worker",),
            ),
            "restarts": self.registry.counter(
                "fleet_restarts_total",
                "worker processes respawned, replayed, and re-joined",
                labels=("worker",),
            ),
            "restart_failures": self.registry.counter(
                "fleet_restart_failures_total",
                "respawn attempts that failed boot, replay, or probe",
                labels=("worker",),
            ),
            "replays": self.registry.counter(
                "fleet_replay_sessions_total",
                "sessions replayed into respawned workers from the ledger",
                labels=("worker",),
            ),
            "evictions": self.registry.counter(
                "fleet_evictions_total",
                "workers permanently evicted (restart budget exhausted)",
                labels=("worker",),
            ),
            "recovery_ms": self.registry.histogram(
                "fleet_recovery_ms",
                "logical time from breaker trip to ring re-join",
                buckets=RECOVERY_MS_BUCKETS,
            ),
            "routed": self.registry.counter(
                "fleet_routed_batches_total",
                "whole batches routed to a placed shard",
                labels=("worker",),
            ),
            "reroutes": self.registry.counter(
                "fleet_reroutes_total",
                "routed batches retried on a survivor after a shard died",
                labels=("worker",),
            ),
            "scattered": self.registry.counter(
                "fleet_scatter_batches_total",
                "batches scatter-sliced across the live workers",
            ),
            "scatter_rows": self.registry.counter(
                "fleet_scatter_rows_total",
                "query rows shipped inside scatter slices",
                labels=("worker",),
            ),
            "scatter_retries": self.registry.counter(
                "fleet_scatter_retries_total",
                "one-shot retries of shard-lost scatter rows",
            ),
            "scatter_retry_rows": self.registry.counter(
                "fleet_scatter_retry_rows_total",
                "shard-lost rows recovered by the scatter retry",
                labels=("worker",),
            ),
            "chaos": self.registry.counter(
                "fleet_chaos_injections_total",
                "fleet-level chaos faults injected",
                labels=("kind", "worker"),
            ),
        }
        self._started = False
        self._drained: Dict[str, dict] = {}
        self._t0 = time.monotonic()
        #: serializes ring membership + gauge updates across threads.
        self._state_lock = threading.Lock()
        #: heal() is not reentrant; concurrent callers skip.
        self._heal_lock = threading.Lock()
        self._evictions_recorded: set = set()

    # -- clock -----------------------------------------------------------

    def observe_now(self, now: Optional[float]) -> float:
        """Advance the fleet clock's high-water mark; returns it."""
        if now is not None and now > self.now_ms:
            self.now_ms = float(now)
        return self.now_ms

    def wall_now_ms(self) -> float:
        """Serve-mode clock: logical high-water mark, floored by wall
        milliseconds since boot so an idle fleet's backoff still
        elapses.  Deterministic paths pass explicit ``now`` instead."""
        return max(self.now_ms, (time.monotonic() - self._t0) * 1000.0)

    # -- lifecycle -------------------------------------------------------

    def _spawn(self, worker_id: str, index: int, incarnation: int = 0):
        """Start one worker process + pipe (boot frame not yet read)."""
        ctx = mp_context(self.config.start_method)
        parent, child = ctx.Pipe()
        name = f"fleet-{worker_id}"
        if incarnation:
            name = f"{name}r{incarnation}"
        # worker_main's signature leads with cpu_index; None means
        # the child skips pinning (pin_to_cpu handles it).
        proc = start_process(
            worker_main,
            args=(index if self.config.pin_cpus else None, child, worker_id,
                  index, self.config.seed, dict(self.config.service)),
            name=name,
            method=self.config.start_method,
        )
        child.close()
        return proc, parent

    def start(self) -> List[str]:
        """Spawn and boot every worker; returns their ids."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        for i in range(self.config.workers):
            worker_id = f"w{i}"
            proc, parent = self._spawn(worker_id, i)
            handle = WorkerHandle(worker_id, i, proc, parent)
            self.handles[worker_id] = handle
            self.ring.add(worker_id)
        # Boot barrier: every worker answers its boot frame before the
        # fleet accepts traffic, so a worker that fails to construct
        # its service is a loud start() error, not a late mystery.
        for handle in self.handles.values():
            try:
                wire.recv_reply(
                    handle.conn, handle.id, timeout=self.config.call_timeout_s
                )
            except (wire.WorkerGone, wire.WireError) as exc:
                self._trip(handle, f"boot failed: {exc}")
        self._update_worker_gauges()
        if not self.live_workers():
            raise RuntimeError("no worker survived boot")
        return sorted(self.handles)

    def shutdown(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """Fleet-wide graceful drain; see :meth:`drain`."""
        return self.drain(timeout_s=timeout_s)

    def __enter__(self) -> "FleetRouter":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        if not self._drained:
            self.drain()

    # -- shard bookkeeping -----------------------------------------------

    def live_workers(self) -> List[str]:
        return sorted(w for w, h in self.handles.items() if h.alive)

    def dead_workers(self) -> List[str]:
        return sorted(w for w, h in self.handles.items() if not h.alive)

    @property
    def sessions(self) -> List[str]:
        """Registered session names (ledger-backed, registration order)."""
        return self.ledger.names()

    def _trip(self, handle: WorkerHandle, reason: str,
              now: Optional[float] = None) -> None:
        if not handle.alive:
            return
        handle.breaker.trip(reason)
        with self._state_lock:
            self.ring.remove(handle.id)
        self.ledger.mark_worker_lost(handle.id)
        self.supervisor.note_death(
            handle.id, self.observe_now(now), reason
        )
        self._m["deaths"].inc(worker=handle.id)
        self._rlog(
            "error", "fleet.worker_death", self.now_ms,
            worker=handle.id, reason=reason,
        )
        self._update_worker_gauges()

    def _update_worker_gauges(self) -> None:
        states = {"alive": 0, "dead": 0, "recovering": 0, "evicted": 0}
        for worker, handle in self.handles.items():
            if handle.breaker.state == BREAKER_CLOSED:
                states["alive"] += 1
            elif handle.breaker.state == BREAKER_HALF_OPEN:
                states["recovering"] += 1
            elif self.supervisor.is_evicted(worker):
                states["evicted"] += 1
            else:
                states["dead"] += 1
        for state, count in states.items():
            self._m["workers"].set(count, state=state)

    # -- chaos hooks -----------------------------------------------------

    def _chaos_kill_tick(self, now: Optional[float]) -> None:
        """Fire scheduled worker kills for this logical instant."""
        if self.chaos is None or now is None:
            return
        for worker in self.live_workers():  # sorted: deterministic order
            if self.chaos.should_kill(worker, now):
                self._m["chaos"].inc(kind="kill", worker=worker)
                self._rlog(
                    "warn", "fleet.chaos", float(now),
                    kind="kill", worker=worker,
                )
                try:
                    self.handles[worker].proc.kill()
                except (OSError, ValueError):
                    pass  # already gone; the wire path will notice

    def _recv_submit_reply(
        self, handle: WorkerHandle, now: Optional[float]
    ) -> Dict[str, Any]:
        """recv for the query path, with reply-drop / stall chaos."""
        if self.chaos is not None and now is not None:
            if self.chaos.should_stall(handle.id, now):
                # Abandon the exchange without consuming the reply: the
                # pipe is now desynchronized, which is exactly why a
                # tripped shard must be *replaced*, never resumed.
                self._m["chaos"].inc(kind="stall", worker=handle.id)
                raise wire.WorkerGone(
                    handle.id, "chaos: pipe stalled past deadline"
                )
            if self.chaos.should_drop_reply(handle.id, now):
                self._m["chaos"].inc(kind="drop_reply", worker=handle.id)
                try:
                    wire.recv_reply(  # consume, then discard
                        handle.conn, handle.id,
                        timeout=self.config.call_timeout_s,
                    )
                except (wire.WorkerGone, wire.WireError):
                    pass
                raise wire.WorkerGone(handle.id, "chaos: reply dropped")
        return wire.recv_reply(
            handle.conn, handle.id, timeout=self.config.call_timeout_s
        )

    # -- wire plumbing ---------------------------------------------------

    def _call(self, worker: str, cmd: str, **payload: Any) -> Dict[str, Any]:
        """One locked exchange with one worker; death trips the breaker."""
        handle = self.handles[worker]
        if not handle.alive:
            raise wire.WorkerGone(worker, handle.breaker.reason)
        with handle.lock:
            try:
                return wire.call(
                    handle.conn, worker, cmd,
                    timeout=self.config.call_timeout_s, **payload,
                )
            except wire.WorkerGone as exc:
                self._trip(handle, str(exc))
                raise

    def broadcast(
        self, cmd: str, workers: Optional[List[str]] = None, **payload: Any
    ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, str]]:
        """Send one command to many workers in parallel (send phase,
        then receive phase, per-handle locks held across both).

        Returns ``(replies, failures)`` keyed by worker id; a failure
        trips that worker's breaker but never poisons its siblings.
        """
        targets = [
            self.handles[w] for w in (workers or self.live_workers())
            if self.handles[w].alive
        ]
        targets.sort(key=lambda h: h.id)  # stable lock order
        replies: Dict[str, Dict[str, Any]] = {}
        failures: Dict[str, str] = {}
        acquired: List[WorkerHandle] = []
        try:
            for handle in targets:
                handle.lock.acquire()
                acquired.append(handle)
                try:
                    wire.send_request(handle.conn, handle.id, cmd, **payload)
                except wire.WorkerGone as exc:
                    self._trip(handle, str(exc))
                    failures[handle.id] = str(exc)
            for handle in targets:
                if handle.id in failures:
                    continue
                try:
                    replies[handle.id] = wire.recv_reply(
                        handle.conn, handle.id,
                        timeout=self.config.call_timeout_s,
                    )
                except wire.WorkerGone as exc:
                    self._trip(handle, str(exc))
                    failures[handle.id] = str(exc)
                except wire.WireError as exc:
                    failures[handle.id] = str(exc)
        finally:
            for handle in acquired:
                handle.lock.release()
        return replies, failures

    # -- sessions --------------------------------------------------------

    def register(self, name: str, app: str, data: np.ndarray,
                 **build_kwargs: Any) -> Dict[str, Any]:
        """Broadcast a session build to every live worker.

        Shared-nothing: each worker builds its own tree + plan.  The
        build is recorded in the :class:`SessionLedger` *per worker* —
        ``ok`` where it landed, ``failed: ...`` where the worker
        rejected it, ``missing`` where the worker was dead — so partial
        fleet coverage is visible in ``/statsz`` (and healable: a
        restart replays the catalog into the replacement).  The
        registration fails loudly if *no* worker accepted it.
        """
        data = np.ascontiguousarray(data, dtype=np.float64)
        record = self.ledger.begin(
            name, app, data, build_kwargs, now_ms=self.now_ms
        )
        replies, failures = self.broadcast(
            "register", name=name, app=app, data=record.data,
            build_kwargs=build_kwargs,
        )
        if not replies:
            self.ledger.forget(name)
            raise RuntimeError(
                f"session {name!r}: no live worker accepted the "
                f"registration ({failures})"
            )
        for worker in self.handles:
            if worker in replies:
                self.ledger.mark(name, worker, STATE_OK)
            elif worker in failures:
                self.ledger.mark(name, worker, f"failed: {failures[worker]}")
            else:
                self.ledger.mark(name, worker, STATE_MISSING)
        return {
            "session": name,
            "workers": sorted(replies),
            "failed": failures,
            "digest": record.digest,
            # Complete means *fleet-wide*, dead workers included: a
            # session that missed a dead shard is partial until the
            # supervisor's replay installs it on the replacement.
            "complete": sorted(replies) == sorted(self.handles),
        }

    def place(self, session: str) -> Optional[str]:
        """The shard currently owning ``session`` (consistent hash over
        the live ring; rehashes automatically after a breaker trip)."""
        return self.ring.place(session)

    # -- distributed tracing ---------------------------------------------

    def _ingest_spans(self, worker: str, spans) -> int:
        """Feed one worker's piggybacked span dicts to the assembler
        (strict-JSON-converted: numpy never reaches /tracez or OTLP)."""
        if self.trace is None or not spans:
            return 0
        return self.trace.ingest(worker, wire.to_jsonable(spans))

    # -- structured logging ----------------------------------------------

    def _ingest_logs(self, worker: str, records) -> int:
        """Feed one worker's piggybacked log records to the assembler
        (strict-JSON-converted: numpy never reaches /logz or OTLP)."""
        if self.logs is None or not records:
            return 0
        return self.logs.ingest(worker, wire.to_jsonable(records))

    def _rlog(self, level: str, event: str, t_ms: float,
              trace_id: Optional[str] = None, **fields) -> None:
        """One router-side log record, immediately visible in /logz.

        Router records skip the outbox: they are minted in-process, so
        they go straight to the assembler tagged ``router`` — same
        worker-tagging discipline as router spans.
        """
        if self.log is None:
            return
        rec = self.log.log(level, event, t_ms, trace_id=trace_id, **fields)
        if self.logs is not None:
            self.logs.ingest(ROUTER_WORKER, [rec])

    def drain_logs(self) -> int:
        """Sweep every live worker's event-log outbox into the
        assembler (the ``log_drain`` counterpart of :meth:`drain_spans`).
        Returns records absorbed."""
        if self.logs is None:
            return 0
        replies, _ = self.broadcast("log_drain")
        absorbed = 0
        for worker, reply in sorted(replies.items()):
            absorbed += self._ingest_logs(worker, reply.get("logs"))
        return absorbed

    def logz(
        self,
        limit: Optional[int] = None,
        level: Optional[str] = None,
        worker: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        """The fleet ``/logz`` payload: sweep, then the merged stream."""
        if self.logs is None:
            return {"enabled": False, "records": [], "workers": []}
        self.drain_logs()
        payload = self.logs.to_dict(
            limit=limit, level=level, worker=worker, trace_id=trace_id
        )
        payload["enabled"] = True
        return payload

    def _sync_log_counters(self) -> None:
        """Mirror log-assembler totals into fleet_* counters
        (delta-based, safe on every scrape)."""
        if self.logs is None:
            return
        for name, help_text, total in (
            ("fleet_log_records_ingested_total",
             "log records absorbed by the fleet log assembler",
             self.logs.ingested),
            ("fleet_log_records_dropped_total",
             "log records evicted from the fleet log assembler ring",
             self.logs.dropped),
        ):
            counter = self.registry.counter(name, help_text)
            delta = total - self._trace_synced.get(name, 0)
            if delta > 0:
                counter.inc(delta)
                self._trace_synced[name] = total

    def _begin_ticket(self, session: str, rows: int):
        """Open the router-side ticket span and build the TraceContext
        workers adopt.  Trace identity is ``derive_trace_id(seed,
        "ticket:{n}")`` with a process-wide ticket counter, so two
        same-seed fleets mint identical trace ids in identical order."""
        if self.trace is None:
            return None, None
        with self._ticket_lock:
            tid = self._next_ticket
            self._next_ticket += 1
        t0 = self.now_ms
        trace_id = derive_trace_id(self.config.seed, f"ticket:{tid}")
        tspan = self.tracer.begin(
            "fleet.ticket", track="router", span_id=f"t{tid}", t_ms=t0,
            trace_id=trace_id, session=session, rows=rows,
        )
        ctx = TraceContext(
            trace_id=trace_id, parent_span_id=tspan.span_id,
            clock_offset_ms=t0,
        )
        return ctx, tspan

    def _end_ticket(self, tspan, mode: str, status: str = "ok") -> None:
        if tspan is None:
            return
        self.tracer.end(tspan.span_id, self.now_ms, status, mode=mode)
        self._ingest_spans(ROUTER_WORKER, [tspan.to_dict()])

    def drain_spans(self) -> int:
        """Sweep every live worker's tracer outbox into the assembler.

        This is the path that saves spans stranded between submits —
        including the partial spans of a ticket whose worker died and
        whose rows were rerouted elsewhere.  Returns spans absorbed.
        """
        if self.trace is None:
            return 0
        replies, _ = self.broadcast("trace_drain")
        absorbed = 0
        for worker, reply in sorted(replies.items()):
            absorbed += self._ingest_spans(worker, reply.get("spans"))
        return absorbed

    def tracez(self, limit: Optional[int] = None) -> dict:
        """The fleet ``/tracez`` payload: sweep, then merged timeline."""
        if self.trace is None:
            return {"enabled": False, "spans": [], "workers": []}
        self.drain_spans()
        payload = self.trace.to_dict(limit=limit)
        payload["enabled"] = True
        return payload

    def profilez(self) -> dict:
        """Aggregated kernel-profiler snapshots, one per live worker."""
        replies, failures = self.broadcast("profile")
        profiles = {
            w: r.get("profile") for w, r in sorted(replies.items())
        }
        enabled = any(p is not None for p in profiles.values())
        return {
            "enabled": enabled,
            "workers": profiles,
            "unreachable": sorted(failures),
        }

    def flight_dumps(self) -> dict:
        """Every flight-recorder dump in the fleet, reachable
        router-side.

        Broadcasts the ``flight`` verb: each worker answers its full
        FlightRecorder export (failure dumps frozen by ServiceErrors on
        that shard) and the router adds its own recovery recorder — so
        a worker-side failure at any ``--flight-capacity`` is
        recoverable without attaching to the worker process.
        """
        replies, failures = self.broadcast("flight")
        workers = {w: r.get("flight") for w, r in sorted(replies.items())}
        return {
            "router": wire.to_jsonable(self.flight.to_dict()),
            "workers": workers,
            "unreachable": sorted(failures),
        }

    def debugz(self, recent_errors: int = 20) -> dict:
        """One strict-JSON diagnostics snapshot of the whole fleet:
        config, ring placement, breaker states, telemetry accounting,
        and the most recent error-level records with their trace ids."""
        from dataclasses import asdict

        errors: List[dict] = []
        if self.logs is not None:
            self.drain_logs()
            errors = self.logs.records(level="error")[-recent_errors:]
        live = self.live_workers()
        return {
            "config": wire.to_jsonable(asdict(self.config)),
            "now_ms": self.now_ms,
            "workers": {
                w: {
                    "breaker": h.breaker.state,
                    "reason": h.breaker.reason,
                    "trips": h.breaker.trips,
                    "recoveries": h.breaker.recoveries,
                    "incarnation": h.incarnation,
                    "in_ring": w in self.ring,
                }
                for w, h in sorted(self.handles.items())
            },
            "ring": {
                "live": live,
                "dead": self.dead_workers(),
                "evicted": self.supervisor.evicted_workers(),
                "placements": {
                    s: self.place(s) for s in sorted(self.sessions)
                },
            },
            "sessions": {
                "names": sorted(self.sessions),
                "coverage": self.ledger.coverage(live),
                "partial": self.ledger.partial_registrations(live),
            },
            "supervision": self.supervisor.snapshot(),
            "telemetry": {
                "trace": (
                    {
                        "retained": len(self.trace),
                        "ingested": self.trace.ingested,
                        "dropped": self.trace.dropped,
                    }
                    if self.trace is not None else None
                ),
                "logs": (
                    {
                        "retained": len(self.logs),
                        "ingested": self.logs.ingested,
                        "dropped": self.logs.dropped,
                    }
                    if self.logs is not None else None
                ),
                "otlp": self.otlp.stats() if self.otlp is not None else None,
            },
            "recent_errors": errors,
        }

    def attach_otlp(self, exporter) -> None:
        """Wire an :class:`~repro.telemetry.otlp.OTLPExporter` as the
        assemblers' sink (spans + logs), point its metrics source at
        the merged fleet export, and start its flush thread."""
        self.otlp = exporter
        if self.trace is not None:
            self.trace.sink = exporter.export
        if self.logs is not None:
            self.logs.sink = exporter.export_logs
        exporter.metrics_source = self._otlp_metrics_snapshot
        exporter.clock = lambda: self.now_ms
        exporter.start()

    def _otlp_metrics_snapshot(self) -> dict:
        """Metrics payload for OTLP flushes: the merged fleet export
        while workers answer, the router's own registry after drain
        (a post-drain broadcast would only manufacture worker deaths)."""
        if self._drained:
            return self.registry.to_dict()
        try:
            return self.metrics_export()
        except Exception:
            return self.registry.to_dict()

    def _sync_trace_counters(self) -> None:
        """Mirror assembler totals into fleet_* counters (delta-based,
        safe on every scrape)."""
        if self.trace is None:
            return
        for name, help_text, total in (
            ("fleet_trace_spans_ingested_total",
             "worker spans absorbed by the fleet trace assembler",
             self.trace.ingested),
            ("fleet_trace_spans_dropped_total",
             "spans evicted from the fleet trace assembler ring",
             self.trace.dropped),
        ):
            counter = self.registry.counter(name, help_text)
            delta = total - self._trace_synced.get(name, 0)
            if delta > 0:
                counter.inc(delta)
                self._trace_synced[name] = total

    # -- query path ------------------------------------------------------

    def submit_many(
        self, session: str, coords: np.ndarray, now: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Route or scatter one batch; per-query resolutions in order.

        Small batches go whole to the placed shard (keeps co-located
        queries on one shard — the locality future traversal fusion
        amortizes); large ones scatter-slice across every live worker
        and gather back in submission order.  A shard death mid-flight
        costs one retry against the survivors, not answers.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError(f"coords must be (n, d), got shape {coords.shape}")
        self.observe_now(now)
        self._chaos_kill_tick(now)
        live = self.live_workers()
        if not live:
            raise RuntimeError("no live workers")
        threshold = self.config.scatter_threshold
        scatter = bool(threshold) and len(coords) >= threshold and len(live) > 1
        ctx, tspan = self._begin_ticket(session, len(coords))
        mode = "scatter" if scatter else "routed"
        try:
            if scatter:
                out = self._scatter_submit(session, coords, now, ctx, tspan)
            else:
                out = self._routed_submit(session, coords, now, ctx)
        except Exception:
            self._end_ticket(tspan, mode=mode, status="error")
            raise
        self._end_ticket(tspan, mode=mode)
        return out

    def _submit_call(
        self, worker: str, session: str, coords: np.ndarray,
        now: Optional[float], chaos: bool = True,
        ctx: Optional[TraceContext] = None,
    ) -> Dict[str, Any]:
        """One locked submit exchange (chaos-aware recv); trips on death.

        ``chaos=False`` exempts the exchange from reply-drop/stall
        injection: retries and reroutes ARE the recovery mechanism, and
        exempting them keeps the fired chaos schedule a pure function
        of (seed, logical clock) — whether a death was discovered
        mid-exchange or by the next heal pass is an OS signal-delivery
        race, and it must not change which cells draw.
        """
        handle = self.handles[worker]
        if not handle.alive:
            raise wire.WorkerGone(worker, handle.breaker.reason)
        payload: Dict[str, Any] = dict(session=session, coords=coords, now=now)
        if ctx is not None:
            payload["trace"] = ctx.to_wire()
        with handle.lock:
            try:
                wire.send_request(handle.conn, worker, "submit", **payload)
                reply = self._recv_submit_reply(handle, now if chaos else None)
            except wire.WorkerGone as exc:
                self._trip(handle, str(exc), now=now)
                raise
        self.observe_now(reply.get("now_ms"))
        self._ingest_spans(worker, reply.get("spans"))
        self._ingest_logs(worker, reply.get("logs"))
        return reply

    def _routed_submit(
        self, session: str, coords: np.ndarray, now: Optional[float],
        ctx: Optional[TraceContext] = None,
    ) -> List[Dict[str, Any]]:
        """Whole-batch route to the placed shard, one reroute on death.

        The batch is stateless on the worker side (submit + flush), so
        re-sending the identical coords to the post-rehash owner is
        safe and returns bit-identical answers.  The retry reuses the
        same TraceContext: the rerouted batch's spans still parent
        under the original ticket span.
        """
        owner = self.place(session)
        if owner is None:
            raise RuntimeError("no live workers")
        try:
            reply = self._submit_call(owner, session, coords, now, ctx=ctx)
        except wire.WorkerGone:
            retry_owner = self.place(session)
            if retry_owner is None:
                raise
            self._m["reroutes"].inc(worker=retry_owner)
            reply = self._submit_call(
                retry_owner, session, coords, now, chaos=False, ctx=ctx
            )
            owner = retry_owner
        self._m["routed"].inc(worker=owner)
        return reply["results"]

    def _scatter_submit(
        self, session: str, coords: np.ndarray, now: Optional[float],
        ctx: Optional[TraceContext] = None, tspan=None,
    ) -> List[Dict[str, Any]]:
        """Scatter slices across live workers, gather in order.

        The live set is re-checked *here*, in one snapshot used for
        both slice computation and dispatch — a worker tripped by a
        concurrent thread between ``submit_many``'s admission check
        and this point must not receive a slice (it would strand those
        rows for the retry to clean up).
        """
        handles = [
            self.handles[w] for w in self.live_workers()
        ]
        if not handles:
            raise RuntimeError("no live workers")
        slices = scatter_slices(len(coords), len(handles))
        self._m["scattered"].inc()
        acquired: List[WorkerHandle] = []
        sent: List[Tuple[WorkerHandle, slice]] = []
        parts: Dict[str, List[Dict[str, Any]]] = {}
        failures: Dict[str, Tuple[slice, str]] = {}
        try:
            for handle, sl in zip(handles, slices):
                if sl.start == sl.stop:
                    continue
                handle.lock.acquire()
                acquired.append(handle)
                slice_payload: Dict[str, Any] = dict(
                    session=session, coords=coords[sl], now=now
                )
                if ctx is not None:
                    slice_payload["trace"] = ctx.to_wire()
                try:
                    wire.send_request(
                        handle.conn, handle.id, "submit", **slice_payload
                    )
                    sent.append((handle, sl))
                    self._m["scatter_rows"].inc(
                        sl.stop - sl.start, worker=handle.id
                    )
                except wire.WorkerGone as exc:
                    self._trip(handle, str(exc), now=now)
                    failures[handle.id] = (sl, str(exc))
            for handle, sl in sent:
                try:
                    reply = self._recv_submit_reply(handle, now)
                    parts[handle.id] = reply["results"]
                    self.observe_now(reply.get("now_ms"))
                    self._ingest_spans(handle.id, reply.get("spans"))
                    self._ingest_logs(handle.id, reply.get("logs"))
                except (wire.WorkerGone, wire.WireError) as exc:
                    if isinstance(exc, wire.WorkerGone):
                        self._trip(handle, str(exc), now=now)
                    failures[handle.id] = (sl, str(exc))
        finally:
            for handle in acquired:
                handle.lock.release()
        # Gather in submission order; rows lost to a dead shard resolve
        # with a typed error payload (never silently dropped).
        out: List[Dict[str, Any]] = [
            {
                "ok": False, "backend": None, "latency_ms": 0.0,
                "result": None,
                "error": {"code": "shard-lost", "message": "row unassigned"},
            }
            for _ in range(len(coords))
        ]
        for handle, sl in zip(handles, slices):
            if handle.id in parts:
                for offset, row in enumerate(parts[handle.id]):
                    out[sl.start + offset] = row
            elif sl.start != sl.stop:
                detail = failures.get(handle.id, (sl, "worker unavailable"))[1]
                for i in range(sl.start, sl.stop):
                    out[i]["error"]["message"] = detail
        if self.config.scatter_retry:
            self._retry_lost_rows(session, coords, out, now, ctx, tspan)
        return out

    def _retry_lost_rows(
        self, session: str, coords: np.ndarray,
        out: List[Dict[str, Any]], now: Optional[float],
        ctx: Optional[TraceContext] = None, tspan=None,
    ) -> None:
        """One-shot retry of ``shard-lost`` rows against the survivors.

        Safe because traversal answers depend only on (session data,
        coordinates): re-executing a stranded row on any worker that
        holds the session yields the bit-identical result.  One shot —
        if the retry shard dies too, the rows keep their typed error.
        """
        lost = [
            i for i, row in enumerate(out)
            if row["error"] is not None
            and row["error"].get("code") == "shard-lost"
        ]
        if not lost:
            return
        owner = self.place(session)
        if owner is None:
            return
        self._m["scatter_retries"].inc()
        self._rlog(
            "warn", "fleet.scatter_retry", self.now_ms,
            trace_id=ctx.trace_id if ctx is not None else None,
            session=session, rows=len(lost), worker=owner,
        )
        if tspan is not None:
            # The retried rows run under the SAME context: their spans
            # parent under the original ticket's trace id, so a chaos
            # kill mid-scatter still renders as one trace.
            tspan.event(
                "scatter_retry", self.now_ms, rows=len(lost), worker=owner
            )
        try:
            reply = self._submit_call(
                owner, session, coords[np.asarray(lost)], now, chaos=False,
                ctx=ctx,
            )
        except (wire.WorkerGone, wire.WireError):
            return  # one shot spent; rows keep their typed error
        for i, row in zip(lost, reply["results"]):
            out[i] = row
        self._m["scatter_retry_rows"].inc(len(lost), worker=owner)

    def run_load(self, ticks: int = 1, queries_per_tick: int = 8,
                 tick_ms: float = 2.0, keep_results: bool = False,
                 ) -> Dict[str, Dict[str, Any]]:
        """Fan one seeded load burst out to every live worker."""
        self._chaos_kill_tick(self.now_ms if self.chaos else None)
        replies, failures = self.broadcast(
            "run_load", ticks=ticks, queries_per_tick=queries_per_tick,
            tick_ms=tick_ms, keep_results=keep_results,
        )
        for worker, reply in sorted(replies.items()):
            self.observe_now(reply.get("now_ms"))
            self._ingest_spans(worker, reply.get("spans"))
            self._ingest_logs(worker, reply.get("logs"))
        for worker, reason in failures.items():
            replies[worker] = {"ok": False, "error": reason}
        return replies

    # -- healing ---------------------------------------------------------

    def heal(self, now: Optional[float] = None) -> Dict[str, str]:
        """One supervision pass: detect deaths, restart the eligible.

        Returns ``{worker: action}`` where action is ``restarted``,
        ``restart-failed``, ``evicted``, or ``wait``.  Safe to call
        from a background thread (concurrent callers skip).  Callers
        that own a logical clock pass ``now`` explicitly (deterministic
        supervision); serve mode uses :meth:`wall_now_ms`.
        """
        if not self.config.supervise:
            return {}
        if not self._heal_lock.acquire(blocking=False):
            return {}
        try:
            now = self.observe_now(now) if now is not None else self.now_ms
            # 1. Detect silent deaths: a SIGKILLed worker whose pipe
            # nobody has touched since.
            for worker in self.live_workers():
                handle = self.handles[worker]
                if not handle.proc.is_alive():
                    self._trip(
                        handle,
                        f"process exited (exitcode {handle.proc.exitcode})",
                        now=now,
                    )
            # 2. Restart the dead where policy allows; evict the hopeless.
            actions: Dict[str, str] = {}
            for worker in self.dead_workers():
                handle = self.handles[worker]
                if handle.breaker.state != BREAKER_OPEN:
                    continue  # half-open: a restart is already in flight
                decision = self.supervisor.decide(worker, now)
                if decision == DECIDE_RESTART:
                    ok = self._respawn(handle, now)
                    actions[worker] = "restarted" if ok else "restart-failed"
                elif decision == DECIDE_EVICT:
                    if worker not in self._evictions_recorded:
                        self._evictions_recorded.add(worker)
                        self._m["evictions"].inc(worker=worker)
                        handle.breaker.reason = (
                            f"evicted (restart budget exhausted): "
                            f"{handle.breaker.reason}"
                        )
                        self._rlog(
                            "error", "fleet.evicted", now, worker=worker,
                            reason=handle.breaker.reason,
                        )
                        self._update_worker_gauges()
                    actions[worker] = "evicted"
                else:
                    actions[worker] = "wait"
            return actions
        finally:
            self._heal_lock.release()

    def _respawn(self, handle: WorkerHandle, now: float) -> bool:
        """Replace a dead worker's process; replay, probe, re-join.

        The breaker goes ``half_open`` for the duration: the shard is
        out of the ring and takes no traffic until the session catalog
        has replayed (digest-verified against the ledger) and a probe
        ping answers.  Success closes the breaker and re-adds the ring
        vnodes (same seeds — placement is restored exactly); any
        failure re-opens it and counts against the restart budget.
        """
        died_at = self.supervisor.dead_since(handle.id)
        span = self.tracer.begin(
            "fleet.recover", track=handle.id,
            span_id=f"recover:{handle.id}:{handle.incarnation + 1}",
            t_ms=now, reason=handle.breaker.reason,
        )
        with handle.lock:
            old = handle.proc
            if old.is_alive():
                # drop-reply / stall trips leave a healthy-but-unusable
                # process behind; replacement starts by retiring it.
                old.terminate()
                old.join(timeout=5.0)
                if old.is_alive():
                    old.kill()
                    old.join(timeout=5.0)
            else:
                old.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.incarnation += 1
            proc, conn = self._spawn(
                handle.id, handle.index, handle.incarnation
            )
            handle.proc = proc
            handle.conn = conn
            handle.breaker.half_open("restart in flight")
            self._update_worker_gauges()
            try:
                wire.recv_reply(
                    conn, handle.id, timeout=self.config.call_timeout_s
                )
                span.event("booted", self.now_ms)
                replayed = self._replay_sessions(handle, span)
                wire.call(
                    conn, handle.id, "ping",
                    timeout=self.config.call_timeout_s,
                )
                span.event("probed", self.now_ms)
            except (wire.WorkerGone, wire.WireError) as exc:
                handle.breaker.trip(f"restart failed: {exc}")
                self.ledger.mark_worker_lost(handle.id)
                self.supervisor.note_restart_failed(handle.id, now)
                self._m["restart_failures"].inc(worker=handle.id)
                self._update_worker_gauges()
                self.tracer.end(span.span_id, self.now_ms, status="error",
                                error=str(exc))
                self.flight.record(handle.id, span.to_dict())
                self._ingest_spans(ROUTER_WORKER, [span.to_dict()])
                self._rlog(
                    "error", "fleet.restart_failed", self.now_ms,
                    worker=handle.id, incarnation=handle.incarnation,
                    error=str(exc),
                )
                return False
        with self._state_lock:
            if handle.id not in self.ring:
                self.ring.add(handle.id)
        handle.breaker.close()
        self.supervisor.note_restarted(handle.id, now)
        self._m["restarts"].inc(worker=handle.id)
        if died_at is not None:
            self._m["recovery_ms"].observe(max(0.0, now - died_at))
        self._update_worker_gauges()
        self.tracer.end(
            span.span_id, self.now_ms, status="ok",
            sessions_replayed=replayed, incarnation=handle.incarnation,
        )
        self.flight.record(handle.id, span.to_dict())
        # Satellite contract: a heal is visible on the same merged
        # /tracez timeline as the tickets it delayed.
        self._ingest_spans(ROUTER_WORKER, [span.to_dict()])
        self._rlog(
            "info", "fleet.restarted", self.now_ms, worker=handle.id,
            incarnation=handle.incarnation, sessions_replayed=replayed,
        )
        return True

    def _replay_sessions(self, handle: WorkerHandle, span) -> int:
        """Replay the ledger into a half-open worker (caller holds the
        handle lock).  Digest mismatch is a replay failure: the rejoined
        shard must serve from bit-identical data or not at all."""
        replayed = 0
        for record in self.ledger.records():
            reply = wire.call(
                handle.conn, handle.id, "register",
                name=record.name, app=record.app, data=record.data,
                build_kwargs=record.build_kwargs,
                timeout=self.config.call_timeout_s,
            )
            echoed = reply.get("digest")
            if echoed is not None and echoed != record.digest:
                raise wire.WireError(
                    f"worker {handle.id!r}: replay digest mismatch for "
                    f"{record.name!r} (worker built {echoed}, ledger "
                    f"holds {record.digest})"
                )
            self.ledger.mark(record.name, handle.id, STATE_OK)
            self._m["replays"].inc(worker=handle.id)
            span.event("replayed", self.now_ms, session=record.name)
            replayed += 1
        return replayed

    # -- aggregation (the HTTP payloads) ---------------------------------

    def metrics_export(self) -> dict:
        """Merged fleet metrics: per-worker-labelled series + fleet_*."""
        replies, _ = self.broadcast("metrics")
        exports = {
            w: r.get("metrics") for w, r in replies.items()
            if r.get("metrics") is not None
        }
        self._sync_trace_counters()
        self._sync_log_counters()
        if self.otlp is not None:
            self.otlp.sync_metrics(self.registry)
        merged = merge_labeled_exports(exports, label="worker")
        merged.update(self.registry.to_dict())  # fleet_* families
        return merged

    def metrics_text(self) -> str:
        return expose_export_text(self.metrics_export())

    def metrics_summed(self) -> dict:
        """Fleet totals: counters summed, histograms bucket-merged."""
        replies, _ = self.broadcast("metrics")
        exports = {
            w: r.get("metrics") for w, r in replies.items()
            if r.get("metrics") is not None
        }
        return sum_exports(exports)

    def healthz(self) -> dict:
        """Fleet readiness: degraded if any worker is degraded or dead.

        A healed worker reports healthy again — recovery is visible
        here, not just in the counters.  Evicted workers stay degraded
        forever (an exhausted restart budget is a terminal loss).
        """
        replies, failures = self.broadcast("health")
        workers: Dict[str, dict] = {}
        degraded: List[str] = []
        for worker in sorted(self.handles):
            handle = self.handles[worker]
            if not handle.alive:
                status = "dead"
                if handle.breaker.state == BREAKER_HALF_OPEN:
                    status = "recovering"
                elif self.supervisor.is_evicted(worker):
                    status = "evicted"
                workers[worker] = {
                    "status": status, "ok": False,
                    "reason": handle.breaker.reason,
                    "restarts": handle.breaker.recoveries,
                }
                degraded.append(worker)
            elif worker in replies:
                payload = replies[worker]["health"]
                workers[worker] = payload
                if not payload.get("ok", False):
                    degraded.append(worker)
            else:
                workers[worker] = {
                    "status": "unreachable", "ok": False,
                    "reason": failures.get(worker, "no reply"),
                }
                degraded.append(worker)
        ok = not degraded
        return {
            "status": "ok" if ok else "degraded",
            "ok": ok,
            "workers": workers,
            "checks": {
                "degraded_workers": sorted(degraded),
                "dead_workers": self.dead_workers(),
                "live_workers": self.live_workers(),
                "evicted_workers": self.supervisor.evicted_workers(),
                "restarts_total": self.supervisor.total_restarts(),
                "sessions": sorted(self.sessions),
                "partial_registrations": self.ledger.partial_registrations(
                    self.live_workers()
                ),
            },
        }

    def statsz(self) -> dict:
        """Strict-JSON fleet snapshot: per-worker stats + aggregate.

        Aggregate counters are sums; aggregate latency quantiles are
        query-weighted means of worker quantiles (an approximation,
        labelled as such) and are ``None`` — never ``NaN`` — when no
        worker has samples, preserving the PR-2 strict-JSON round-trip
        contract fleet-wide.  The ``fleet`` section carries the
        supervision ledger: per-session registration coverage, partial
        registrations, restart history, and recent recovery timelines.
        """
        replies, failures = self.broadcast("stats")
        worker_stats = {w: r["stats"] for w, r in replies.items()}
        agg = _aggregate_stats(list(worker_stats.values()))
        live = self.live_workers()
        return {
            "fleet": {
                "workers": len(self.handles),
                "workers_alive": len(live),
                "workers_dead": self.dead_workers(),
                "workers_evicted": self.supervisor.evicted_workers(),
                "unreachable": sorted(failures),
                "sessions": sorted(self.sessions),
                "session_coverage": self.ledger.coverage(live),
                "partial_registrations": self.ledger.partial_registrations(
                    live
                ),
                "scatter_batches": self._m["scattered"].value(),
                "scatter_retries": self._m["scatter_retries"].value(),
                "supervision": self.supervisor.snapshot(),
                "recoveries": {
                    w: wire.to_jsonable(self.flight.ring(w))
                    for w in self.flight.sessions()
                },
                "chaos_events": (
                    self.chaos.schedule() if self.chaos is not None else []
                ),
                "placements": {
                    s: self.place(s) for s in sorted(self.sessions)
                },
                "trace": (
                    {
                        "retained": len(self.trace),
                        "ingested": self.trace.ingested,
                        "dropped": self.trace.dropped,
                    }
                    if self.trace is not None
                    else None
                ),
                "logs": (
                    {
                        "retained": len(self.logs),
                        "ingested": self.logs.ingested,
                        "dropped": self.logs.dropped,
                    }
                    if self.logs is not None
                    else None
                ),
                "otlp": self.otlp.stats() if self.otlp is not None else None,
            },
            "aggregate": agg,
            "workers": worker_stats,
        }

    # -- drain -----------------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """Fleet-wide graceful drain (the SIGTERM path).

        Fans ``drain`` out to every live worker (each flushes pending
        queries — drain-or-fail — and exits 0), joins the processes,
        and reports per-worker pending depths and exit codes.  ``ok``
        is True only when every *current* worker drained with nothing
        pending and exited cleanly: a worker that died and was healed
        by a restart drains through its replacement process and does
        not taint the exit, while an unhealed or evicted worker makes
        the drain not-ok by definition (its queries cannot be
        accounted for).
        """
        self.drain_spans()  # final sweeps while the workers still answer
        self.drain_logs()
        report: Dict[str, dict] = dict(self._drained)
        for worker in self.live_workers():
            handle = self.handles[worker]
            try:
                reply = self._call(worker, "drain")
                self._ingest_spans(worker, reply.get("spans"))
                self._ingest_logs(worker, reply.get("logs"))
                report[worker] = {
                    "pending": int(reply.get("pending", -1)),
                    "drained": bool(reply.get("drained", False)),
                }
                self._rlog(
                    "info" if report[worker]["drained"] else "warn",
                    "fleet.drain_verdict", self.now_ms, worker=worker,
                    pending=report[worker]["pending"],
                    drained=report[worker]["drained"],
                )
            except (wire.WorkerGone, wire.WireError) as exc:
                report[worker] = {
                    "pending": -1, "drained": False, "error": str(exc),
                }
                self._rlog(
                    "error", "fleet.drain_verdict", self.now_ms,
                    worker=worker, pending=-1, drained=False,
                    error=str(exc),
                )
        deadline = time.monotonic() + timeout_s
        for worker, handle in sorted(self.handles.items()):
            remaining = max(0.0, deadline - time.monotonic())
            handle.proc.join(timeout=remaining)
            if handle.proc.is_alive():
                # Workers shield SIGTERM (they exit via the drain
                # protocol), so escalation goes straight past it.
                handle.proc.terminate()
                handle.proc.join(timeout=5.0)
                if handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(timeout=5.0)
            entry = report.setdefault(
                worker,
                {"pending": -1, "drained": False,
                 "error": handle.breaker.reason or "dead before drain"},
            )
            entry["exitcode"] = handle.proc.exitcode
            entry["incarnation"] = handle.incarnation
            entry["restarts"] = handle.breaker.recoveries
            handle.conn.close()
        ok = bool(report) and all(
            e.get("drained") and e.get("exitcode") == 0
            for e in report.values()
        )
        self._drained = report
        return {
            "ok": ok,
            "workers": report,
            "restarts_total": self.supervisor.total_restarts(),
            "evicted": self.supervisor.evicted_workers(),
        }


# -- statsz aggregation ----------------------------------------------------

#: counters summed across workers in the aggregate view.
_SUM_FIELDS = (
    "queries_submitted", "queries_completed", "queries_failed",
    "queue_depth", "batches", "flush_full", "flush_timeout",
    "flush_forced", "total_exec_ms",
)


def _weighted_mean(
    pairs: List[Tuple[Optional[float], float]]
) -> Optional[float]:
    """Weight-averaged value over (value, weight) pairs; None — never
    NaN — when no pair carries a sample (the empty-worker fix)."""
    num = 0.0
    den = 0.0
    for value, weight in pairs:
        if value is None or weight <= 0:
            continue
        num += value * weight
        den += weight
    return num / den if den > 0 else None


def _aggregate_stats(worker_stats: List[dict]) -> dict:
    """Sum/merge per-worker ServiceStats dicts into one fleet row."""
    agg: Dict[str, Any] = {w: 0 for w in _SUM_FIELDS}
    agg["sessions"] = 0
    for stats in worker_stats:
        for fname in _SUM_FIELDS:
            agg[fname] += stats.get(fname) or 0
        agg["sessions"] = max(agg["sessions"], stats.get("sessions") or 0)
    weights = [float(s.get("queries_completed") or 0) for s in worker_stats]
    agg["p50_latency_ms"] = _weighted_mean(
        [(s.get("p50_latency_ms"), w) for s, w in zip(worker_stats, weights)]
    )
    agg["p95_latency_ms"] = _weighted_mean(
        [(s.get("p95_latency_ms"), w) for s, w in zip(worker_stats, weights)]
    )
    agg["latency_note"] = (
        "fleet quantiles are query-weighted means of worker quantiles"
    )
    resilience: Dict[str, int] = {}
    for stats in worker_stats:
        r = stats.get("resilience") or {}
        for key in ("retries", "degraded_batches", "failed_batches",
                    "shed_rejected", "shed_dropped", "deadline_misses"):
            resilience[key] = resilience.get(key, 0) + (r.get(key) or 0)
    agg["resilience"] = resilience
    agg["workers_reporting"] = len(worker_stats)
    return agg


# -- HTTP front-end --------------------------------------------------------


class FleetServer:
    """Router behind the serve-mode HTTP surface, fleet edition.

    Routes: ``/metrics`` (merged exposition), ``/healthz`` (fleet
    readiness, 503 while degraded), ``/statsz`` (strict-JSON fleet
    snapshot), ``/tracez`` (merged fleet timeline, ``?format=chrome``
    for trace_event JSON), ``/logz`` (merged structured log stream,
    filterable by level / worker / trace id), ``/debugz`` (one
    strict-JSON diagnostics snapshot), ``/profilez`` (per-worker
    kernel profiles).  Malformed query params answer 400 with a JSON
    error body, never a 500 traceback.
    A background load pump fans seeded synthetic ticks to
    the workers so a scraped fleet shows a live, moving system, and a
    supervision loop heals dead workers (restart + ledger replay) so a
    SIGKILLed worker shows up in ``/healthz`` as degraded, then
    recovers.
    """

    def __init__(
        self,
        router: FleetRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        load_queries_per_tick: int = 0,
        load_tick_ms: float = 2.0,
        load_interval_s: float = 0.05,
        heal_interval_s: float = 0.25,
        trace_interval_s: float = 0.5,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.load_queries_per_tick = load_queries_per_tick
        self.load_tick_ms = load_tick_ms
        self.load_interval_s = load_interval_s
        self.heal_interval_s = heal_interval_s
        self.trace_interval_s = trace_interval_s
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._pump: Optional[threading.Thread] = None
        self._healer: Optional[threading.Thread] = None
        self._trace_pump: Optional[threading.Thread] = None
        self._halt = threading.Event()
        self._shut = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        if self._httpd is not None:
            raise RuntimeError("fleet server already started")
        # Imported on first listen: a process that serves no HTTP never
        # loads http.server, http.client or ssl.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class _Handler(BaseHTTPRequestHandler):
            server_version = "repro-fleet/1.0"
            protocol_version = "HTTP/1.1"

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                try:
                    status, ctype, body = server.respond(self.path)
                except Exception as exc:
                    status, ctype = 500, JSON_CONTENT_TYPE
                    body = json.dumps({"error": repr(exc)}).encode()
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args) -> None:
                pass

        self._httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="fleet-http", daemon=True
        )
        self._thread.start()
        if self.load_queries_per_tick > 0:
            self._pump = threading.Thread(
                target=self._pump_loop, name="fleet-load-pump", daemon=True
            )
            self._pump.start()
        if self.router.config.supervise:
            self._healer = threading.Thread(
                target=self._heal_loop, name="fleet-healer", daemon=True
            )
            self._healer.start()
        if self.router.trace is not None or self.router.logs is not None:
            self._trace_pump = threading.Thread(
                target=self._trace_loop, name="fleet-trace-drain", daemon=True
            )
            self._trace_pump.start()
        return self.host, self.port

    def _pump_loop(self) -> None:
        while not self._halt.is_set():
            try:
                self.router.run_load(
                    ticks=1,
                    queries_per_tick=self.load_queries_per_tick,
                    tick_ms=self.load_tick_ms,
                )
            except RuntimeError:
                # No live workers right now; the healer may still bring
                # some back, so keep pumping until shutdown.
                pass
            self._halt.wait(self.load_interval_s)

    def _heal_loop(self) -> None:
        """Background supervision: serve mode heals on the wall-floored
        clock (an idle fleet's backoff must still elapse)."""
        while not self._halt.is_set():
            try:
                self.router.heal(now=self.router.wall_now_ms())
            except Exception:
                pass  # supervision must never kill the serving loop
            self._halt.wait(self.heal_interval_s)

    def _trace_loop(self) -> None:
        """Periodic trace_drain + log_drain sweep: spans and log
        records stranded between submits (or orphaned by a worker
        death) still reach the assemblers."""
        while not self._halt.is_set():
            try:
                self.router.drain_spans()
                self.router.drain_logs()
            except Exception:
                pass  # telemetry collection must never kill serving
            self._halt.wait(self.trace_interval_s)

    def shutdown(self) -> Dict[str, Any]:
        """Stop load, drain the fleet, close the listener; idempotent."""
        if self._shut:
            return self.router._drained and {
                "ok": all(
                    e.get("drained") and e.get("exitcode") == 0
                    for e in self.router._drained.values()
                ),
                "workers": self.router._drained,
            } or {"ok": False, "workers": {}}
        self._shut = True
        self._halt.set()
        if self._pump is not None:
            self._pump.join(timeout=10.0)
        if self._healer is not None:
            self._healer.join(timeout=10.0)
        if self._trace_pump is not None:
            self._trace_pump.join(timeout=10.0)
        report = self.router.drain()
        if self.router.otlp is not None:
            # After the final drain sweep the assembler has everything;
            # one last flush, then the exporter thread stops.
            self.router.otlp.stop(flush=True)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return report

    def __enter__(self) -> "FleetServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- routing ---------------------------------------------------------

    def respond(self, path: str) -> Tuple[int, str, bytes]:
        """Route one GET (shared by the HTTP handler and the tests)."""
        parts = urlsplit(path)
        route = parts.path.rstrip("/") or "/"
        if route == "/metrics":
            return 200, METRICS_CONTENT_TYPE, self.router.metrics_text().encode()
        if route == "/healthz":
            health = self.router.healthz()
            return self._json(200 if health["ok"] else 503, health)
        if route == "/statsz":
            return self._statsz(parts.query)
        if route == "/tracez":
            return self._tracez(parts.query)
        if route == "/logz":
            return self._logz(parts.query)
        if route == "/debugz":
            return self._json(200, self.router.debugz())
        if route == "/profilez":
            return self._json(200, self.router.profilez())
        return self._json(
            404,
            {
                "error": f"no route {route!r}",
                "routes": [
                    "/metrics", "/healthz", "/statsz", "/tracez", "/logz",
                    "/debugz", "/profilez",
                ],
            },
        )

    @staticmethod
    def _parse_limit(params: dict):
        """``?limit=N`` → (limit, error_payload).  Malformed or negative
        values are a client error (400 + JSON body), never a traceback.
        """
        if "limit" not in params:
            return None, None
        raw = params["limit"][-1]
        try:
            limit = int(raw)
        except ValueError:
            return None, {"error": f"limit must be an integer, got {raw!r}"}
        if limit < 0:
            return None, {"error": f"limit must be >= 0, got {limit}"}
        return limit, None

    def _statsz(self, query: str) -> Tuple[int, str, bytes]:
        _, bad = self._parse_limit(parse_qs(query))
        if bad is not None:
            return self._json(400, bad)
        return self._json(200, self.router.statsz())

    def _tracez(self, query: str) -> Tuple[int, str, bytes]:
        """Merged fleet timeline; ``?limit=N`` caps the span list and
        ``?format=chrome`` returns the Chrome trace_event export."""
        params = parse_qs(query)
        limit, bad = self._parse_limit(params)
        if bad is not None:
            return self._json(400, bad)
        if params.get("format", [""])[-1] == "chrome":
            if self.router.trace is None:
                return self._json(200, {"traceEvents": []})
            self.router.drain_spans()
            return self._json(200, self.router.trace.chrome_trace())
        return self._json(200, self.router.tracez(limit=limit))

    def _logz(self, query: str) -> Tuple[int, str, bytes]:
        """Merged fleet log stream; ``?limit=N`` caps the record list,
        ``?level=warn`` is a severity floor, ``?worker=w0`` and
        ``?trace_id=...`` are exact-match filters."""
        params = parse_qs(query)
        limit, bad = self._parse_limit(params)
        if bad is not None:
            return self._json(400, bad)
        level = params.get("level", [None])[-1]
        if level is not None and level not in LEVELS:
            return self._json(
                400,
                {"error": f"level must be one of {list(LEVELS)}, "
                          f"got {level!r}"},
            )
        worker = params.get("worker", [None])[-1]
        trace_id = params.get("trace_id", [None])[-1]
        return self._json(
            200,
            self.router.logz(
                limit=limit, level=level, worker=worker, trace_id=trace_id
            ),
        )

    @staticmethod
    def _json(status: int, payload: dict) -> Tuple[int, str, bytes]:
        # allow_nan=False: the strict-JSON contract, fleet-wide.
        body = json.dumps(payload, indent=2, allow_nan=False).encode()
        return status, JSON_CONTENT_TYPE, body


def run_fleet(
    server: FleetServer,
    *,
    duration_s: Optional[float] = None,
    announce=print,
) -> int:
    """Blocking fleet loop with SIGTERM/SIGINT fan-out drain.

    Mirrors :func:`repro.service.serve.run_serve`: runs until a signal
    (or ``duration_s``), then drains the whole fleet.  Exit code 0
    *only* when every current worker drained clean and exited 0 —
    deaths healed by the supervisor do not taint the exit.
    """
    stop = threading.Event()
    previous = {}

    def _on_signal(signum, frame) -> None:
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _on_signal)
        except ValueError:
            pass  # not the main thread (tests drive run_fleet directly)
    host, port = server.start()
    announce(
        f"fleet of {len(server.router.handles)} workers on "
        f"http://{host}:{port} (/metrics /healthz /statsz /tracez /logz "
        "/debugz /profilez) — SIGTERM or Ctrl-C drains every worker "
        "and exits"
    )
    deadline = time.monotonic() + duration_s if duration_s else None
    try:
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            stop.wait(0.1)
    finally:
        report = server.shutdown()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    pendings = {
        w: e.get("pending") for w, e in report["workers"].items()
    }
    announce(
        f"fleet drained and stopped (ok={report['ok']}, "
        f"restarts={report.get('restarts_total', 0)}, "
        f"pending per worker: {pendings})"
    )
    if not report["ok"]:
        # A not-ok drain must say why, per worker, or the exit code is
        # undebuggable from the smoke-job log alone.
        for worker, entry in sorted(report["workers"].items()):
            if entry.get("error") or entry.get("exitcode") != 0:
                announce(
                    f"  {worker}: error={entry.get('error')!r} "
                    f"exitcode={entry.get('exitcode')}"
                )
    return 0 if report["ok"] else 1
