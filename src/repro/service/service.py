"""The online traversal query service: the synchronous client facade.

:class:`TraversalService` ties the subsystem together — session
registry (tree + plan, built once), per-session dynamic batchers,
batch spatial reordering, the adaptive dispatcher, and the resilience
layer — behind a small synchronous API:

* :meth:`register` / :meth:`unregister` — session lifecycle;
* :meth:`submit` — validate + admit + enqueue one query, flushing on a
  full batch;
* :meth:`advance` — move the logical clock, flushing expired windows;
* :meth:`query` / :meth:`query_many` — synchronous wrappers that force
  the answer out immediately (a degenerate flush when the batch is not
  yet full);
* :meth:`stats` — the :class:`~repro.service.stats.ServiceStats`
  snapshot.

The clock is logical and monotone, in modeled milliseconds; callers
(or the load generator in ``python -m repro.service``) advance it with
arrival timestamps.

Failure semantics (see ``docs/RESILIENCE.md``): a submitted query is
never lost.  Every ticket resolves — with a result, or with a typed
:class:`~repro.service.resilience.ServiceError` (deadline, budget,
backend exhaustion, load shedding).  Malformed queries (NaN/inf
coordinates, wrong dimensionality) are rejected at the boundary with
:class:`~repro.service.resilience.InvalidQuery` before they can reach
Morton ordering or an executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cpusim.threads import CPUConfig, OPTERON_6176
from repro.gpusim.device import DeviceConfig, TESLA_C2070
from repro.gpusim.executors.common import ENGINES
from repro.gpusim.faults import ChaosConfig
from repro.points.sorting import kd_bucket_order, morton_order
from repro.service.batcher import Batch, DynamicBatcher, QueryTicket
from repro.service.dispatch import BACKENDS, AdaptiveDispatcher
from repro.service.resilience import (
    DeadlineExceeded,
    InvalidQuery,
    Overloaded,
    ServiceError,
)
from repro.service.memo import MemoSnapshot, TraversalMemo
from repro.service.sessions import SessionRegistry, TreeSession
from repro.service.stats import BackendStats, ResilienceCounters, ServiceStats
from repro.telemetry import (
    DEFAULT_SIZE_BUCKETS,
    SLOConfig,
    SLOTracker,
    Telemetry,
    TelemetryConfig,
)

SORT_MODES = ("arrival", "morton", "tree")
SHED_POLICIES = ("reject-new", "drop-oldest")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`TraversalService` instance."""

    #: flush a session's queue at this many pending queries.
    max_batch: int = 64
    #: ... or when the oldest pending query has waited this long.
    max_wait_ms: float = 2.0
    #: batch spatial reorder: "arrival" (none), "morton", or "tree"
    #: (kd-bucket descent; falls back to morton for non-kd trees).
    sort: str = "morton"
    #: force every batch to one backend ("lockstep" | "nonlockstep" |
    #: "cpu"); None means adaptive similarity-profiled routing.
    backend: Optional[str] = None
    #: batches smaller than this skip the GPU entirely.
    min_gpu_batch: int = 8
    #: neighbor pairs sampled per batch by the similarity profiler.
    similarity_samples: int = 4
    #: mean-Jaccard threshold above which lockstep is chosen.
    similarity_threshold: float = 0.5
    #: CPU-backend thread count (the modeled Opteron's).
    cpu_threads: int = 8
    device: DeviceConfig = TESLA_C2070
    cpu: CPUConfig = field(default_factory=lambda: OPTERON_6176)
    seed: int = 7

    # -- resilience ------------------------------------------------------

    #: per-query end-to-end latency deadline in modeled ms (None = off);
    #: a query whose wait + retries + execution exceed it resolves with
    #: DeadlineExceeded instead of a late result.
    deadline_ms: Optional[float] = None
    #: executor watchdog: max traversal steps per launch before the
    #: batch fails with BudgetExhausted (None = unbounded).
    visit_budget: Optional[int] = 100_000
    #: execution tries per backend before moving down the fallback chain.
    retry_max_attempts: int = 3
    #: backoff before the first retry, in modeled ms.
    retry_backoff_ms: float = 0.5
    retry_backoff_multiplier: float = 2.0
    #: jitter fraction of each backoff (deterministic, seeded).
    retry_jitter: float = 0.25
    #: consecutive failures that trip a backend's circuit breaker.
    breaker_threshold: int = 3
    #: logical ms an open breaker waits before half-open probing.
    breaker_cooldown_ms: float = 20.0
    #: probe batches admitted in the half-open state.
    breaker_half_open_trials: int = 1
    #: per-session pending-queue cap (None = unbounded).
    max_queue_depth: Optional[int] = None
    #: what to shed at the cap: "reject-new" (refuse the submit with
    #: Overloaded) or "drop-oldest" (oldest queued ticket resolves with
    #: Overloaded, the new query is admitted).
    shed_policy: str = "reject-new"
    #: consecutive failing batches per session before the compiled plan
    #: is invalidated and recompiled.
    plan_failure_threshold: int = 3
    #: deterministic fault injection (None = chaos off).
    chaos: Optional[ChaosConfig] = None

    # -- execution engine ------------------------------------------------

    #: GPU execution engine for dispatched batches: ``"codegen"``
    #: (emitted + exec-compiled specialized NumPy loops with frontier
    #: compaction, cached in the shared plan cache) or ``"interp"`` (the
    #: per-step AST interpreter, the reference engine).
    engine: str = "codegen"
    #: frontier-compaction trigger passed to every GPU launch (see
    #: TraversalLaunch.compact_threshold); session-overridable.
    compact_threshold: float = 0.9

    # -- memoization -----------------------------------------------------

    #: per-session memo of traversal results keyed by (plan epoch,
    #: quantized coords); 0 disables memoization entirely.
    memo_capacity: int = 256
    #: memo coordinate quantization grid (0 = exact bitwise match, the
    #: safe default: no radius/NN boundary effects).
    memo_quantum: float = 0.0

    # -- telemetry -------------------------------------------------------

    #: telemetry layer (metrics registry + span tracing + flight
    #: recorder); disabled by default — the off path costs one branch
    #: per batch and nothing per step.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    # -- service-level objectives ----------------------------------------

    #: declarative latency / error-rate objectives with multi-window
    #: burn-rate alerting per session (None = no SLO tracking).  Fast
    #: burns degrade :meth:`TraversalService.health` and freeze a
    #: flight-recorder snapshot; burn rates export as gauges.
    slo: Optional[SLOConfig] = None

    def __post_init__(self) -> None:
        if self.sort not in SORT_MODES:
            raise ValueError(f"sort must be one of {SORT_MODES}, got {self.sort!r}")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS} or None, got {self.backend!r}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.visit_budget is not None and self.visit_budget < 1:
            raise ValueError("visit_budget must be >= 1 (or None)")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if self.plan_failure_threshold < 1:
            raise ValueError("plan_failure_threshold must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if not 0.0 <= self.compact_threshold <= 1.0:
            raise ValueError("compact_threshold must be in [0, 1]")
        if self.memo_capacity < 0:
            raise ValueError("memo_capacity must be >= 0")
        if self.memo_quantum < 0:
            raise ValueError("memo_quantum must be >= 0")

    def with_(self, **changes) -> "ServiceConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


class TraversalService:
    """Online traversal query engine over the compiled-plan pipeline."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.registry = SessionRegistry()
        self.telemetry = Telemetry.from_config(self.config.telemetry)
        if self.telemetry.tracer is not None:
            # Local trace identity derives from the service seed, so a
            # standalone run's span tree is as reproducible as a fleet's.
            self.telemetry.tracer.trace_seed = self.config.seed
        self.dispatcher = AdaptiveDispatcher(
            self.config, self.telemetry, plans=self.registry.plans
        )
        self._batchers: Dict[str, DynamicBatcher] = {}
        self._memos: Dict[str, TraversalMemo] = {}
        self._backend_stats: Dict[str, BackendStats] = {
            b: BackendStats(b) for b in BACKENDS
        }
        self.resilience = ResilienceCounters()
        self.now_ms = 0.0
        self._next_ticket = 0
        self._next_batch = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._plan_failures: Dict[str, int] = {}
        self._all_latencies: List[float] = []
        self._slo: Dict[str, SLOTracker] = {}
        self._register_instruments()

    # -- telemetry plumbing ----------------------------------------------

    def _register_instruments(self) -> None:
        """Register the service's metric families (telemetry only).

        ``self._m`` is None when telemetry/metrics are off — every
        update site guards on that one check, so the disabled path does
        no label-tuple or dict work at all.
        """
        tel = self.telemetry
        if not tel.enabled or tel.registry is None:
            self._m = None
            return
        reg = tel.registry
        self._m = {
            "queries": reg.counter(
                "service_queries_total", "queries admitted", labels=("session",)
            ),
            "results": reg.counter(
                "service_query_results_total",
                "query resolutions by outcome (ok or error code)",
                labels=("outcome",),
            ),
            "batches": reg.counter(
                "service_batches_total", "dispatched batches",
                labels=("session", "reason"),
            ),
            "batch_size": reg.histogram(
                "service_batch_size", "queries per dispatched batch",
                buckets=DEFAULT_SIZE_BUCKETS, labels=("backend",),
            ),
            "exec_ms": reg.histogram(
                "service_exec_ms", "modeled batch execution time (ms)",
                labels=("backend",),
            ),
            "wait_ms": reg.histogram(
                "service_wait_ms", "queue wait per query (ms)"
            ),
            "queue_depth": reg.gauge(
                "service_queue_depth", "pending queries", labels=("session",)
            ),
            "retries": reg.counter(
                "service_retries_total", "execution retries", labels=("backend",)
            ),
            "degraded": reg.counter(
                "service_degraded_batches_total",
                "batches served by a fallback backend",
            ),
            "faults": reg.counter(
                "service_faults_injected_total", "chaos faults armed",
                labels=("fault",),
            ),
            "plan_events": reg.counter(
                "plan_cache_events_total",
                "plan-cache hits / misses / invalidations",
                labels=("event",),
            ),
            "plan_ops": reg.gauge(
                "plan_ops", "compiled-program op counts per session plan",
                labels=("session", "variant", "op"),
            ),
            "memo": reg.counter(
                "memo_lookups_total", "traversal-memo lookups",
                labels=("session", "outcome"),
            ),
            "kernel": reg.counter(
                "kernel_counters_total",
                "kernel counters folded per backend (visits, traffic, ...)",
                labels=("backend", "counter"),
            ),
            "slo_burn": reg.gauge(
                "slo_burn_rate",
                "error-budget burn rate per objective and window",
                labels=("session", "objective", "window"),
            ),
            "slo_alert": reg.gauge(
                "slo_alert_active",
                "1 while a burn-rate alert is firing",
                labels=("session", "objective", "severity"),
            ),
            "slo_fired": reg.counter(
                "slo_fast_burn_total",
                "fast-burn alert activations (off-to-on transitions)",
                labels=("session", "objective"),
            ),
        }
        self.registry.plans.on_event = self._on_plan_event

    def _on_plan_event(self, event: str) -> None:
        self._m["plan_events"].inc(event=event)
        # Invalidations and epoch bumps are load-bearing (cached state
        # was thrown away); cache hits/misses stay counter-only noise.
        if event == "invalidate" and self.telemetry.log is not None:
            self.telemetry.log.warn("plan.invalidated", self.now_ms)

    def _publish_plan_gauges(self, session: TreeSession) -> None:
        """Static per-plan shape gauges (op histogram per variant)."""
        from repro.core.compile import program_for

        gauge = self._m["plan_ops"]
        variants = [("autoropes", False)]
        if session.plan.lockstep is not None:
            variants.append(("lockstep", True))
        for variant, lockstep in variants:
            prog = program_for(session.plan.kernel(lockstep=lockstep))
            for op, n in prog.op_histogram().items():
                gauge.set(n, session=session.name, variant=variant, op=op)

    def _tel_query_end(
        self, ticket: QueryTicket, t_end: float, status: str, **args
    ) -> None:
        """Finish a ticket's query span and feed the flight ring."""
        tracer = self.telemetry.tracer
        if tracer is None:
            return
        span = tracer.get_open(f"q{ticket.id}")
        if span is None:
            return
        self.telemetry.finish_span(ticket.session, span, t_end, status, **args)

    # -- sessions --------------------------------------------------------

    def register(
        self,
        name: str,
        app: str,
        data: np.ndarray,
        *,
        compact_threshold: Optional[float] = None,
        **build_kwargs,
    ) -> TreeSession:
        """Build (or reuse) a session and give it a batching queue.

        ``compact_threshold`` overrides the service-wide frontier-
        compaction knob for this session only (None = inherit config).
        """
        session = self.registry.register(
            name, app, data, compact_threshold=compact_threshold,
            **build_kwargs,
        )
        self._batchers[name] = DynamicBatcher(
            max_batch=self.config.max_batch, max_wait_ms=self.config.max_wait_ms
        )
        if self.config.memo_capacity > 0:
            self._memos[name] = TraversalMemo(
                capacity=self.config.memo_capacity,
                quantum=self.config.memo_quantum,
            )
        if self.config.slo is not None:
            self._slo[name] = SLOTracker(self.config.slo)
        if self._m is not None:
            self._publish_plan_gauges(session)
        return session

    def unregister(self, name: str, now: Optional[float] = None) -> bool:
        """Drain and remove a session; idempotent.

        Pending queries are flushed first (drain-or-fail: they resolve
        with results or typed errors, never silently vanish), then the
        batcher and registry entry go away.  Returns False when the
        session was already gone — calling twice is safe.
        """
        if name not in self._batchers:
            return self.registry.unregister(name)
        self.flush(name, now=now)
        self._batchers.pop(name, None)
        self._memos.pop(name, None)
        self._slo.pop(name, None)
        self._plan_failures.pop(name, None)
        self.registry.unregister(name)
        return True

    @property
    def plan_cache(self):
        return self.registry.plans

    # -- clock -----------------------------------------------------------

    def _tick(self, now: Optional[float]) -> float:
        if now is not None:
            if now < self.now_ms:
                raise ValueError(
                    f"clock must be monotone: now={now} < current {self.now_ms}"
                )
            self.now_ms = now
        return self.now_ms

    # -- validation / admission ------------------------------------------

    def _validate_coords(self, sess: TreeSession, coords) -> np.ndarray:
        """Boundary validation: shape and finiteness, or InvalidQuery."""
        coord_arr = np.asarray(coords, dtype=np.float64).reshape(-1)
        if coord_arr.shape != (sess.dim,):
            raise InvalidQuery(
                f"query for {sess.name!r} must have {sess.dim} coords, "
                f"got shape {coord_arr.shape}",
                session=sess.name,
            )
        if not np.all(np.isfinite(coord_arr)):
            raise InvalidQuery(
                f"query for {sess.name!r} has non-finite coords "
                f"{coord_arr.tolist()}",
                session=sess.name,
            )
        return coord_arr

    def _admit(self, session: str, batcher: DynamicBatcher, t: float) -> None:
        """Admission control at the queue-depth cap (load shedding)."""
        cap = self.config.max_queue_depth
        if cap is None or batcher.queue_depth < cap:
            return
        log = self.telemetry.log if self.telemetry.enabled else None
        if self.config.shed_policy == "reject-new":
            batcher.counters.shed_rejected += 1
            self.resilience.shed_rejected += 1
            self.resilience.count_error(Overloaded.code)
            if log is not None:
                log.warn(
                    "admission.shed", t, session=session,
                    policy="reject-new", cap=cap,
                )
            raise Overloaded(
                f"session {session!r} queue at cap {cap}; query rejected "
                "(shed_policy=reject-new)",
                session=session,
            )
        dropped = batcher.drop_oldest(t)
        if dropped is not None:
            dropped.error = Overloaded(
                f"session {session!r} queue at cap {cap}; oldest query "
                "shed (shed_policy=drop-oldest)",
                session=session,
            )
            self.resilience.shed_dropped += 1
            self.resilience.count_error(Overloaded.code)
            self._failed += 1
            if log is not None:
                log.warn(
                    "admission.shed", t, session=session,
                    policy="drop-oldest", cap=cap, ticket=dropped.id,
                )
            slo = self._slo.get(session)
            if slo is not None:
                slo.record(t, None, False)
                self._evaluate_slo(session, slo, t)
            if self.telemetry.enabled:
                self._tel_query_end(dropped, t, Overloaded.code, shed=True)
                if self._m is not None:
                    self._m["results"].inc(outcome=Overloaded.code)

    # -- query paths -------------------------------------------------------

    def submit(
        self, session: str, coord: Sequence[float], now: Optional[float] = None
    ) -> QueryTicket:
        """Enqueue one query; dispatches immediately on a full batch.

        Raises :class:`InvalidQuery` for malformed coordinates and
        :class:`Overloaded` when admission control rejects the query
        (``shed_policy="reject-new"`` at the queue cap).
        """
        t = self._tick(now)
        sess = self.registry.get(session)
        coord_arr = self._validate_coords(sess, coord)
        memo = self._memos.get(session)
        if memo is not None:
            cached = memo.lookup(sess.plan_epoch, coord_arr)
            if self._m is not None:
                self._m["memo"].inc(
                    session=session,
                    outcome="hit" if cached is not None else "miss",
                )
            if cached is not None:
                return self._serve_memo_hit(session, coord_arr, cached, t)
        batcher = self._batchers[session]
        self._admit(session, batcher, t)
        ticket = QueryTicket(
            id=self._next_ticket, session=session, coords=coord_arr, t_submit=t
        )
        self._next_ticket += 1
        self._submitted += 1
        if self.telemetry.enabled:
            tracer = self.telemetry.tracer
            if tracer is not None:
                tracer.begin(
                    "query", "query", f"q{ticket.id}", t, session=session
                )
            if self._m is not None:
                self._m["queries"].inc(session=session)
                self._m["queue_depth"].set(
                    batcher.queue_depth + 1, session=session
                )
        if batcher.add(ticket):
            self._dispatch(session, batcher.take_full(t), t, "full")
        return ticket

    def _serve_memo_hit(
        self, session: str, coord_arr: np.ndarray, cached, t: float
    ) -> QueryTicket:
        """Resolve a repeated query from the memo — no batch, no
        dispatch, zero modeled latency."""
        ticket = QueryTicket(
            id=self._next_ticket, session=session, coords=coord_arr, t_submit=t
        )
        self._next_ticket += 1
        self._submitted += 1
        self._completed += 1
        ticket.result = cached
        ticket.backend = "memo"
        self._all_latencies.append(0.0)
        slo = self._slo.get(session)
        if slo is not None:
            slo.record(t, 0.0, True)
        tel = self.telemetry
        if tel.enabled:
            tracer = tel.tracer
            if tracer is not None:
                span = tracer.complete(
                    "query", "query", f"q{ticket.id}", t, t,
                    session=session, backend="memo",
                )
                if tel.flight is not None:
                    tel.flight.record(session, span.to_dict())
            if self._m is not None:
                self._m["queries"].inc(session=session)
                self._m["results"].inc(outcome="ok")
        return ticket

    def advance(self, now: float) -> int:
        """Advance the clock; flush every expired window. Returns the
        number of batches dispatched."""
        self._tick(now)
        dispatched = 0
        for name, batcher in self._batchers.items():
            while True:
                deadline = batcher.timeout_deadline()
                taken = batcher.poll(now)
                if taken is None:
                    break
                self._dispatch(name, taken, deadline, "timeout")
                dispatched += 1
        return dispatched

    def flush(self, session: Optional[str] = None, now: Optional[float] = None) -> int:
        """Force-flush pending queries (all sessions by default).

        Exception-safe: a batch that fails resolves its tickets with
        typed errors and the remaining sessions still flush — queued
        queries are never left stranded behind a poisoned batch.
        """
        t = self._tick(now)
        names = [session] if session is not None else list(self._batchers)
        dispatched = 0
        for name in names:
            taken = self._batchers[name].take_all(t)
            if taken is not None:
                self._dispatch(name, taken, t, "forced")
                dispatched += 1
        return dispatched

    def query(
        self, session: str, coord: Sequence[float], now: Optional[float] = None
    ) -> QueryTicket:
        """Synchronous single query: submit, then force the answer out."""
        ticket = self.submit(session, coord, now)
        if not ticket.done:
            self.flush(session)
        return ticket

    def query_many(
        self, session: str, coords: np.ndarray, now: Optional[float] = None
    ) -> List[QueryTicket]:
        """Synchronous bulk path: full batches dispatch as they fill,
        the ragged remainder is force-flushed.

        The whole array is validated up front: one bad row rejects the
        call with :class:`InvalidQuery` before anything is enqueued, so
        a malformed bulk request never half-submits.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2:
            raise InvalidQuery(
                f"query_many expects an (n, d) array, got shape {coords.shape}",
                session=session,
            )
        sess = self.registry.get(session)
        if coords.shape[1] != sess.dim:
            raise InvalidQuery(
                f"query_many for {session!r} must have {sess.dim} coords "
                f"per row, got {coords.shape[1]}",
                session=session,
            )
        bad = ~np.all(np.isfinite(coords), axis=1)
        if bad.any():
            raise InvalidQuery(
                f"query_many for {session!r}: {int(bad.sum())} rows with "
                f"non-finite coords (first at index {int(np.argmax(bad))})",
                session=session,
            )
        tickets = [self.submit(session, c, now) for c in coords]
        self.flush(session)
        return tickets

    @property
    def queue_depth(self) -> int:
        return sum(b.queue_depth for b in self._batchers.values())

    # -- dispatch ----------------------------------------------------------

    def _batch_order(self, sess: TreeSession, coords: np.ndarray) -> np.ndarray:
        mode = self.config.sort
        if mode == "arrival" or len(coords) < 2:
            return np.arange(len(coords))
        if mode == "tree":
            try:
                return kd_bucket_order(sess.tree, coords)
            except KeyError:
                return morton_order(coords)
        return morton_order(coords)

    def _batch_deadline(self, tickets: List[QueryTicket]) -> Optional[float]:
        """Absolute logical time the earliest-submitted query expires."""
        if self.config.deadline_ms is None:
            return None
        return min(t.t_submit for t in tickets) + self.config.deadline_ms

    def _fail_batch(
        self, tickets: List[QueryTicket], batch: Batch, err: ServiceError
    ) -> None:
        """Resolve every ticket of a failed batch with the typed error."""
        for t in tickets:
            t.error = err
            t.batch_id = batch.id
            t.batch_size = batch.size
        self._failed += batch.size
        self.resilience.failed_batches += 1
        self.resilience.count_error(err.code, batch.size)

    def _note_plan_failure(self, session: str, failures: int) -> None:
        """Track consecutive failing batches; invalidate the plan past
        the threshold (a recompile clears poisoned cached state)."""
        if failures == 0:
            self._plan_failures[session] = 0
            return
        n = self._plan_failures.get(session, 0) + 1
        if n >= self.config.plan_failure_threshold:
            if self.telemetry.log is not None:
                self.telemetry.log.warn(
                    "plan.failure_threshold", self.now_ms,
                    session=session, consecutive_failures=n,
                )
            self.registry.refresh_plan(session)
            self.resilience.plan_invalidations += 1
            self._plan_failures[session] = 0
        else:
            self._plan_failures[session] = n

    def _dispatch(
        self, session: str, tickets: List[QueryTicket], t_flush: float, reason: str
    ) -> Batch:
        sess = self.registry.get(session)
        batch = Batch(
            id=self._next_batch,
            session=session,
            tickets=tickets,
            t_flush=t_flush,
            reason=reason,
        )
        self._next_batch += 1
        tel = self.telemetry
        tracer = tel.tracer if tel.enabled else None
        bspan = None
        if tracer is not None:
            bspan = tracer.begin(
                f"batch:{session}", "batch", f"b{batch.id}", t_flush,
                session=session, size=batch.size, reason=reason,
            )
        coords = batch.coords
        # Spatial reorder: make warp membership match tree locality
        # *before* similarity profiling and launch (Section 4.4).
        order = self._batch_order(sess, coords)
        coords = coords[order]
        if bspan is not None:
            bspan.event("order", t_flush, sort=self.config.sort)
        decision = self.dispatcher.decide(sess, coords)
        if bspan is not None:
            sim = decision.similarity
            bspan.event(
                "dispatch", t_flush,
                backend=decision.backend, reason=decision.reason,
                mean_jaccard=(sim.mean_jaccard if sim is not None else None),
            )
        try:
            r = self.dispatcher.execute_resilient(
                sess,
                coords,
                decision,
                batch_id=batch.id,
                now=t_flush,
                deadline=self._batch_deadline(tickets),
            )
        except ServiceError as err:
            self._fail_batch(tickets, batch, err)
            self._record_resilience(session, attempts=0, failures=None, r=None)
            if tel.log is not None:
                tel.log.error(
                    "batch.failed", t_flush,
                    trace_id=bspan.trace_id if bspan is not None else None,
                    span_id=f"b{batch.id}" if bspan is not None else None,
                    session=session, batch=batch.id, size=batch.size,
                    error=err.code,
                )
            slo = self._slo.get(session)
            if slo is not None:
                for _ in tickets:
                    slo.record(t_flush, None, False)
                self._evaluate_slo(session, slo, t_flush)
            if tel.enabled:
                for ticket in tickets:
                    self._tel_query_end(
                        ticket, t_flush, err.code, batch=batch.id
                    )
                if bspan is not None:
                    tel.finish_span(session, bspan, t_flush, err.code)
                if self._m is not None:
                    self._m["batches"].inc(session=session, reason=reason)
                    self._m["results"].inc(batch.size, outcome=err.code)
                    for name in getattr(err, "injected", ()):
                        self._m["faults"].inc(fault=name)
                if tel.flight is not None:
                    for name in getattr(err, "injected", ()):
                        tel.flight.dump(
                            session, f"chaos:{name}", t_flush,
                            detail={"batch": batch.id, "outcome": err.code},
                        )
                    tel.flight.dump(
                        session, err.code, t_flush, detail=err.to_dict()
                    )
            return batch
        outcome = r.outcome
        t_launch = t_flush + r.delay_ms
        t_done = t_launch + outcome.exec_ms
        if tracer is not None:
            largs = {
                "backend": r.backend, "batch": batch.id,
                "size": batch.size, "attempts": r.attempts,
            }
            if r.backend != "cpu":
                largs["engine"] = self.config.engine
            lspan = tracer.begin(
                f"launch:{r.backend}", "launch", f"b{batch.id}:launch",
                t_launch, parent_id=f"b{batch.id}", **largs,
            )
            if outcome.trace is not None and len(outcome.trace) > 0:
                # Interpolate decimated StepTrace samples across the
                # modeled execution window.
                n_steps = len(outcome.trace)
                for ev in outcome.trace.sample_events(tel.config.step_events):
                    frac = ev["step"] / max(1, n_steps - 1)
                    lspan.event(
                        "step", t_launch + frac * outcome.exec_ms, **ev
                    )
            tel.finish_span(session, lspan, t_done)
        # Resolve tickets: row i of the executed batch is the order[i]-th
        # submitted ticket.
        deadline_ms = self.config.deadline_ms
        memo = self._memos.get(session)
        waits: List[float] = []
        n_ok = 0
        for row, tidx in enumerate(order):
            ticket = tickets[int(tidx)]
            ticket.backend = r.backend
            ticket.batch_id = batch.id
            ticket.batch_size = batch.size
            ticket.exec_ms = outcome.exec_ms
            ticket.retry_ms = r.delay_ms
            ticket.attempts = r.attempts
            ticket.degraded = r.degraded
            if deadline_ms is not None and (
                ticket.wait_ms + r.delay_ms + outcome.exec_ms > deadline_ms
            ):
                ticket.error = DeadlineExceeded(
                    f"latency {ticket.wait_ms + r.delay_ms + outcome.exec_ms:.4f} ms "
                    f"exceeded deadline {deadline_ms} ms",
                    session=session,
                    batch_id=batch.id,
                    backend=r.backend,
                )
                self._failed += 1
                self.resilience.deadline_misses += 1
                self.resilience.count_error(DeadlineExceeded.code)
            else:
                ticket.result = sess.extract(outcome.out, row)
                n_ok += 1
                if memo is not None:
                    memo.store(sess.plan_epoch, ticket.coords, ticket.result)
            waits.append(ticket.wait_ms)
            self._all_latencies.append(ticket.latency_ms)
            if tel.enabled:
                self._tel_query_end(
                    ticket,
                    ticket.t_submit + ticket.latency_ms,
                    "ok" if ticket.ok else DeadlineExceeded.code,
                    backend=r.backend,
                    batch=batch.id,
                )
        self._completed += n_ok
        slo = self._slo.get(session)
        if slo is not None:
            # Every ticket resolved at t_done: wait + backoff + execution
            # all land at the same modeled instant for a batch.
            for ticket in tickets:
                slo.record(t_done, ticket.latency_ms, ticket.ok)
            self._evaluate_slo(session, slo, t_done)
        self._backend_stats[r.backend].record_batch(
            n_queries=batch.size,
            exec_ms=outcome.exec_ms,
            waits_ms=waits,
            occupancy=batch.size / self.config.max_batch,
            avg_nodes=outcome.avg_nodes,
            work_expansion=outcome.work_expansion,
        )
        self._record_resilience(
            session, attempts=r.attempts, failures=r.failures, r=r
        )
        if tel.enabled:
            if bspan is not None:
                tel.finish_span(
                    session, bspan, t_done, "ok",
                    backend=r.backend, attempts=r.attempts,
                    degraded=r.degraded,
                )
            if self._m is not None:
                m = self._m
                m["batches"].inc(session=session, reason=reason)
                m["batch_size"].observe(batch.size, backend=r.backend)
                # Exemplars tie the latency buckets back to the trace
                # that landed in them (the batch span's trace id, which
                # under a fleet context is the router ticket's trace).
                exemplar = bspan.trace_id if bspan is not None else None
                m["exec_ms"].observe(
                    outcome.exec_ms, exemplar=exemplar, backend=r.backend
                )
                for w in waits:
                    m["wait_ms"].observe(w, exemplar=exemplar)
                m["results"].inc(n_ok, outcome="ok")
                if n_ok < batch.size:
                    m["results"].inc(
                        batch.size - n_ok, outcome=DeadlineExceeded.code
                    )
                if r.attempts > 1:
                    m["retries"].inc(r.attempts - 1, backend=r.backend)
                if r.degraded:
                    m["degraded"].inc()
                for name in r.injected:
                    m["faults"].inc(fault=name)
                if outcome.kernel_stats:
                    for key, v in outcome.kernel_stats.items():
                        m["kernel"].inc(v, backend=r.backend, counter=key)
                m["queue_depth"].set(
                    self._batchers[session].queue_depth, session=session
                )
            if tel.flight is not None and r.injected:
                # Every injected fault ships its causal timeline, even
                # when retries/failover recovered the batch.
                for name in r.injected:
                    tel.flight.dump(
                        session, f"chaos:{name}", t_done,
                        detail={
                            "batch": batch.id, "backend": r.backend,
                            "attempts": r.attempts, "recovered": True,
                        },
                    )
        return batch

    def _record_resilience(self, session, attempts, failures, r) -> None:
        """Fold one batch's resilience facts into the counters."""
        res = self.resilience
        if r is None:
            # Total batch failure: the chain was exhausted.
            self._note_plan_failure(session, failures=1)
            return
        res.retries += max(0, attempts - 1)
        if r.degraded:
            res.degraded_batches += 1
        for backend, err in r.failures:
            res.count_backend_failure(backend)
        for name in r.injected:
            res.count_fault(name)
        self._note_plan_failure(session, failures=len(r.failures))

    # -- service-level objectives ------------------------------------------

    def _evaluate_slo(self, session: str, tracker: SLOTracker, now: float) -> None:
        """Re-evaluate burn rates after a resolution wave.

        Exports fast/slow burn rates and alert states as gauges, and on
        each fast-burn *activation* (off-to-on, latched so one incident
        fires once) bumps the counter and freezes a flight-recorder
        snapshot carrying the full burn status.
        """
        statuses = tracker.evaluate(now)
        m = self._m
        if m is not None:
            burn, alert = m["slo_burn"], m["slo_alert"]
            for st in statuses:
                burn.set(
                    st.burn_fast,
                    session=session, objective=st.objective, window="fast",
                )
                burn.set(
                    st.burn_slow,
                    session=session, objective=st.objective, window="slow",
                )
                alert.set(
                    1.0 if st.fast_alert else 0.0,
                    session=session, objective=st.objective, severity="fast",
                )
                alert.set(
                    1.0 if st.slow_alert else 0.0,
                    session=session, objective=st.objective, severity="slow",
                )
        fired = tracker.newly_fired(statuses)
        if not fired:
            return
        flight = self.telemetry.flight
        for st in fired:
            if m is not None:
                m["slo_fired"].inc(session=session, objective=st.objective)
            if flight is not None:
                flight.dump(
                    session, f"slo:fast-burn:{st.objective}", now,
                    detail=st.to_dict(),
                )

    def health(self) -> dict:
        """Readiness assessment (the ``/healthz`` payload).

        Degraded when any backend breaker is open, any session queue
        sits at its cap, or any SLO objective has a fast burn firing.
        Read-only: evaluates trackers without touching the alert latch,
        so probing health never swallows a flight-recorder freeze.
        """
        breakers = {
            b: snap.state
            for b, snap in self.dispatcher.breaker_snapshots().items()
        }
        open_breakers = sorted(b for b, s in breakers.items() if s == "open")
        cap = self.config.max_queue_depth
        saturated = sorted(
            name
            for name, b in self._batchers.items()
            if cap is not None and b.queue_depth >= cap
        )
        burning = []
        for name in sorted(self._slo):
            for st in self._slo[name].evaluate(self.now_ms):
                if st.fast_alert:
                    burning.append(
                        {
                            "session": name,
                            "objective": st.objective,
                            "burn_fast": st.burn_fast,
                            "burn_slow": st.burn_slow,
                        }
                    )
        ok = not open_breakers and not saturated and not burning
        return {
            "status": "ok" if ok else "degraded",
            "ok": ok,
            "now_ms": self.now_ms,
            "sessions": self.registry.names(),
            "queue_depth": self.queue_depth,
            "checks": {
                "breakers": {"states": breakers, "open": open_breakers},
                "queue": {
                    "depth": self.queue_depth,
                    "cap": cap,
                    "saturated_sessions": saturated,
                },
                "slo": {
                    "tracked_sessions": sorted(self._slo),
                    "fast_burns": burning,
                },
            },
        }

    # -- observability ----------------------------------------------------

    def stats(self) -> ServiceStats:
        from repro.service.stats import percentile

        counters = [b.counters for b in self._batchers.values()]
        backends = {b: s.snapshot() for b, s in self._backend_stats.items()}
        return ServiceStats(
            sort=self.config.sort,
            sessions=len(self.registry),
            queries_submitted=self._submitted,
            queries_completed=self._completed,
            queries_failed=self._failed,
            queue_depth=self.queue_depth,
            batches=self._next_batch,
            flush_full=sum(c.flush_full for c in counters),
            flush_timeout=sum(c.flush_timeout for c in counters),
            flush_forced=sum(c.flush_forced for c in counters),
            plan_cache=self.registry.plans.stats(),
            backends=backends,
            resilience=self.resilience.snapshot(
                self.dispatcher.breaker_snapshots()
            ),
            total_exec_ms=sum(s.total_exec_ms for s in backends.values()),
            p50_latency_ms=percentile(self._all_latencies, 50),
            p95_latency_ms=percentile(self._all_latencies, 95),
            memo=self._memo_snapshot(),
            telemetry=self.telemetry.snapshot(),
            slo={
                name: tracker.snapshot(self.now_ms)
                for name, tracker in sorted(self._slo.items())
            },
        )

    def _memo_snapshot(self) -> MemoSnapshot:
        merged = MemoSnapshot()
        for memo in self._memos.values():
            merged = merged.merged(memo.snapshot())
        return merged
