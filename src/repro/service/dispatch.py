"""Adaptive variant dispatch: route each batch to its best backend.

Section 4.4's run-time story, applied per batch instead of per
dataset: after the batcher flushes and the batch is spatially
reordered, the dispatcher samples the similarity of *index-adjacent*
queries (the pairs that will share a warp) with
:func:`repro.core.profiling.sample_similarity` and routes the batch —

* ``lockstep``  — similar neighboring traversals: the warp-level union
  stays close to each member's own traversal, so perfectly coalesced
  lockstep wins (GPU, per-warp mask stacks, shared memory when the
  tree is shallow enough);
* ``nonlockstep`` — dissimilar traversals: work expansion would
  swamp the coalescing benefit, so each thread traverses independently
  (GPU, per-thread interleaved rope stacks);
* ``cpu`` — batches below ``min_gpu_batch``: a kernel launch cannot
  amortize over a handful of points, so the plan's autoropes kernel
  walks them one point at a time through its generated per-point
  traversal (:func:`repro.core.passes.traversal_for`), priced by the
  CPU model from the visit sequences.

Ragged batches launch as-is: the executors pad the trailing warp and
(since the padding fix in :mod:`repro.gpusim.warp`) charge no phantom
divergence for lanes that never held a query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.passes import traversal_for
from repro.core.profiling import TraversalSimilarity, sample_similarity
from repro.cpusim.threads import cpu_time_ms
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    TraversalLaunch,
)
from repro.gpusim.faults import BatchFaultPlan, FaultInjector, InjectedBackendError
from repro.gpusim.kernel import VisitBudgetExceeded
from repro.gpusim.stack import (
    CorruptedRopeStack,
    RopeStackLayout,
    StackOverflowError,
    lockstep_stack_layout,
)
from repro.service.resilience import (
    STATE_OPEN,
    BackendUnavailable,
    BudgetExhausted,
    CircuitBreaker,
    DeadlineExceeded,
    RetryPolicy,
    ServiceError,
)
from repro.gpusim.trace import StepTrace
from repro.service.sessions import TreeSession
from repro.telemetry import NULL_TELEMETRY, Telemetry

BACKENDS = ("lockstep", "nonlockstep", "cpu")

#: graceful-degradation order: who serves a batch when its first-choice
#: backend fails or is breaker-open.  Ends at the modeled CPU, which
#: has no GPU failure modes and is never a chaos target by default.
FALLBACK_CHAIN: Dict[str, Tuple[str, ...]] = {
    "lockstep": ("lockstep", "nonlockstep", "cpu"),
    "nonlockstep": ("nonlockstep", "cpu"),
    "cpu": ("cpu",),
}


@dataclass(frozen=True)
class DispatchDecision:
    """Why a batch went where it went."""

    backend: str
    reason: str
    similarity: Optional[TraversalSimilarity] = None


@dataclass(frozen=True)
class ExecOutcome:
    """One executed batch: results plus the modeled cost facts."""

    out: Dict[str, np.ndarray]
    exec_ms: float
    avg_nodes: float
    work_expansion: Optional[float] = None
    #: per-step divergence/traffic trace (telemetry-enabled GPU runs).
    trace: Optional["StepTrace"] = None
    #: folded kernel counters for the metrics registry (telemetry only).
    kernel_stats: Optional[Dict[str, float]] = None


@dataclass
class ResilientOutcome:
    """One batch's journey through the resilience layer."""

    outcome: ExecOutcome
    #: the backend that finally answered.
    backend: str
    #: the dispatcher's first choice (decision.backend).
    requested: str
    #: total execution tries across all backends.
    attempts: int = 1
    #: modeled backoff delay accumulated before the answer (ms).
    delay_ms: float = 0.0
    #: (backend, ServiceError) per failed try, in order.
    failures: List[Tuple[str, ServiceError]] = field(default_factory=list)
    #: armed chaos fault names seen along the way.
    injected: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return self.backend != self.requested


def classify_fault(exc: Exception, backend: str, batch_id: int) -> ServiceError:
    """Map a raw executor exception onto the service error taxonomy."""
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, VisitBudgetExceeded):
        return BudgetExhausted(str(exc), backend=backend, batch_id=batch_id)
    if isinstance(exc, (InjectedBackendError, CorruptedRopeStack, StackOverflowError)):
        return BackendUnavailable(str(exc), backend=backend, batch_id=batch_id)
    # Anything else is an unexpected backend failure: contained, typed,
    # and routed to the fallback chain instead of wedging the batcher.
    return BackendUnavailable(
        f"{type(exc).__name__}: {exc}", backend=backend, batch_id=batch_id
    )


class AdaptiveDispatcher:
    """Routes batches by run-time similarity profiling and executes them.

    Beyond routing, the dispatcher owns the resilience machinery for
    the execution path: per-backend circuit breakers, retry with
    exponential backoff on the logical clock, deterministic chaos
    injection, and degraded-mode failover along ``FALLBACK_CHAIN``.
    """

    def __init__(
        self, config, telemetry: Telemetry = NULL_TELEMETRY, plans=None
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        #: the shared PlanCache, so codegen launches store generated
        #: functions where invalidation/epoch bumps can reach them.
        self.plans = plans
        #: whether GPU launches record StepTrace for span step events
        #: (hoisted out of the batch path; False keeps launches exactly
        #: as before, so the off path stays byte-identical).
        self._want_trace = bool(
            telemetry.enabled
            and telemetry.tracer is not None
            and telemetry.config.step_events > 0
        )
        #: continuous kernel profiler (None unless telemetry enables it);
        #: hoisted so the unprofiled batch path pays one is-None check.
        self._profiler = telemetry.profiler if telemetry.enabled else None
        #: structured event log (None when telemetry is off); retries,
        #: breaker transitions, and chaos draws record through it.
        self._log = telemetry.log if telemetry.enabled else None
        chaos = getattr(config, "chaos", None)
        self.injector = (
            FaultInjector(chaos) if chaos is not None and chaos.enabled else None
        )
        self.retry = RetryPolicy(
            max_attempts=getattr(config, "retry_max_attempts", 1),
            backoff_base_ms=getattr(config, "retry_backoff_ms", 0.5),
            backoff_multiplier=getattr(config, "retry_backoff_multiplier", 2.0),
            jitter=getattr(config, "retry_jitter", 0.25),
            seed=getattr(config, "seed", 7),
        )
        self.breakers: Dict[str, CircuitBreaker] = {
            b: CircuitBreaker(
                b,
                failure_threshold=getattr(config, "breaker_threshold", 3),
                cooldown_ms=getattr(config, "breaker_cooldown_ms", 20.0),
                half_open_trials=getattr(config, "breaker_half_open_trials", 1),
            )
            for b in BACKENDS
        }
        if telemetry.enabled and telemetry.registry is not None:
            self._m_transitions = telemetry.registry.counter(
                "service_breaker_transitions_total",
                "circuit-breaker state changes",
                labels=("backend", "to"),
            )
            for brk in self.breakers.values():
                brk.on_transition = self._on_breaker_transition
        else:
            self._m_transitions = None

    def _on_breaker_transition(
        self, backend: str, old: str, new: str, now: float
    ) -> None:
        if self._m_transitions is not None:
            self._m_transitions.inc(backend=backend, to=new)
        tracer = self.telemetry.tracer
        if tracer is not None:
            tracer.instant(
                "breaker", "service", now, backend=backend, frm=old, to=new
            )
        if self._log is not None:
            self._log.warn(
                "breaker.transition", now, backend=backend, frm=old, to=new
            )

    # -- routing ---------------------------------------------------------

    def decide(self, session: TreeSession, coords: np.ndarray) -> DispatchDecision:
        cfg = self.config
        if cfg.backend is not None:
            if cfg.backend not in BACKENDS:
                raise ValueError(
                    f"unknown backend {cfg.backend!r}; options: {BACKENDS}"
                )
            return DispatchDecision(cfg.backend, "forced by config")
        n = len(coords)
        if n < max(2, cfg.min_gpu_batch):
            return DispatchDecision(
                "cpu", f"batch of {n} below min_gpu_batch={cfg.min_gpu_batch}"
            )
        if session.plan.lockstep is None:
            return DispatchDecision(
                "nonlockstep",
                session.plan.lockstep_unavailable_reason or "no lockstep variant",
            )
        sim = self.profile(session, coords)
        if sim.recommend_lockstep:
            return DispatchDecision(
                "lockstep", f"mean neighbor Jaccard {sim.mean_jaccard:.2f}", sim
            )
        return DispatchDecision(
            "nonlockstep", f"mean neighbor Jaccard {sim.mean_jaccard:.2f}", sim
        )

    def profile(self, session: TreeSession, coords: np.ndarray) -> TraversalSimilarity:
        """Sample neighboring queries' traversal similarity (Section 4.4).

        Probes walk the plan's generated per-point traversal on a
        scratch context, so profiling never touches the batch's real
        results.
        """
        cfg = self.config
        scratch = session.make_batch_ctx(coords)
        walk = traversal_for(session.plan.autoropes)
        tree = session.tree
        n = len(coords)
        return sample_similarity(
            lambda p: walk(scratch, tree, p, tree.root),
            n_points=n,
            n_samples=min(cfg.similarity_samples, n - 1),
            threshold=cfg.similarity_threshold,
            seed=cfg.seed,
        )

    # -- execution -------------------------------------------------------

    def execute(
        self,
        session: TreeSession,
        coords: np.ndarray,
        backend: str,
        fault_plan: Optional[BatchFaultPlan] = None,
    ) -> ExecOutcome:
        """Run one batch on ``backend`` (a single try, no failover)."""
        if backend == "cpu":
            return self._run_cpu(session, coords)
        if backend == "lockstep":
            layout = lockstep_stack_layout(session.tree, session.app.spec)
            return self._run_gpu(
                session, coords, session.plan.kernel(lockstep=True), layout, True,
                fault_plan,
            )
        if backend == "nonlockstep":
            return self._run_gpu(
                session,
                coords,
                session.plan.kernel(lockstep=False),
                RopeStackLayout.INTERLEAVED_GLOBAL,
                False,
                fault_plan,
            )
        raise ValueError(f"unknown backend {backend!r}; options: {BACKENDS}")

    def execute_resilient(
        self,
        session: TreeSession,
        coords: np.ndarray,
        decision: DispatchDecision,
        batch_id: int,
        now: float,
        deadline: Optional[float] = None,
    ) -> ResilientOutcome:
        """Execute with retries, breakers, and degraded-mode failover.

        Walks ``FALLBACK_CHAIN`` from the decision's backend; on each
        backend, tries up to ``retry.max_attempts`` times with
        exponential backoff (modeled delay on the logical clock).
        Breaker-open backends are skipped; every failure is recorded
        against its backend's breaker.  ``deadline`` is an absolute
        logical time: once backoff would cross it, the batch fails with
        :class:`DeadlineExceeded` rather than retrying into a lost
        cause.  Raises the last :class:`ServiceError` when the whole
        chain is exhausted (the caller resolves tickets with it).
        """
        requested = decision.backend
        failures: List[Tuple[str, ServiceError]] = []
        injected: List[str] = []
        attempts = 0
        delay = 0.0
        backend_idx = {b: i for i, b in enumerate(BACKENDS)}
        for backend in FALLBACK_CHAIN.get(requested, (requested,)):
            breaker = self.breakers[backend]
            if not breaker.allow(now + delay):
                failures.append(
                    (
                        backend,
                        BackendUnavailable(
                            f"circuit breaker open for {backend}",
                            backend=backend,
                            batch_id=batch_id,
                        ),
                    )
                )
                continue
            for attempt in range(self.retry.max_attempts):
                plan = None
                if self.injector is not None:
                    plan = self.injector.plan(batch_id, backend, attempt)
                    injected.extend(plan.events)
                    if plan.events and self._log is not None:
                        self._log.warn(
                            "chaos.fault", now + delay,
                            batch=batch_id, backend=backend,
                            attempt=attempt + 1, faults=list(plan.events),
                        )
                attempts += 1
                try:
                    outcome = self.execute(session, coords, backend, fault_plan=plan)
                except Exception as exc:  # contained: typed + failover
                    err = classify_fault(exc, backend, batch_id)
                    failures.append((backend, err))
                    breaker.record_failure(now + delay)
                    if breaker.state == STATE_OPEN:
                        break  # tripped mid-batch: move down the chain
                    if attempt + 1 >= self.retry.max_attempts:
                        break
                    backoff = self.retry.backoff_ms(
                        attempt, key=(batch_id, backend_idx[backend])
                    )
                    if deadline is not None and now + delay + backoff >= deadline:
                        deadline_err = DeadlineExceeded(
                            f"deadline passed after {attempts} tries "
                            f"({len(failures)} failures); last: {err.message}",
                            backend=backend,
                            batch_id=batch_id,
                        )
                        # Carried so the caller can dump a flight
                        # timeline per injected fault even when the
                        # batch never produced a ResilientOutcome.
                        deadline_err.injected = list(injected)
                        raise deadline_err from err
                    delay += backoff
                    tracer = self.telemetry.tracer
                    if tracer is not None:
                        tracer.instant(
                            "retry", "batch", now + delay,
                            batch=batch_id, backend=backend,
                            attempt=attempt + 1, backoff_ms=backoff,
                            error=err.code,
                        )
                    if self._log is not None:
                        self._log.warn(
                            "retry", now + delay,
                            batch=batch_id, backend=backend,
                            attempt=attempt + 1, backoff_ms=backoff,
                            error=err.code,
                        )
                else:
                    breaker.record_success(now + delay)
                    return ResilientOutcome(
                        outcome=outcome,
                        backend=backend,
                        requested=requested,
                        attempts=attempts,
                        delay_ms=delay,
                        failures=failures,
                        injected=injected,
                    )
        last = failures[-1][1] if failures else None
        exhausted = BackendUnavailable(
            f"all backends exhausted for batch {batch_id} "
            f"({attempts} tries, {len(failures)} failures)"
            + (f"; last: {last.message}" if last else ""),
            backend=requested,
            batch_id=batch_id,
        )
        exhausted.injected = list(injected)
        raise exhausted

    def breaker_snapshots(self):
        return {b: brk.snapshot() for b, brk in self.breakers.items()}

    def _run_gpu(
        self,
        session: TreeSession,
        coords: np.ndarray,
        kernel,
        layout: RopeStackLayout,
        lockstep: bool,
        fault_plan: Optional[BatchFaultPlan] = None,
    ) -> ExecOutcome:
        ctx = session.make_batch_ctx(coords)
        device = self.config.device
        if fault_plan is not None and fault_plan.latency_factor != 1.0:
            device = device.derate(fault_plan.latency_factor)
        # The engine comes from the service config and the compaction
        # trigger from the session override or the config, so the
        # dispatch path never inherits launch defaults.
        engine = self.config.engine
        compact = session.compact_threshold
        if compact is None:
            compact = self.config.compact_threshold
        profiler = self._profiler
        prof = None
        if profiler is not None and profiler.should_sample():
            prof = profiler.begin(session.tree)
        use_codegen = engine == "codegen" and self.plans is not None
        launch = TraversalLaunch(
            kernel=kernel,
            tree=session.tree,
            ctx=ctx,
            n_points=len(coords),
            device=device,
            stack_layout=layout,
            visit_budget=getattr(self.config, "visit_budget", None),
            fault_plan=fault_plan,
            engine=engine,
            compact_threshold=compact,
            trace=self._want_trace,
            op_profile=prof,
            # Generated functions are owned by the shared plan cache,
            # keyed by plan generation: refresh_plan's epoch bump and
            # failure-driven invalidation drop them with the plan.
            codegen_cache=self.plans if use_codegen else None,
            codegen_key=(
                (session.plan_key, session.plan_epoch)
                if use_codegen
                else None
            ),
        )
        executor = LockstepExecutor(launch) if lockstep else AutoropesExecutor(launch)
        result = executor.run()
        if prof is not None:
            # Fold only completed launches: a faulted launch's partial
            # attribution would skew the per-op aggregate.
            profiler.fold(session.name, prof, device=device)
        wexp = (
            float(result.work_expansion_per_warp().mean()) if lockstep else None
        )
        kernel_stats = None
        if self.telemetry.enabled:
            s = result.stats
            kernel_stats = {
                "steps": float(s.steps),
                "node_visits": float(s.node_visits),
                "warp_node_visits": float(s.warp_node_visits),
                "warp_instructions": float(s.warp_instructions),
                "divergent_instructions": float(s.divergent_instructions),
                "global_transactions": float(s.global_transactions),
                "l2_hit_transactions": float(s.l2_hit_transactions),
                "dram_bytes": float(s.dram_bytes),
                "stack_ops": float(s.stack_ops),
            }
        return ExecOutcome(
            out=ctx.out,
            exec_ms=result.time_ms,
            avg_nodes=result.avg_nodes_per_point,
            work_expansion=wexp,
            trace=result.trace,
            kernel_stats=kernel_stats,
        )

    def _run_cpu(self, session: TreeSession, coords: np.ndarray) -> ExecOutcome:
        ctx = session.make_batch_ctx(coords)
        walk = traversal_for(session.plan.autoropes)
        tree = session.tree
        sequences = [
            np.array(walk(ctx, tree, p, tree.root), dtype=np.int64)
            for p in range(len(coords))
        ]
        timing = cpu_time_ms(
            sequences,
            threads=self.config.cpu_threads,
            config=self.config.cpu,
            visit_cost_scale=session.app.visit_cost_scale,
        )
        avg_nodes = float(np.mean([len(s) for s in sequences]))
        return ExecOutcome(out=ctx.out, exec_ms=timing.time_ms, avg_nodes=avg_nodes)
