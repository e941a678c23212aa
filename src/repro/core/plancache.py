"""Keyed cache of compiled traversal plans.

Compiling a :class:`~repro.core.ir.TraversalSpec` (call-set analysis,
pseudo-tail normalization, autoropes, lockstep derivation) is pure in
the spec, so the resulting :class:`~repro.core.pipeline.CompiledTraversal`
can be compiled once per (application, tree) pair and reused for every
launch over that tree.  Both consumers share this cache:

* the offline experiment harness (:mod:`repro.harness.runner`), which
  revisits the same (benchmark, input, sorted?) triple across tables
  and figures, and
* the online query service (:mod:`repro.service`), whose sessions
  serve many small batches against one long-lived tree and must not
  pay the compile on the request path.

Since the executor-level plan compilation pass (:mod:`repro.core
.compile`), a cached plan also carries the flattened op programs for
both kernel variants (memoized on the kernel instances), so a cache hit
skips the per-step AST walk *and* the one-time program build.

Hit/miss counters are part of the public surface — the service exposes
them in its stats snapshot and tests assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.core.ir import TraversalSpec
from repro.core.pipeline import CompiledTraversal, TransformPipeline


@dataclass(frozen=True)
class PlanCacheStats:
    """Immutable snapshot of a cache's counters."""

    hits: int
    misses: int
    size: int
    invalidations: int = 0
    #: generated-function (engine="codegen") cache counters; emit time
    #: is cumulative wall-clock ms spent emitting + exec-compiling.
    codegen_hits: int = 0
    codegen_misses: int = 0
    codegen_size: int = 0
    codegen_emit_ms: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Compile-once cache of :class:`CompiledTraversal` plans.

    Keys are caller-chosen hashables identifying the (app, tree) pair;
    the cache never inspects them.  The same spec object registered
    under two keys compiles twice — keys, not specs, define identity,
    because two trees built over different datasets need separate
    plans even when their traversal bodies coincide.
    """

    def __init__(self, pipeline: Optional[TransformPipeline] = None) -> None:
        self.pipeline = pipeline or TransformPipeline()
        self._plans: Dict[Hashable, CompiledTraversal] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._failures: Dict[Hashable, int] = {}
        #: generated step loops (engine="codegen"), bucketed by plan key
        #: so invalidation drops a plan's functions with its plan:
        #: {plan key: {(codegen key, facts digest): fn}}.
        self._codegen: Dict[Hashable, Dict[Hashable, object]] = {}
        self.codegen_hits = 0
        self.codegen_misses = 0
        self.codegen_emit_ms = 0.0
        #: optional observer called with "hit" / "miss" / "invalidate"
        #: on each cache event (the telemetry layer hangs a counter
        #: here); None — the default — costs one attribute check.
        self.on_event = None

    def get_or_compile(self, key: Hashable, spec: TraversalSpec) -> CompiledTraversal:
        """Return the cached plan for ``key``, compiling on first use."""
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            if self.on_event is not None:
                self.on_event("hit")
            return plan
        self.misses += 1
        if self.on_event is not None:
            self.on_event("miss")
        plan = self.pipeline.compile(spec)
        self._plans[key] = plan
        return plan

    def codegen_get_or_emit(self, key, facts_digest, kernel, facts):
        """Resolve (emitting at most once) a generated step loop.

        The ``engine="codegen"`` analogue of :meth:`get_or_compile` for
        service-managed launches: ``key`` identifies the plan
        generation the function belongs to — the dispatcher passes
        ``(plan_key, plan_epoch)`` — and ``facts_digest`` specializes
        within it (kernel kind, device digest, plan toggles).  Entries
        are bucketed under the plan key, so :meth:`invalidate` and
        :meth:`clear` drop a plan's generated functions with the plan,
        and a ``refresh_plan`` epoch bump changes ``key``, making every
        stale function unreachable even before the invalidate lands.
        """
        from repro.core.passes import compile_step_loop

        base = key[0] if isinstance(key, tuple) and key else key
        bucket = self._codegen.setdefault(base, {})
        sub = (key, facts_digest)
        fn = bucket.get(sub)
        if fn is not None:
            self.codegen_hits += 1
            if self.on_event is not None:
                self.on_event("codegen_hit")
            return fn
        self.codegen_misses += 1
        if self.on_event is not None:
            self.on_event("codegen_miss")
        fn = compile_step_loop(kernel, facts)
        self.codegen_emit_ms += fn.__emit_ms__
        bucket[sub] = fn
        return fn

    def get(self, key: Hashable) -> Optional[CompiledTraversal]:
        """Peek without compiling (no counter changes)."""
        return self._plans.get(key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._plans

    def __len__(self) -> int:
        return len(self._plans)

    def invalidate(self, key: Hashable) -> bool:
        """Drop the cached plan for ``key``; True if one was cached.

        The next :meth:`get_or_compile` for the key recompiles from the
        spec (a miss).  The service's resilience layer invalidates a
        plan after repeated execution failures, on the theory that a
        freshly compiled plan clears any poisoned cached state.
        """
        cached = key in self._plans
        self.release(key)
        if not cached:
            return False
        self.invalidations += 1
        if self.on_event is not None:
            self.on_event("invalidate")
        return True

    def release(self, key: Hashable) -> None:
        """Forget ``key``'s plan, failure count and generated functions
        because nothing uses them any more (the last session over the
        key unregistered).  Not an invalidation: no counter moves and
        ``on_event`` is not called."""
        self._plans.pop(key, None)
        self._failures.pop(key, None)
        self._codegen.pop(key, None)

    def record_failure(self, key: Hashable, threshold: int = 3) -> bool:
        """Count one execution failure against ``key``'s plan.

        After ``threshold`` *consecutive* failures the plan is
        invalidated and True is returned; :meth:`record_success` (or a
        hit recompile) resets the count.
        """
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        n = self._failures.get(key, 0) + 1
        if n >= threshold:
            self.invalidate(key)
            return True
        self._failures[key] = n
        return False

    def record_success(self, key: Hashable) -> None:
        """Reset ``key``'s consecutive-failure count."""
        self._failures.pop(key, None)

    def failure_count(self, key: Hashable) -> int:
        return self._failures.get(key, 0)

    def clear(self) -> None:
        self._plans.clear()
        self._failures.clear()
        self._codegen.clear()

    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(
            hits=self.hits,
            misses=self.misses,
            size=len(self._plans),
            invalidations=self.invalidations,
            codegen_hits=self.codegen_hits,
            codegen_misses=self.codegen_misses,
            codegen_size=sum(len(b) for b in self._codegen.values()),
            codegen_emit_ms=self.codegen_emit_ms,
        )
