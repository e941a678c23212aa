"""Differential and cache tests for the codegen engine.

``TraversalLaunch(engine="codegen")`` (the default) emits standalone
NumPy source for the whole per-step body through the transformation-
pass pipeline (:mod:`repro.core.passes`), ``exec``-compiles it once,
and memoizes the function.  Speed without equivalence is a bug:
everything the simulator measures must be *bit-identical* to the
interp reference — stats, per-point/per-warp lengths, step traces,
visit logs, app outputs, and even the partial stats left behind by a
chaos abort.

Also covers the generated-function caches (the per-kernel memo and the
plan cache's service-owned tier with eviction + plan-epoch
invalidation), emission metadata, the pass registry, and the frontier
compaction regression tests for the recursive baselines.
"""

import numpy as np
import pytest

import repro.core.passes as passes
from repro.core.passes import (
    PASS_REGISTRY,
    EmitPass,
    Property,
    emit_step_loop_source,
    facts_for,
    step_loop_for,
)
from repro.apps.base import QuerySet
from repro.core.ir import (
    ChildRef,
    CondRef,
    EvalContext,
    If,
    Recurse,
    Return,
    Seq,
    TraversalSpec,
    Update,
    UpdateRef,
)
from repro.core.plancache import PlanCache
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    RecursiveExecutor,
    StaticRopesExecutor,
    TraversalLaunch,
)
from repro.gpusim.faults import BatchFaultPlan
from repro.gpusim.stack import CorruptedRopeStack
from repro.points.datasets import dataset_by_name
from repro.service import ServiceConfig, TraversalService

APP_NAMES = ("pc", "knn", "nn", "vp", "bh")


def _launch(app, kernel, device, engine, **kw):
    return TraversalLaunch(
        kernel=kernel,
        tree=app.tree,
        ctx=app.make_ctx(),
        n_points=app.n_points,
        device=device,
        record_visits=True,
        engine=engine,
        **kw,
    )


def _run_pair(app, kernel, exec_factory, device, **kw):
    """Run interp and codegen engines on fresh launches; return both."""
    Li = _launch(app, kernel, device, "interp", **kw)
    ri = exec_factory(Li).run()
    Lg = _launch(app, kernel, device, "codegen", **kw)
    rg = exec_factory(Lg).run()
    return (Li, ri), (Lg, rg)


def _assert_identical(name, pair_i, pair_g):
    Li, ri = pair_i
    Lg, rg = pair_g
    di, dg = ri.stats.as_dict(), rg.stats.as_dict()
    diff = {k: (di[k], dg[k]) for k in di if di[k] != dg[k]}
    assert not diff, f"{name}: codegen engine changed simulated stats: {diff}"
    np.testing.assert_array_equal(
        ri.nodes_per_point, rg.nodes_per_point, err_msg=name
    )
    np.testing.assert_array_equal(
        ri.nodes_per_warp, rg.nodes_per_warp, err_msg=name
    )
    np.testing.assert_array_equal(
        ri.longest_member_per_warp, rg.longest_member_per_warp, err_msg=name
    )
    assert ri.timing.time_ms == rg.timing.time_ms, name
    assert len(ri.visits) == len(rg.visits), name
    for (pi, ni), (pg, ng) in zip(ri.visits, rg.visits):
        np.testing.assert_array_equal(pi, pg, err_msg=name)
        np.testing.assert_array_equal(ni, ng, err_msg=name)
    for key in Li.ctx.out:
        np.testing.assert_array_equal(
            Li.ctx.out[key], Lg.ctx.out[key], err_msg=f"{name}:{key}"
        )


class TestCodegenEquivalence:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_lockstep_identical(self, name, all_apps, compiled_apps, device4):
        app = all_apps[name]
        pi, pg = _run_pair(
            app, compiled_apps[name].lockstep, LockstepExecutor, device4
        )
        _assert_identical(f"codegen/lockstep/{name}", pi, pg)

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_autoropes_identical(self, name, all_apps, compiled_apps, device4):
        app = all_apps[name]
        pi, pg = _run_pair(
            app, compiled_apps[name].autoropes, AutoropesExecutor, device4
        )
        _assert_identical(f"codegen/autoropes/{name}", pi, pg)

    @pytest.mark.parametrize("name", ("pc", "knn"))
    def test_lockstep_warp32(self, name, all_apps, compiled_apps, device32):
        app = all_apps[name]
        pi, pg = _run_pair(
            app, compiled_apps[name].lockstep, LockstepExecutor, device32
        )
        _assert_identical(f"codegen/lockstep32/{name}", pi, pg)

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_autoropes_warp32(self, name, all_apps, compiled_apps, device32):
        """32-lane warps put the interleaved stack on its structural
        segment path in both engines."""
        app = all_apps[name]
        pi, pg = _run_pair(
            app, compiled_apps[name].autoropes, AutoropesExecutor, device32
        )
        _assert_identical(f"codegen/autoropes32/{name}", pi, pg)

    @pytest.mark.parametrize("warp", (4, 32))
    def test_autoropes_site_overrides_identical(self, warp, pc_app,
                                                pipeline, device4, device32):
        """An in-order body normalizes to pushes with per-site argument
        overrides, which the autoropes loop emits call by call."""
        tree = pc_app.tree

        def truncate(ctx, node, pt, args):
            return (node * 7 + pt * 3) % 5 == 0

        def record(ctx, node, pt, args):
            np.add.at(ctx.out["order"], pt, node + 1)
            ctx.out["order"][pt] *= 3

        spec = TraversalSpec(
            name="inorder",
            body=Seq(
                If(CondRef("truncate"), Return()),
                Recurse(ChildRef("left")),
                Update(UpdateRef("rec")),
                Recurse(ChildRef("right")),
            ),
            conditions={"truncate": truncate},
            updates={"rec": record},
        )
        kernel = pipeline.compile(spec).autoropes
        n_pts = 48
        device = device4 if warp == 4 else device32
        runs = []
        for engine in ("interp", "codegen"):
            ctx = EvalContext(
                tree=tree,
                points=QuerySet(
                    coords=np.zeros((n_pts, 1)), orig_ids=np.arange(n_pts)
                ),
                out={"order": np.zeros(n_pts, dtype=np.int64)},
            )
            L = TraversalLaunch(
                kernel=kernel, tree=tree, ctx=ctx, n_points=n_pts,
                device=device, record_visits=True, engine=engine,
            )
            runs.append((L, AutoropesExecutor(L).run()))
        unit = passes.build_emit_unit(kernel, passes.facts_for(
            AutoropesExecutor(_launch(pc_app, kernel, device, "codegen")),
            "autoropes"))
        pushes = [n for n in passes._walk(unit.nodes) if n.kind == "push"]
        assert any(c.overrides for n in pushes for c in n.op.calls)
        _assert_identical(f"codegen/inorder{warp}", *runs)

    @pytest.mark.parametrize("name", ("pc", "bh"))
    def test_compaction_invisible(self, name, all_apps, compiled_apps,
                                  device4):
        """Codegen emits the compaction path only when the plan enables
        it; either way the results must not move."""
        app = all_apps[name]
        kernel = compiled_apps[name].lockstep
        Lo = _launch(app, kernel, device4, "codegen", compact_threshold=0.0)
        ro = LockstepExecutor(Lo).run()
        Lc = _launch(app, kernel, device4, "codegen", compact_threshold=0.9)
        rc = LockstepExecutor(Lc).run()
        _assert_identical(f"codegen/compact/{name}", (Lo, ro), (Lc, rc))

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_traces_identical(self, name, all_apps, compiled_apps, device4):
        app = all_apps[name]
        pi, pg = _run_pair(
            app, compiled_apps[name].lockstep, LockstepExecutor, device4,
            trace=True,
        )
        (_, ri), (_, rg) = pi, pg
        ai, ag = ri.trace.as_arrays(), rg.trace.as_arrays()
        assert len(ri.trace) == len(rg.trace), name
        for key in ai:
            np.testing.assert_array_equal(
                ai[key], ag[key], err_msg=f"codegen/trace/{name}:{key}"
            )

    def test_validate_path_identical(self, pc_app, compiled_apps, device4):
        pi, pg = _run_pair(
            pc_app, compiled_apps["pc"].autoropes, AutoropesExecutor, device4,
            validate=True,
        )
        _assert_identical("codegen/validate/pc", pi, pg)

    @pytest.mark.parametrize("kind", ("autoropes", "lockstep"))
    def test_chaos_abort_identical(self, kind, pc_app, compiled_apps,
                                   device4):
        """A corrupted stack aborts at the same step with the same
        partial stats on both engines — the generated validation guard
        must not outrun (or lag) the interpreter's."""
        kernel = getattr(compiled_apps["pc"], kind)
        cls = LockstepExecutor if kind == "lockstep" else AutoropesExecutor
        partials = {}
        for engine in ("interp", "codegen"):
            L = _launch(
                pc_app, kernel, device4, engine,
                fault_plan=BatchFaultPlan(corrupt_stack_at=2),
            )
            with pytest.raises(CorruptedRopeStack):
                cls(L).run()
            partials[engine] = L.stats.as_dict()
        assert partials["interp"] == partials["codegen"]

    def test_static_ropes_falls_back(self, pc_app, compiled_apps, device4,
                                     monkeypatch):
        """Static ropes has no generated loop; engine="codegen" runs its
        own interp loop, emitting nothing and drifting nowhere."""
        dumped = []
        monkeypatch.setattr(
            passes, "dump_sink", lambda name, src: dumped.append(name))
        kernel = compiled_apps["pc"].autoropes
        kernel.__dict__.pop("_codegen_fns", None)
        pi, pg = _run_pair(pc_app, kernel, StaticRopesExecutor, device4)
        _assert_identical("codegen/ropes/pc", pi, pg)
        assert dumped == [] and "_codegen_fns" not in kernel.__dict__

    def test_recursive_masked_identical(self, pc_app, compiled_apps, device4):
        pi, pg = _run_pair(
            pc_app, compiled_apps["pc"].lockstep,
            lambda L: RecursiveExecutor(L, masking=True), device4,
        )
        _assert_identical("codegen/rec-masked/pc", pi, pg)

    def test_recursive_unmasked_identical(self, pc_app, compiled_apps,
                                          device4):
        pi, pg = _run_pair(
            pc_app, compiled_apps["pc"].autoropes,
            lambda L: RecursiveExecutor(L, masking=False), device4,
        )
        _assert_identical("codegen/rec-unmasked/pc", pi, pg)


class TestRecursiveCompaction:
    """Frontier compaction for the recursive baselines (the Table 1
    affordability item): the recursive executors inherit the lockstep
    frontier machinery, and their frame accounting addresses frames by
    *original* warp id, so gathering rows must not move any number."""

    @pytest.mark.parametrize("masking", (True, False))
    def test_compaction_invisible(self, masking, pc_app, compiled_apps,
                                  device4):
        kernel = (compiled_apps["pc"].lockstep if masking
                  else compiled_apps["pc"].autoropes)
        Lo = _launch(pc_app, kernel, device4, "codegen",
                     compact_threshold=0.0)
        ro = RecursiveExecutor(Lo, masking=masking).run()
        Lc = _launch(pc_app, kernel, device4, "codegen",
                     compact_threshold=0.9)
        rc = RecursiveExecutor(Lc, masking=masking).run()
        _assert_identical(f"rec-compact/masking={masking}",
                          (Lo, ro), (Lc, rc))
        assert ro.stats.as_dict()["recursive_calls"] > 0

    def test_compaction_actually_fires(self, pc_app, compiled_apps, device4,
                                       monkeypatch):
        L = _launch(pc_app, compiled_apps["pc"].lockstep, device4,
                    "codegen", compact_threshold=0.9)
        ex = RecursiveExecutor(L, masking=True)
        compactions = []
        real = type(ex)._compact_rows

        def spy(self, sel):
            compactions.append(int(np.asarray(sel).size))
            return real(self, sel)

        monkeypatch.setattr(type(ex), "_compact_rows", spy)
        ex.run()
        assert compactions, "recursive pc traversal never compacted"


class TestCodegenEmission:
    def test_memoized_on_kernel(self, pc_app, compiled_apps, device4):
        kernel = compiled_apps["pc"].lockstep
        ex1 = LockstepExecutor(
            _launch(pc_app, kernel, device4, "codegen"))
        ex2 = LockstepExecutor(
            _launch(pc_app, kernel, device4, "codegen"))
        fn1 = step_loop_for(ex1, "lockstep")
        fn2 = step_loop_for(ex2, "lockstep")
        assert fn1 is fn2, "same facts must reuse the generated function"

    def test_distinct_facts_distinct_functions(self, pc_app, compiled_apps,
                                               device4):
        kernel = compiled_apps["pc"].lockstep
        plain = LockstepExecutor(_launch(pc_app, kernel, device4, "codegen"))
        traced = LockstepExecutor(
            _launch(pc_app, kernel, device4, "codegen", trace=True))
        f_plain = facts_for(plain, "lockstep")
        f_traced = facts_for(traced, "lockstep")
        assert f_plain.digest() != f_traced.digest()
        assert step_loop_for(plain, "lockstep") is not step_loop_for(
            traced, "lockstep")

    def test_emission_metadata(self, pc_app, compiled_apps, device4):
        ex = LockstepExecutor(
            _launch(pc_app, compiled_apps["pc"].lockstep, device4, "codegen"))
        fn = step_loop_for(ex, "lockstep")
        assert "def step_loop(" in fn.__source__
        assert fn.__facts__ == facts_for(ex, "lockstep")
        assert "EmitLockstepLoop" in fn.__passes__
        assert fn.__emit_ms__ >= 0.0

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_autoropes_loop_inlines_its_hot_path(self, name, all_apps,
                                                 compiled_apps, device32):
        """On the paper's device with interleaved stacks, the emitted
        autoropes loop calls no stack, issue or child-lookup helper."""
        ex = AutoropesExecutor(
            _launch(all_apps[name], compiled_apps[name].autoropes, device32,
                    "codegen"))
        assert ex.stack.segment_shift is not None
        src = emit_step_loop_source(ex.kernel, facts_for(ex, "autoropes"))
        assert "def step_loop(" in src
        for call in ("stack_push(", "stack_pop(", "issue(", "tree.child("):
            assert call not in src, f"{name}: emitted loop calls {call}"

    def test_dump_sink_receives_source(self, pc_app, compiled_apps, device4,
                                       monkeypatch):
        dumped = {}
        monkeypatch.setattr(
            passes, "dump_sink", lambda name, src: dumped.update({name: src}))
        ex = AutoropesExecutor(
            _launch(pc_app, compiled_apps["pc"].autoropes, device4,
                    "codegen"))
        kernel = ex.kernel
        # Force a fresh emit even if an identical-facts function is
        # already memoized from an earlier test.
        kernel.__dict__.pop("_codegen_fns", None)
        step_loop_for(ex, "autoropes")
        assert len(dumped) == 1
        (name, src), = dumped.items()
        assert name.endswith(".autoropes")
        assert "def step_loop(" in src


class TestPassRegistry:
    def test_expected_pipeline_order(self):
        names = list(PASS_REGISTRY)
        # Analysis/lowering passes run before the loop emitters.
        assert names.index("LowerProgram") < names.index("EmitLockstepLoop")
        assert names.index("ResolveBranches") < names.index("EmitLockstepLoop")
        assert names.index("PlanFieldCharges") < names.index(
            "EmitAutoropesLoop")
        for required in (
            "LowerProgram", "ResolveBranches", "PlanFieldCharges",
            "EmitLockstepLoop", "EmitAutoropesLoop",
            "RenderRecursivePseudocode", "RenderIterativePseudocode",
            "EmitScalarPython",
        ):
            assert required in names
            assert issubclass(PASS_REGISTRY[required], EmitPass)

    def test_property_type_checked(self):
        class P(EmitPass):
            fuse = Property("fuse consecutive loads", dtype=bool,
                            default=True)

        p = P()
        assert p.fuse is True
        p.fuse = False
        assert p.fuse is False
        with pytest.raises(TypeError):
            p.fuse = "yes"
        assert "fuse" in P.properties()


class TestPlanCacheCodegen:
    """The service-owned tier: generated functions live and die with
    the plan entry they specialize."""

    def _emit_args(self, pc_app, compiled_apps, device4):
        ex = LockstepExecutor(
            _launch(pc_app, compiled_apps["pc"].lockstep, device4,
                    "codegen"))
        facts = facts_for(ex, "lockstep")
        return ex.kernel, facts

    def test_miss_then_hit(self, pc_app, compiled_apps, device4):
        kernel, facts = self._emit_args(pc_app, compiled_apps, device4)
        cache = PlanCache()
        events = []
        cache.on_event = events.append
        key = ("plan-a", 0)
        fn1 = cache.codegen_get_or_emit(key, facts.digest(), kernel, facts)
        fn2 = cache.codegen_get_or_emit(key, facts.digest(), kernel, facts)
        assert fn1 is fn2
        s = cache.stats()
        assert (s.codegen_misses, s.codegen_hits, s.codegen_size) == (1, 1, 1)
        assert s.codegen_emit_ms > 0.0
        assert events == ["codegen_miss", "codegen_hit"]

    def test_epoch_bump_forces_reemit(self, pc_app, compiled_apps, device4):
        kernel, facts = self._emit_args(pc_app, compiled_apps, device4)
        cache = PlanCache()
        fn0 = cache.codegen_get_or_emit(
            ("plan-a", 0), facts.digest(), kernel, facts)
        fn1 = cache.codegen_get_or_emit(
            ("plan-a", 1), facts.digest(), kernel, facts)
        assert fn0 is not fn1, "an epoch bump must not resolve stale code"
        s = cache.stats()
        assert (s.codegen_misses, s.codegen_hits, s.codegen_size) == (2, 0, 2)

    def test_invalidate_drops_generated_functions(self, pc_app,
                                                  compiled_apps, device4):
        kernel, facts = self._emit_args(pc_app, compiled_apps, device4)
        cache = PlanCache()
        cache.get_or_compile("plan-a", pc_app.spec)
        cache.codegen_get_or_emit(("plan-a", 0), facts.digest(), kernel, facts)
        cache.codegen_get_or_emit(("plan-b", 0), facts.digest(), kernel, facts)
        assert cache.stats().codegen_size == 2
        assert cache.invalidate("plan-a")
        # Only plan-a's bucket goes; plan-b's function survives.
        assert cache.stats().codegen_size == 1
        cache.codegen_get_or_emit(("plan-a", 0), facts.digest(), kernel, facts)
        assert cache.stats().codegen_misses == 3

    def test_clear_empties_codegen_tier(self, pc_app, compiled_apps, device4):
        kernel, facts = self._emit_args(pc_app, compiled_apps, device4)
        cache = PlanCache()
        cache.codegen_get_or_emit(("plan-a", 0), facts.digest(), kernel, facts)
        cache.clear()
        assert cache.stats().codegen_size == 0

    def test_launch_delegates_to_service_cache(self, pc_app, compiled_apps,
                                               device4):
        """With a cache on the launch, the per-kernel memo must not
        shadow it (eviction would then be ineffective)."""
        kernel = compiled_apps["pc"].lockstep
        cache = PlanCache()
        before = dict(kernel.__dict__.get("_codegen_fns", {}))
        L = _launch(pc_app, kernel, device4, "codegen")
        L.codegen_cache = cache
        L.codegen_key = ("plan-a", 0)
        LockstepExecutor(L).run()
        assert cache.stats().codegen_misses == 1
        assert kernel.__dict__.get("_codegen_fns", {}) == before


class TestServiceCodegen:
    """End-to-end through the query service: sessions on the default
    codegen engine answer correctly and their generated functions ride
    the plan cache's eviction and epoch-bump paths."""

    @pytest.fixture(scope="class")
    def geocity(self):
        return dataset_by_name("geocity", 512, seed=3).points

    def _queries(self, data, n, seed=7):
        rng = np.random.default_rng(seed)
        q = data[rng.permutation(len(data))][:n]
        return q + rng.normal(scale=0.01, size=q.shape)

    def test_results_match_oracle_and_cache_cycles(self, geocity):
        # memo_capacity=0: identical repeat queries must reach the GPU
        # path again, or the cache-hit assertions below are vacuous.
        svc = TraversalService(
            ServiceConfig(max_batch=64, backend="lockstep", memo_capacity=0))
        sess = svc.register("pc", app="pc", data=geocity, radius=0.1,
                            leaf_size=4)
        queries = self._queries(geocity, 16)
        tickets = svc.query_many("pc", queries)
        got = np.array([t.result["count"] for t in tickets])
        np.testing.assert_array_equal(got, sess.oracle(queries)["count"])
        s = svc.plan_cache.stats()
        assert s.codegen_misses == 1 and s.codegen_size == 1
        # Second batch with identical facts: pure cache hit.
        svc.query_many("pc", queries)
        assert svc.plan_cache.stats().codegen_misses == 1
        assert svc.plan_cache.stats().codegen_hits >= 1
        # refresh_plan bumps the epoch and invalidates: the generated
        # function is dropped and the next batch re-emits.
        epoch = sess.plan_epoch
        svc.registry.refresh_plan("pc")
        assert sess.plan_epoch == epoch + 1
        assert svc.plan_cache.stats().codegen_size == 0
        tickets = svc.query_many("pc", queries)
        got = np.array([t.result["count"] for t in tickets])
        np.testing.assert_array_equal(got, sess.oracle(queries)["count"])
        s = svc.plan_cache.stats()
        assert s.codegen_misses == 2 and s.codegen_size == 1
