"""Differential tests of the two engines beyond the default launch.

``TraversalLaunch(engine="codegen")`` (the default) runs the step loop
the pass pipeline emits from the kernel's op program;
``engine="interp"`` walks the kernel AST and is the reference.  The two
must be *bit-identical* on everything the simulator measures: simulated
stats, per-point/per-warp traversal lengths, visit logs, step traces
and application outputs.

``tests/test_codegen_engine.py`` holds the engines to that on the
default interleaved rope-stack layout.  This file covers the other
stack layouts (the generated push/pop accounting is layout-
specialized), autoropes step traces, static ropes (which runs its own
loop on either engine), frontier compaction on the autoropes loop, the
op program codegen consumes (repro.core.compile), and the validate
gating (per-step pop validation defaults on exactly when chaos faults
are armed).
"""

import numpy as np
import pytest

from repro.core.compile import (
    BRANCH_VOTE,
    TAG_COND,
    TAG_CONTINUE,
    TAG_PUSH,
    TAG_UPDATE,
    compile_kernel,
    program_for,
)
from repro.gpusim.faults import BatchFaultPlan
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    StaticRopesExecutor,
    TraversalLaunch,
)
from repro.gpusim.stack import CorruptedRopeStack, RopeStackLayout

APP_NAMES = ("pc", "knn", "nn", "vp", "bh")
#: the layouts test_codegen_engine.py does not already run.
OTHER_LAYOUTS = (RopeStackLayout.CONTIGUOUS_GLOBAL, RopeStackLayout.SHARED)


def _launch(app, kernel, device, engine="codegen", **kw):
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


def _run_pair(app, kernel, exec_cls, device, **kw):
    """Run interp and codegen engines on fresh launches; return both."""
    Li = _launch(app, kernel, device, "interp", **kw)
    ri = exec_cls(Li).run()
    Lg = _launch(app, kernel, device, "codegen", **kw)
    rg = exec_cls(Lg).run()
    return (Li, ri), (Lg, rg)


def _assert_identical(name, pair_a, pair_b):
    La, ra = pair_a
    Lb, rb = pair_b
    da, db = ra.stats.as_dict(), rb.stats.as_dict()
    diff = {k: (da[k], db[k]) for k in da if da[k] != db[k]}
    assert not diff, f"{name}: simulated stats differ: {diff}"
    np.testing.assert_array_equal(
        ra.nodes_per_point, rb.nodes_per_point, err_msg=name
    )
    np.testing.assert_array_equal(
        ra.nodes_per_warp, rb.nodes_per_warp, err_msg=name
    )
    np.testing.assert_array_equal(
        ra.longest_member_per_warp, rb.longest_member_per_warp, err_msg=name
    )
    assert ra.timing.time_ms == rb.timing.time_ms, name
    # Same steps, same visits, in the same order.
    assert len(ra.visits) == len(rb.visits), name
    for (pa, na), (pb, nb) in zip(ra.visits, rb.visits):
        np.testing.assert_array_equal(pa, pb, err_msg=name)
        np.testing.assert_array_equal(na, nb, err_msg=name)
    # Application outputs, bit for bit.
    for key in La.ctx.out:
        np.testing.assert_array_equal(
            La.ctx.out[key], Lb.ctx.out[key], err_msg=f"{name}:{key}"
        )


def _assert_traces_identical(name, ra, rb):
    ta, tb = ra.trace.as_arrays(), rb.trace.as_arrays()
    assert len(ra.trace) == len(rb.trace), name
    for key in ta:
        np.testing.assert_array_equal(
            ta[key], tb[key], err_msg=f"trace/{name}:{key}"
        )


class TestAutoropesEquivalence:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_engines_identical(self, name, all_apps, compiled_apps, device4):
        app = all_apps[name]
        for layout in OTHER_LAYOUTS:
            pi, pg = _run_pair(
                app, compiled_apps[name].autoropes, AutoropesExecutor,
                device4, stack_layout=layout,
            )
            _assert_identical(f"autoropes/{layout.value}/{name}", pi, pg)


class TestLockstepEquivalence:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_engines_identical(self, name, all_apps, compiled_apps, device4):
        app = all_apps[name]
        for layout in OTHER_LAYOUTS:
            pi, pg = _run_pair(
                app, compiled_apps[name].lockstep, LockstepExecutor,
                device4, stack_layout=layout,
            )
            _assert_identical(f"lockstep/{layout.value}/{name}", pi, pg)

    @pytest.mark.parametrize("name", ("pc", "knn"))
    def test_engines_identical_warp32(
        self, name, all_apps, compiled_apps, device32
    ):
        app = all_apps[name]
        for layout in OTHER_LAYOUTS:
            pi, pg = _run_pair(
                app, compiled_apps[name].lockstep, LockstepExecutor,
                device32, stack_layout=layout,
            )
            _assert_identical(f"lockstep32/{layout.value}/{name}", pi, pg)


class TestStepTraceEquivalence:
    """The telemetry layer samples StepTrace off live launches; the
    generated loop must produce the *same* per-step dynamics the
    interpreter does — not just the same totals — or sampled launch
    spans would change meaning with the engine knob."""

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_lockstep_traces_identical(self, name, all_apps, compiled_apps,
                                       device4):
        # Per-step transactions depend on where the stack lives.
        app = all_apps[name]
        for layout in OTHER_LAYOUTS:
            (_, ri), (_, rg) = _run_pair(
                app, compiled_apps[name].lockstep, LockstepExecutor, device4,
                trace=True, stack_layout=layout,
            )
            _assert_traces_identical(f"{layout.value}/{name}", ri, rg)

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_autoropes_traces_identical(self, name, all_apps, compiled_apps,
                                        device4):
        app = all_apps[name]
        (_, ri), (_, rg) = _run_pair(
            app, compiled_apps[name].autoropes, AutoropesExecutor, device4,
            trace=True,
        )
        _assert_traces_identical(name, ri, rg)

    def test_sample_events_decimation(self, pc_app, compiled_apps, device4):
        L = _launch(pc_app, compiled_apps["pc"].lockstep, device4,
                    trace=True)
        trace = LockstepExecutor(L).run().trace
        n = len(trace)
        assert n > 8
        events = trace.sample_events(8)
        assert len(events) <= 8
        steps = [e["step"] for e in events]
        assert steps == sorted(set(steps))
        assert steps[0] == 0 and steps[-1] == n - 1
        for e in events:
            assert e["active_warps"] == trace.active_warps[e["step"]]
        # Degenerate budgets.
        assert trace.sample_events(0) == []
        assert len(trace.sample_events(10 ** 6)) == n


class TestStaticRopesEquivalence:
    def test_engines_identical(self, pc_app, compiled_apps, device4):
        # Static ropes only accept unguided traversals; pc qualifies.
        # It runs its own loop on either engine, traces included.
        pi, pg = _run_pair(
            pc_app, compiled_apps["pc"].autoropes, StaticRopesExecutor,
            device4, trace=True,
        )
        _assert_identical("ropes/pc", pi, pg)
        _assert_traces_identical("ropes/pc", pi[1], pg[1])


class TestCompaction:
    """Frontier compaction must be invisible to everything measured.

    The lockstep (and recursive) row gather is covered in
    test_codegen_engine.py; this is the autoropes warp-group gather."""

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_disabled_vs_enabled(self, name, all_apps, compiled_apps, device4):
        app = all_apps[name]
        kernel = compiled_apps[name].autoropes
        Lo = _launch(app, kernel, device4, compact_threshold=0.0)
        ro = AutoropesExecutor(Lo).run()
        Lc = _launch(app, kernel, device4, compact_threshold=0.9)
        rc = AutoropesExecutor(Lc).run()
        _assert_identical(f"compact/{name}", (Lo, ro), (Lc, rc))

    def test_compaction_actually_fires(self, pc_app, compiled_apps, device4,
                                       monkeypatch):
        L = _launch(pc_app, compiled_apps["pc"].autoropes, device4,
                    compact_threshold=0.9)
        ex = AutoropesExecutor(L)
        compactions = []
        real = type(ex)._compact_groups

        def spy(self, sel):
            compactions.append(len(sel))
            return real(self, sel)

        monkeypatch.setattr(type(ex), "_compact_groups", spy)
        ex.run()
        assert compactions, "long-tailed pc traversal never compacted"
        # Each compaction keeps at least one live warp group.
        assert all(c >= 1 for c in compactions)

    def test_threshold_validation(self, pc_app, compiled_apps, device4):
        with pytest.raises(ValueError):
            _launch(pc_app, compiled_apps["pc"].lockstep, device4,
                    compact_threshold=1.5)


class TestCompiledProgram:
    """The op program: codegen's input IR."""

    def test_program_memoized_on_kernel(self, compiled_apps):
        k = compiled_apps["pc"].autoropes
        assert program_for(k) is program_for(k)

    def test_every_kernel_compiles(self, compiled_apps):
        for name, compiled in compiled_apps.items():
            for kernel in (compiled.autoropes, compiled.lockstep):
                if kernel is None:
                    continue
                prog = compile_kernel(kernel)
                assert prog.n_ops == sum(1 for _ in prog.walk()), name
                assert prog.lockstep == kernel.lockstep
                for op in prog.walk():
                    assert op.tag in (
                        TAG_COND, TAG_UPDATE, TAG_PUSH, TAG_CONTINUE
                    )
                    if op.tag in (TAG_COND, TAG_UPDATE):
                        assert callable(op.fn), name

    def test_vote_conditions_tagged(self, compiled_apps):
        """Call-set-selecting conditions become vote branches under
        lockstep (Section 4.3); the autoropes kernel predicates them."""
        k = compiled_apps["knn"].lockstep
        votes = [
            op for op in program_for(k).walk()
            if op.tag == TAG_COND and op.branch == BRANCH_VOTE
        ]
        assert votes, "guided knn lockstep kernel must vote"
        k_auto = compiled_apps["knn"].autoropes
        assert all(
            op.branch != BRANCH_VOTE
            for op in program_for(k_auto).walk()
            if op.tag == TAG_COND
        )

    def test_push_order_matches_ast(self, compiled_apps):
        """Compiled push calls preserve the kernel's LIFO push order."""
        from repro.core.autoropes import PushGroup

        for name, compiled in compiled_apps.items():
            k = compiled.autoropes
            ast_pushes = []

            def walk_stmt(s):
                if isinstance(s, PushGroup):
                    ast_pushes.append([c.child.name for c in s.push_order])
                for child in getattr(s, "stmts", ()):
                    walk_stmt(child)
                for attr in ("then", "orelse"):
                    sub = getattr(s, attr, None)
                    if sub is not None:
                        walk_stmt(sub)

            walk_stmt(k.body)
            prog_pushes = [
                [c.child for c in op.calls]
                for op in program_for(k).walk()
                if op.tag == TAG_PUSH
            ]
            assert prog_pushes == ast_pushes, name


class TestValidateGating:
    """Per-step pop validation defaults on exactly when chaos is armed."""

    def test_clean_launch_skips_validation(self, pc_app, compiled_apps,
                                           device4):
        L = _launch(pc_app, compiled_apps["pc"].autoropes, device4)
        assert L.validate is False

    def test_armed_chaos_enables_validation(self, pc_app, compiled_apps,
                                            device4):
        L = _launch(
            pc_app, compiled_apps["pc"].autoropes, device4,
            fault_plan=BatchFaultPlan(corrupt_stack_at=3),
        )
        assert L.validate is True

    def test_explicit_override_wins(self, pc_app, compiled_apps, device4):
        L = _launch(pc_app, compiled_apps["pc"].autoropes, device4,
                    validate=True)
        assert L.validate is True

    @pytest.mark.parametrize("engine", ("interp", "codegen"))
    def test_chaos_run_still_catches_corruption(self, engine, pc_app,
                                                compiled_apps, device4):
        """The generated loop must not outrun the safety net: a
        corrupted stack under chaos aborts cleanly on both engines."""
        L = _launch(
            pc_app, compiled_apps["pc"].autoropes, device4, engine,
            fault_plan=BatchFaultPlan(corrupt_stack_at=2),
        )
        with pytest.raises(CorruptedRopeStack):
            AutoropesExecutor(L).run()

    @pytest.mark.parametrize("engine", ("interp", "codegen"))
    def test_chaos_corruption_lockstep(self, engine, pc_app, compiled_apps,
                                       device4):
        L = _launch(
            pc_app, compiled_apps["pc"].lockstep, device4, engine,
            fault_plan=BatchFaultPlan(corrupt_stack_at=2),
        )
        with pytest.raises(CorruptedRopeStack):
            LockstepExecutor(L).run()

    def test_engine_name_validated(self, pc_app, compiled_apps, device4):
        for engine in ("jit", "compiled"):
            with pytest.raises(ValueError):
                _launch(pc_app, compiled_apps["pc"].autoropes, device4,
                        engine)
