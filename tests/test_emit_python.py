"""Differential tests for the generated per-point traversal
(:class:`repro.core.passes.EmitScalarPython`): emitted source vs scalar
recursion, bit for bit."""

import re

import numpy as np
import pytest

from repro.core.passes import (
    compile_traversal,
    einsum_order_holds,
    emit_traversal_source,
    traversal_for,
)
from repro.cpusim.recursive import RecursiveInterpreter


def assert_bit_identical(got, want, err_msg=""):
    """Same dtype, shape and bytes (so -0.0 vs 0.0 and NaN payloads
    count as differences, unlike a numeric comparison)."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want, err_msg=err_msg)
    assert got.dtype == want.dtype, err_msg
    assert got.tobytes() == want.tobytes(), err_msg


def assert_outs_identical(got_ctx, want_ctx, err_msg=""):
    assert sorted(got_ctx.out) == sorted(want_ctx.out)
    for key in want_ctx.out:
        assert_bit_identical(
            got_ctx.out[key], want_ctx.out[key], err_msg=f"{err_msg}: {key}"
        )


class TestEmission:
    def test_source_is_readable_python(self, compiled_apps):
        src = emit_traversal_source(compiled_apps["pc"].autoropes)
        assert "def traverse(ctx, tree, pt, root, max_visits=10_000_000):" in src
        assert "node = pop()" in src
        assert "continue" in src
        compile(src, "<check>", "exec")  # syntactically valid

    def test_reversed_push_order_in_source(self, compiled_apps):
        src = emit_traversal_source(compiled_apps["pc"].autoropes)
        # Fig. 6: right pushed before left.
        assert src.index("push(_ch_right[node])") < src.index("push(_ch_left[node])")

    def test_callable_carries_source(self, compiled_apps):
        fn = compile_traversal(compiled_apps["pc"].autoropes)
        assert "def traverse" in fn.__source__

    def test_callbacks_bound_by_name(self, compiled_apps):
        # bh declares no bodies, so its callbacks keep the call path.
        src = emit_traversal_source(compiled_apps["bh"].autoropes)
        assert "_c_approximate(ctx, nd, pa, args)[0]" in src
        assert "_u_add_force(ctx, nd, pa, args)" in src
        assert "_cond[" not in src and "_upd[" not in src

    def test_args_copied_only_with_variant_args(self, compiled_apps):
        # pc has no arguments: the stack holds bare node ids.
        pc = emit_traversal_source(compiled_apps["pc"].autoropes)
        assert "dict(" not in pc and "stk = [root]" in pc
        # bh's dsq is variant: one copy per visit, shared by the 8 pushes.
        bh = emit_traversal_source(compiled_apps["bh"].autoropes)
        assert bh.count("dict(") == 1
        assert bh.count("push((") == 8

    def test_callbacks_get_read_only_arrays(self, compiled_apps, all_apps):
        app = all_apps["bh"]
        kernel = compiled_apps["bh"].autoropes
        fn = traversal_for(kernel)
        seen = []
        cond = kernel.spec.conditions["approximate"]

        def spy(ctx, node, pt, args):
            seen.append((node.flags.writeable, pt.flags.writeable, node.shape))
            return cond(ctx, node, pt, args)

        fn.__globals__["_c_approximate"] = spy
        try:
            fn(app.make_ctx(), app.tree, 0, app.tree.root)
        finally:
            fn.__globals__["_c_approximate"] = cond
        assert seen and all(s == (False, False, (1,)) for s in seen)

    @pytest.mark.parametrize("name", ["pc", "knn", "nn", "vp"])
    def test_declared_bodies_are_inlined(self, name, compiled_apps):
        """Every callback of the four declared apps is inlined: the
        per-point source calls none of them."""
        if not einsum_order_holds(3):
            pytest.skip("this host's einsum order is not the lowered one")
        kernel = compiled_apps[name].autoropes
        src = emit_traversal_source(kernel)
        assert re.search(r"\b_[cu]_\w+\(", src) is None, src
        for callback in kernel.spec.bodies:
            assert f"# {callback}: declared body" in src
        assert "rows[node]" not in src and "_readonly1(pt)" not in src


class TestDifferential:
    @pytest.mark.parametrize("name", ["pc", "knn", "nn", "vp", "bh"])
    def test_emitted_matches_recursion(self, name, all_apps, compiled_apps):
        """Every point of every app: visit sequences and the whole
        ``ctx.out`` bit-identical to the interpreter on the original
        spec (bh carries a variant argument)."""
        app = all_apps[name]
        fn = compile_traversal(compiled_apps[name].autoropes)

        gen_ctx = app.make_ctx()
        ref_ctx = app.make_ctx()
        interp = RecursiveInterpreter(app.spec, app.tree, ref_ctx)
        for p in range(app.n_points):
            got = fn(gen_ctx, app.tree, p, app.tree.root)
            want = interp.run_point(p)
            assert_bit_identical(
                np.array(got, dtype=np.int64), want, err_msg=f"{name} point {p}"
            )
        assert_outs_identical(gen_ctx, ref_ctx, err_msg=name)

    def test_emitted_handles_normalized_inorder(self):
        """The pushed-down (phantom-visiting) form emits correctly."""
        from repro.apps.base import QuerySet
        from repro.core.ir import (
            ChildRef,
            EvalContext,
            Recurse,
            Seq,
            TraversalSpec,
            Update,
            UpdateRef,
        )
        from repro.core.pipeline import TransformPipeline
        from repro.trees.node import FieldGroup, RawTree
        from repro.trees.linearize import linearize_left_biased

        n = 15
        left = np.array([2 * i + 1 if 2 * i + 1 < n else -1 for i in range(n)])
        right = np.array([2 * i + 2 if 2 * i + 2 < n else -1 for i in range(n)])
        tree = linearize_left_biased(
            RawTree(
                child_names=("left", "right"),
                children={"left": left, "right": right},
                arrays={},
                groups=(FieldGroup("hot", 8),),
            )
        )
        log = []

        def rec(ctx, node, pt, args):
            log.append(int(node[0]))

        spec = TraversalSpec(
            name="inorder",
            body=Seq(
                Recurse(ChildRef("left")),
                Update(UpdateRef("u")),
                Recurse(ChildRef("right")),
            ),
            updates={"u": rec},
        )
        compiled = TransformPipeline().compile(spec)
        assert compiled.normalized.visits_null_children
        fn = compile_traversal(compiled.autoropes)
        ctx = EvalContext(
            tree=tree,
            points=QuerySet(coords=np.zeros((1, 1)), orig_ids=np.arange(1)),
            out={},
        )
        got = fn(ctx, tree, 0, tree.root)
        emitted_order = list(log)
        log.clear()
        want = RecursiveInterpreter(spec, tree, ctx).run_point(0)
        assert emitted_order == log
        assert_bit_identical(np.array(got, dtype=np.int64), want)
        # it really is the in-order sequence over the preorder layout
        assert sorted(emitted_order) == list(range(n))


class TestRunawayGuard:
    def test_guard_trips_on_cycle(self, all_apps, compiled_apps):
        """A child array that points the root back at itself loops
        forever; the guard's bound ends the walk in milliseconds."""
        import time
        from dataclasses import replace

        app = all_apps["pc"]
        children = {k: v.copy() for k, v in app.tree.children.items()}
        children["left"][app.tree.root] = app.tree.root
        tree = replace(app.tree, children=children)
        fn = traversal_for(compiled_apps["pc"].autoropes)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="max_visits"):
            fn(app.make_ctx(), tree, 0, tree.root, max_visits=2_000)
        assert time.perf_counter() - t0 < 2.0

    def test_guard_bound_matches_interpreter(self, all_apps, compiled_apps):
        """Both engines fail on the same walk at the same bound."""
        app = all_apps["pc"]
        fn = traversal_for(compiled_apps["pc"].autoropes)
        visits = len(fn(app.make_ctx(), app.tree, 0, app.tree.root))
        assert visits > 1
        for bound in (visits - 1, visits):
            interp = RecursiveInterpreter(
                app.spec, app.tree, app.make_ctx(), max_visits=bound
            )
            if bound < visits:
                with pytest.raises(RuntimeError, match="max_visits"):
                    interp.run_point(0)
                with pytest.raises(RuntimeError, match="max_visits"):
                    fn(app.make_ctx(), app.tree, 0, app.tree.root, max_visits=bound)
            else:
                assert len(interp.run_point(0)) == visits
                assert len(
                    fn(app.make_ctx(), app.tree, 0, app.tree.root, max_visits=bound)
                ) == visits


class TestFallback:
    """Where the lowering does not hold, the call path does, bit for
    bit."""

    def test_failed_order_check_keeps_the_call_path(
        self, monkeypatch, all_apps, compiled_apps
    ):
        """A host whose einsum order is not the lowered one: the
        declared apps emit every callback as a call and still match
        the interpreter byte for byte."""
        from repro.core import passes

        monkeypatch.setattr(passes, "einsum_order_holds", lambda n: False)
        for name in ("pc", "knn", "nn", "vp"):
            app = all_apps[name]
            kernel = compiled_apps[name].autoropes
            src = emit_traversal_source(kernel)
            for cond in app.spec.conditions:
                assert f"_c_{cond}(ctx, nd, pa, args)[0]" in src, name
            for update in app.spec.updates:
                assert f"_u_{update}(ctx, nd, pa, args)" in src, name
            assert "declared body" not in src and "_call_path" not in src
            fn = compile_traversal(kernel)
            gen_ctx, ref_ctx = app.make_ctx(), app.make_ctx()
            interp = RecursiveInterpreter(app.spec, app.tree, ref_ctx)
            for p in range(0, app.n_points, 7):
                got = fn(gen_ctx, app.tree, p, app.tree.root)
                assert_bit_identical(
                    np.array(got, dtype=np.int64), interp.run_point(p), name
                )
            assert_outs_identical(gen_ctx, ref_ctx, err_msg=name)

    def test_order_check_rejects_another_summation_order(self, monkeypatch):
        """The emit-time check compares against the host's einsum, so
        a reduction in any other order fails it."""
        from repro.core import passes

        assert passes.sq_norm_expr(["a", "b", "c"]) == "a * a + c * c + (b * b)"
        monkeypatch.setattr(passes, "_EINSUM_ORDER", {})
        monkeypatch.setattr(
            passes,
            "sq_norm_expr",
            lambda names: " + ".join(f"{e} * {e}" for e in reversed(names)),
        )
        assert not passes.einsum_order_holds(7)

    def test_partly_declared_spec_mixes_both_paths(self, all_apps, compiled_apps):
        """A spec declaring only some bodies inlines those and calls
        the rest, with the same visits and results."""
        from repro.core.ir import TraversalSpec
        from repro.core.pipeline import TransformPipeline

        app = all_apps["pc"]
        spec = TraversalSpec(
            name="pc_partial",
            body=app.spec.body,
            conditions=app.spec.conditions,
            updates=app.spec.updates,
            bodies={"cannot_correlate": app.spec.bodies["cannot_correlate"]},
        )
        fn = compile_traversal(TransformPipeline().compile(spec).autoropes)
        if einsum_order_holds(3):
            assert "_c_cannot_correlate(" not in fn.__source__
        assert "_c_is_leaf(ctx, nd, pa, args)[0]" in fn.__source__
        assert "_u_count_bucket(ctx, nd, pa, args)" in fn.__source__
        gen_ctx, ref_ctx = app.make_ctx(), app.make_ctx()
        interp = RecursiveInterpreter(app.spec, app.tree, ref_ctx)
        for p in range(0, app.n_points, 3):
            got = fn(gen_ctx, app.tree, p, app.tree.root)
            assert_bit_identical(np.array(got, dtype=np.int64), interp.run_point(p))
        assert_outs_identical(gen_ctx, ref_ctx)

    def test_undeclared_arrays_run_the_call_path(self, all_apps, compiled_apps):
        """A tree whose fields are not C-contiguous cannot be viewed as
        declared: the walk runs the call path, with the same result."""
        from dataclasses import replace

        if not einsum_order_holds(3):
            pytest.skip("this host's einsum order is not the lowered one")
        app = all_apps["pc"]
        arrays = dict(app.tree.arrays)
        arrays["bbox_min"] = np.asfortranarray(arrays["bbox_min"])
        tree = replace(app.tree, arrays=arrays)
        fn = compile_traversal(compiled_apps["pc"].autoropes)
        gen_ctx, ref_ctx = app.make_ctx(), app.make_ctx()
        interp = RecursiveInterpreter(app.spec, tree, ref_ctx)
        for p in range(0, app.n_points, 5):
            got = fn(gen_ctx, tree, p, tree.root)
            assert_bit_identical(np.array(got, dtype=np.int64), interp.run_point(p))
        assert_outs_identical(gen_ctx, ref_ctx)
        assert fn.__globals__["_call_path"].fn is not None

    def test_undeclared_specs_keep_the_call_path(self, compiled_apps, monkeypatch):
        """bh and the bring-your-own example declare no bodies: their
        traversals call every callback (and the example's
        normalization-made ones) by name."""
        import runpy
        from pathlib import Path

        from repro.core.pipeline import TransformPipeline

        bh = emit_traversal_source(compiled_apps["bh"].autoropes)
        assert "_c_approximate(" in bh and "_u_add_force(" in bh

        class Captured(Exception):
            pass

        specs = []

        def capture(self, spec):
            specs.append(spec)
            raise Captured

        monkeypatch.setattr(TransformPipeline, "compile", capture)
        example = Path(__file__).resolve().parents[1] / "examples" / "custom_traversal.py"
        with pytest.raises(Captured):
            runpy.run_path(str(example), run_name="__main__")
        monkeypatch.undo()
        (spec,) = specs
        assert not spec.bodies
        src = emit_traversal_source(TransformPipeline().compile(spec).autoropes)
        assert "_c_disjoint(ctx, nd, pa, args)[0]" in src
        assert "_u___deferred_add_if_inside_1(ctx, nd, pa, args)" in src
        assert "declared body" not in src
