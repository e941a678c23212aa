"""Pretty-printer tests: the rendered pseudocode must exhibit the exact
shapes of the paper's Figures 4-8."""

import numpy as np

from repro.core.passes import render_iterative, render_recursive
from repro.core.lockstep import apply_lockstep
from repro.core.autoropes import apply_autoropes
from repro.core.annotations import Annotation
from repro.core.ir import (
    ArgDecl,
    ChildRef,
    CondRef,
    If,
    Recurse,
    Return,
    Seq,
    TraversalSpec,
    Update,
    UpdateRef,
)


def _true(ctx, node, pt, args):
    return np.ones(len(node), dtype=bool)


def _noop(ctx, node, pt, args):
    return None


def pc_spec():
    return TraversalSpec(
        name="recurse",
        body=Seq(
            If(CondRef("cant_correlate"), Return()),
            If(
                CondRef("is_leaf", point_dependent=False),
                Seq(Update(UpdateRef("update_correlation")), Return()),
                Seq(Recurse(ChildRef("left")), Recurse(ChildRef("right"))),
            ),
        ),
        conditions={"cant_correlate": _true, "is_leaf": _true},
        updates={"update_correlation": _noop},
    )


def guided_spec():
    return TraversalSpec(
        name="recurse",
        body=Seq(
            If(CondRef("cant_correlate"), Return()),
            If(
                CondRef("closer_to_left"),
                Seq(Recurse(ChildRef("left")), Recurse(ChildRef("right"))),
                Seq(Recurse(ChildRef("right")), Recurse(ChildRef("left"))),
            ),
        ),
        args=(ArgDecl("arg", 0.0, update="bump"), ArgDecl("c", 1.0)),
        conditions={"cant_correlate": _true, "closer_to_left": _true},
        arg_rules={"bump": lambda c, n, p, a: a["arg"] + 1},
        annotations=frozenset({Annotation.CALLSETS_EQUIVALENT}),
    )


class TestRecursiveRendering:
    def test_fig4_shape(self):
        src = render_recursive(pc_spec())
        assert "if (cant_correlate(node, pt))" in src
        assert "return;" in src
        assert "recurse(node.left, pt);" in src
        assert "recurse(node.right, pt);" in src
        # left call comes before right call (original order)
        assert src.index("node.left") < src.index("node.right")

    def test_args_in_signature(self):
        src = render_recursive(guided_spec())
        assert "recurse(node node, point pt, arg, c)" in src.splitlines()[0]


class TestIterativeRendering:
    def test_fig6_shape(self):
        """Autoropes: stack loop, continue, reversed pushes."""
        src = render_iterative(apply_autoropes(pc_spec()))
        assert "stack stk = new stack();" in src
        assert "while (!stk.is_empty())" in src
        assert "continue;" in src
        # Fig. 6: push(right) textually precedes push(left).
        assert src.index("stk.push(node.right)") < src.index("stk.push(node.left)")

    def test_fig7_variant_args_ride_the_stack(self):
        """Fig. 7: the variant arg is pushed/popped with the rope; the
        invariant arg stays a parameter."""
        src = render_iterative(apply_autoropes(guided_spec()))
        assert "stk.push(node.right, arg);" in src
        assert "arg = stk.peek(1);" in src
        first_line = src.splitlines()[0]
        assert ", c)" in first_line and ", arg" not in first_line

    def test_fig8_lockstep_shape(self):
        """Fig. 8: mask on the stack, bit_clear on truncation, ballot
        before the guarded push."""
        src = render_iterative(apply_lockstep(apply_autoropes(pc_spec())))
        assert "uint mask;" in src
        assert "if (bit_set(mask, threadId))" in src
        assert "bit_clear(mask, threadId);" in src
        assert "mask = warp_ballot(mask);" in src
        assert "if (mask != 0)" in src
        assert "stk.push(node.left, mask);" in src

    def test_vote_rendered_for_guided_lockstep(self):
        src = render_iterative(apply_lockstep(apply_autoropes(guided_spec())))
        assert "warp_majority(closer_to_left(node, pt))" in src
