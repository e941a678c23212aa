"""Property-based tests: randomized trees and truncation predicates.

These are the strongest correctness checks in the suite: for arbitrary
binary trees and arbitrary (hash-derived, deterministic) per-(point,
node) truncation and call-order decisions,

* the autoropes executor visits exactly the nodes, in exactly the
  order, of true recursion (Section 3.3's correctness claim);
* the lockstep executor performs exactly the same per-point *updates*
  (set semantics), with masks, votes and phantom carrying handled;
* the recursive-baseline executors also produce identical updates;
* the generated per-point traversal (the service's CPU engine) visits
  the same nodes and leaves ``ctx.out`` bit-identical to recursion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import QuerySet
from repro.core.annotations import Annotation
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
from repro.core.passes import traversal_for
from repro.core.pipeline import TransformPipeline
from repro.cpusim.recursive import RecursiveInterpreter
from repro.gpusim.device import small_test_device
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    RecursiveExecutor,
    TraversalLaunch,
)

DEVICE = small_test_device(warp_size=4)
PIPELINE = TransformPipeline()


def random_tree(rng: np.random.Generator, n: int):
    """A random binary tree over nodes 0..n-1 in valid (parent<child)
    shape, then linearized."""
    from repro.trees.node import FieldGroup, RawTree
    from repro.trees.linearize import linearize_left_biased

    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    for child in range(1, n):
        parent = int(rng.integers(0, child))
        # attach to the first free slot of a random walk over parents
        for _ in range(n):
            if left[parent] < 0:
                left[parent] = child
                break
            if right[parent] < 0:
                right[parent] = child
                break
            parent = int(left[parent] if rng.random() < 0.5 else right[parent])
        else:  # pragma: no cover - random walk always finds a slot
            raise AssertionError("no slot found")
    raw = RawTree(
        child_names=("left", "right"),
        children={"left": left, "right": right},
        arrays={"salt": rng.integers(0, 1 << 30, size=n)},
        groups=(FieldGroup("hot", 8), FieldGroup("cold", 8)),
    )
    return linearize_left_biased(raw)


def _hash01(a: np.ndarray, b: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic pseudo-random bit per (a, b) pair."""
    x = (a.astype(np.int64) * 2654435761 + b.astype(np.int64) * 40503 + salt)
    x = (x ^ (x >> 13)) * 1274126177
    return ((x >> 7) & 3) == 0  # ~25% true


def make_spec(truncate_salt: int, guided: bool):
    def truncate(ctx, node, pt, args):
        return _hash01(node, ctx.points.orig_ids[pt], truncate_salt)

    def closer(ctx, node, pt, args):
        return _hash01(node, ctx.points.orig_ids[pt], truncate_salt + 7)

    def count(ctx, node, pt, args):
        np.add.at(ctx.out["mass"], pt, (node + 1).astype(np.float64))
        np.add.at(ctx.out["visits"], pt, 1)

    update = Update(UpdateRef("count", reads=("hot",)))
    if guided:
        body = Seq(
            If(CondRef("truncate", reads=("hot",)), Return()),
            update,
            If(
                CondRef("closer"),
                Seq(Recurse(ChildRef("left")), Recurse(ChildRef("right"))),
                Seq(Recurse(ChildRef("right")), Recurse(ChildRef("left"))),
            ),
        )
        ann = frozenset({Annotation.CALLSETS_EQUIVALENT})
    else:
        body = Seq(
            If(CondRef("truncate", reads=("hot",)), Return()),
            update,
            Recurse(ChildRef("left")),
            Recurse(ChildRef("right")),
        )
        ann = frozenset()
    return TraversalSpec(
        name="random_traversal",
        body=body,
        conditions={"truncate": truncate, "closer": closer},
        updates={"count": count},
        annotations=ann,
    )


def make_ctx(tree, n_pts):
    return EvalContext(
        tree=tree,
        points=QuerySet(coords=np.zeros((n_pts, 1)), orig_ids=np.arange(n_pts)),
        out={"mass": np.zeros(n_pts), "visits": np.zeros(n_pts, dtype=np.int64)},
    )


@given(
    tree_seed=st.integers(0, 10_000),
    salt=st.integers(0, 10_000),
    n_nodes=st.integers(1, 60),
    n_pts=st.integers(1, 20),
)
@settings(max_examples=25, deadline=None)
def test_autoropes_visit_order_equals_recursion(tree_seed, salt, n_nodes, n_pts):
    rng = np.random.default_rng(tree_seed)
    tree = random_tree(rng, n_nodes)
    spec = make_spec(salt, guided=False)
    compiled = PIPELINE.compile(spec)

    ctx = make_ctx(tree, n_pts)
    launch = TraversalLaunch(
        kernel=compiled.autoropes, tree=tree, ctx=ctx, n_points=n_pts,
        device=DEVICE, record_visits=True,
    )
    seqs = AutoropesExecutor(launch).run().per_point_sequences()

    ref_ctx = make_ctx(tree, n_pts)
    interp = RecursiveInterpreter(spec, tree, ref_ctx)
    for p in range(n_pts):
        np.testing.assert_array_equal(interp.run_point(p), seqs[p])
    np.testing.assert_allclose(ctx.out["mass"], ref_ctx.out["mass"])
    np.testing.assert_array_equal(ctx.out["visits"], ref_ctx.out["visits"])


@given(
    tree_seed=st.integers(0, 10_000),
    salt=st.integers(0, 10_000),
    n_nodes=st.integers(1, 60),
    n_pts=st.integers(1, 20),
    guided=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_all_executors_agree_on_updates(tree_seed, salt, n_nodes, n_pts, guided):
    """Update *sets* are identical across every executor variant.

    For the unguided spec updates depend only on (point, node), and for
    the guided spec the truncation predicate is order-independent too,
    so even the vote-reordered lockstep run must hit the same set."""
    rng = np.random.default_rng(tree_seed)
    tree = random_tree(rng, n_nodes)
    spec = make_spec(salt, guided=guided)
    compiled = PIPELINE.compile(spec)

    ref_ctx = make_ctx(tree, n_pts)
    interp = RecursiveInterpreter(spec, tree, ref_ctx)
    for p in range(n_pts):
        interp.run_point(p)

    runs = [
        (compiled.autoropes, AutoropesExecutor, {}),
        (compiled.lockstep, LockstepExecutor, {}),
        (compiled.lockstep, lambda L: RecursiveExecutor(L, masking=True), {}),
        (compiled.autoropes, lambda L: RecursiveExecutor(L, masking=False), {}),
    ]
    for kernel, exe, kw in runs:
        ctx = make_ctx(tree, n_pts)
        launch = TraversalLaunch(
            kernel=kernel, tree=tree, ctx=ctx, n_points=n_pts, device=DEVICE, **kw
        )
        exe(launch).run()
        np.testing.assert_allclose(ctx.out["mass"], ref_ctx.out["mass"])
        np.testing.assert_array_equal(ctx.out["visits"], ref_ctx.out["visits"])


@given(
    tree_seed=st.integers(0, 5_000),
    salt=st.integers(0, 5_000),
    n_nodes=st.integers(2, 40),
    n_pts=st.integers(2, 16),
)
@settings(max_examples=20, deadline=None)
def test_inorder_normalization_property(tree_seed, salt, n_nodes, n_pts):
    """Random in-order traversals (update sandwiched between calls)
    survive normalization + autoropes with identical update multisets
    AND per-point order."""
    rng = np.random.default_rng(tree_seed)
    tree = random_tree(rng, n_nodes)

    def truncate(ctx, node, pt, args):
        return _hash01(node, ctx.points.orig_ids[pt], salt)

    log = []

    def record(ctx, node, pt, args):
        for n, p in zip(node, pt):
            log.append((int(p), int(n)))

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
    compiled = PIPELINE.compile(spec)
    assert compiled.normalized.visits_null_children

    ctx = make_ctx(tree, n_pts)
    interp = RecursiveInterpreter(spec, tree, ctx)
    for p in range(n_pts):
        interp.run_point(p)
    ref_log, log[:] = list(log), []

    ctx2 = make_ctx(tree, n_pts)
    launch = TraversalLaunch(
        kernel=compiled.autoropes, tree=tree, ctx=ctx2, n_points=n_pts,
        device=DEVICE,
    )
    AutoropesExecutor(launch).run()
    gpu_log = list(log)

    def per_point(entries):
        out = {}
        for p, n in entries:
            out.setdefault(p, []).append(n)
        return out

    assert per_point(ref_log) == per_point(gpu_log)


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(
    tree_seed=st.integers(0, 10_000),
    salt=st.integers(0, 10_000),
    n_nodes=st.integers(1, 60),
    n_pts=st.integers(1, 20),
    guided=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_generated_traversal_equals_recursion(
    tree_seed, salt, n_nodes, n_pts, guided
):
    """The generated traversal of the autoropes kernel: same visit
    sequence per point and bit-identical ``ctx.out``."""
    rng = np.random.default_rng(tree_seed)
    tree = random_tree(rng, n_nodes)
    spec = make_spec(salt, guided=guided)
    walk = traversal_for(PIPELINE.compile(spec).autoropes)

    ctx = make_ctx(tree, n_pts)
    ref_ctx = make_ctx(tree, n_pts)
    interp = RecursiveInterpreter(spec, tree, ref_ctx)
    for p in range(n_pts):
        got = np.array(walk(ctx, tree, p, tree.root), dtype=np.int64)
        assert_bit_identical(got, interp.run_point(p))
    for key in ref_ctx.out:
        assert_bit_identical(ctx.out[key], ref_ctx.out[key])


@given(
    tree_seed=st.integers(0, 5_000),
    salt=st.integers(0, 5_000),
    n_nodes=st.integers(2, 40),
    n_pts=st.integers(2, 16),
)
@settings(max_examples=20, deadline=None)
def test_generated_inorder_equals_recursion(tree_seed, salt, n_nodes, n_pts):
    """The pushed-down normal form (phantom visits, ``__pend`` and
    ``__parent`` site overrides) through the generated traversal: the
    exact update sequence of recursion, not only per-point sets."""
    rng = np.random.default_rng(tree_seed)
    tree = random_tree(rng, n_nodes)

    def truncate(ctx, node, pt, args):
        return _hash01(node, ctx.points.orig_ids[pt], salt)

    log = []

    def record(ctx, node, pt, args):
        log.append((int(pt[0]), int(node[0])))

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
    compiled = PIPELINE.compile(spec)
    assert compiled.normalized.visits_null_children
    walk = traversal_for(compiled.autoropes)

    interp = RecursiveInterpreter(spec, tree, make_ctx(tree, n_pts))
    want = [interp.run_point(p) for p in range(n_pts)]
    ref_log, log[:] = list(log), []
    ctx = make_ctx(tree, n_pts)
    got = [walk(ctx, tree, p, tree.root) for p in range(n_pts)]
    assert log == ref_log
    for g, w in zip(got, want):
        assert_bit_identical(np.array(g, dtype=np.int64), w)
