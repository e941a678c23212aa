"""Property-based tests: randomized trees and truncation predicates.

These are the strongest correctness checks in the suite: for arbitrary
binary trees and arbitrary (hash-derived, deterministic) per-(point,
node) truncation and call-order decisions,

* the autoropes executor visits exactly the nodes, in exactly the
  order, of true recursion (Section 3.3's correctness claim);
* the lockstep executor performs exactly the same per-point *updates*
  (set semantics), with masks, votes and phantom carrying handled;
* the recursive-baseline executors also produce identical updates;
* every executor's generated step loop (``engine="codegen"``) is
  bit-identical to the interpreter (``engine="interp"``) on stats,
  modeled time, visit logs, step traces and outputs, across the loop
  facts it is specialized on (warp width, compaction, validation,
  watchdog guard, tracing);
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
from repro.core.passes import einsum_order_holds, traversal_for
from repro.core.pipeline import TransformPipeline
from repro.cpusim.recursive import RecursiveInterpreter
from repro.gpusim.device import small_test_device
from repro.gpusim.executors import (
    AutoropesExecutor,
    LockstepExecutor,
    RecursiveExecutor,
    TraversalLaunch,
)
from repro.gpusim.kernel import VisitBudgetExceeded

DEVICE = small_test_device(warp_size=4)
DEVICES = {4: DEVICE, 32: small_test_device(warp_size=32)}
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


def _run_engine(kernel, exe, tree, n_pts, engine, **launch_kw):
    """One launch; returns (ctx, result or the budget abort, stats)."""
    ctx = make_ctx(tree, n_pts)
    launch = TraversalLaunch(
        kernel=kernel, tree=tree, ctx=ctx, n_points=n_pts, engine=engine,
        **launch_kw,
    )
    try:
        result = exe(launch).run()
    except VisitBudgetExceeded as exc:
        result = exc
    return ctx, result, launch.stats.as_dict()


def _assert_engines_identical(name, interp, codegen):
    (ctx_i, ri, si), (ctx_g, rg, sg) = interp, codegen
    diff = {k: (si[k], sg.get(k)) for k in si if si[k] != sg.get(k)}
    assert not diff and si.keys() == sg.keys(), f"{name}: stats {diff}"
    if isinstance(ri, VisitBudgetExceeded):
        # Both engines abort at the same step, partial stats equal.
        assert isinstance(rg, VisitBudgetExceeded), name
        assert ri.step == rg.step, name
        return
    assert not isinstance(rg, VisitBudgetExceeded), name
    assert ri.time_ms == rg.time_ms, name
    for attr in ("nodes_per_point", "nodes_per_warp",
                 "longest_member_per_warp"):
        assert_bit_identical(getattr(rg, attr), getattr(ri, attr))
    assert (ri.visits is None) == (rg.visits is None), name
    if ri.visits is not None:
        assert len(ri.visits) == len(rg.visits), name
        for (pi, ni), (pg, ng) in zip(ri.visits, rg.visits):
            assert_bit_identical(pg, pi)
            assert_bit_identical(ng, ni)
    assert (ri.trace is None) == (rg.trace is None), name
    if ri.trace is not None:
        ti, tg = ri.trace.as_arrays(), rg.trace.as_arrays()
        for key in ti:
            assert_bit_identical(tg[key], ti[key])
    for key in ctx_i.out:
        assert_bit_identical(ctx_g.out[key], ctx_i.out[key])


@given(
    tree_seed=st.integers(0, 10_000),
    salt=st.integers(0, 10_000),
    n_nodes=st.integers(1, 60),
    n_pts=st.integers(1, 64),
    guided=st.booleans(),
    warp=st.sampled_from(sorted(DEVICES)),
    compact=st.sampled_from((0.0, 0.9)),
    validate=st.booleans(),
    budget=st.sampled_from((None, 4, 1_000_000)),
    observe=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_all_executors_agree_on_updates(
    tree_seed, salt, n_nodes, n_pts, guided, warp, compact, validate,
    budget, observe,
):
    """Update *sets* are identical across every executor variant, and
    each variant's two engines are bit-identical.

    For the unguided spec updates depend only on (point, node), and for
    the guided spec the truncation predicate is order-independent too,
    so even the vote-reordered lockstep run must hit the same set.

    The engine parity is the proof that licenses running generated
    loops: every ``KernelStats`` field, ``time_ms``, per-point and
    per-warp lengths, visit logs, step traces and every ``ctx.out``
    array must match bit for bit.  The drawn launch knobs cover the
    loop-facts axes the generated source is specialized on: warp width,
    compaction emitted or not (64 points on 4-lane warps is 16 warps,
    enough rows for the gather to fire), validation, the watchdog guard
    (a budget of 4 steps trips it, and both engines must then abort at
    the same step with the same partial stats), and tracing plus the
    visit log."""
    rng = np.random.default_rng(tree_seed)
    tree = random_tree(rng, n_nodes)
    spec = make_spec(salt, guided=guided)
    compiled = PIPELINE.compile(spec)

    ref_ctx = make_ctx(tree, n_pts)
    interp = RecursiveInterpreter(spec, tree, ref_ctx)
    for p in range(n_pts):
        interp.run_point(p)

    launch_kw = dict(
        device=DEVICES[warp], compact_threshold=compact, validate=validate,
        visit_budget=budget, record_visits=observe, trace=observe,
    )
    runs = [
        ("autoropes", compiled.autoropes, AutoropesExecutor),
        ("lockstep", compiled.lockstep, LockstepExecutor),
        ("rec-masked", compiled.lockstep,
         lambda L: RecursiveExecutor(L, masking=True)),
        ("rec-unmasked", compiled.autoropes,
         lambda L: RecursiveExecutor(L, masking=False)),
    ]
    for name, kernel, exe in runs:
        by_engine = [
            _run_engine(kernel, exe, tree, n_pts, engine, **launch_kw)
            for engine in ("interp", "codegen")
        ]
        _assert_engines_identical(name, *by_engine)
        ctx, result, _ = by_engine[0]
        if isinstance(result, VisitBudgetExceeded):
            continue
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


def lowered_app(name: str, data: np.ndarray, leaf: int, radius: float):
    """One of the four apps with declared bodies, over ``data``."""
    from repro.apps.knn import build_knn_app
    from repro.apps.nn import build_nn_app
    from repro.apps.pointcorr import build_pointcorr_app
    from repro.apps.vptree_nn import build_vptree_app

    order = np.arange(len(data))
    if name == "pc":
        return build_pointcorr_app(data, order, radius=radius, leaf_size=leaf)
    if name == "knn":
        return build_knn_app(data, order, k=min(3, len(data) - 1), leaf_size=leaf)
    if name == "nn":
        return build_nn_app(data, order)
    return build_vptree_app(data, order, leaf_size=leaf)


def queries_on_data_and_faces(rng, tree, data: np.ndarray):
    """Every data point (with its id, so self-exclusion fires), copies
    of them under id -1, and points on node bounding-box faces and
    corners (and on vantage points and covering-ball centers)."""
    rows = [f for f in ("bbox_min", "bbox_max", "center", "vantage", "point")
            if f in tree.arrays]
    extra = []
    for field in rows:
        for r in tree.arrays[field][: 6]:
            extra.append(r)
            face = data[rng.integers(len(data))].copy()
            j = rng.integers(data.shape[1])
            face[j] = r[j]
            extra.append(face)
    coords = np.vstack([data, data[: 4]] + [np.array(extra)] * bool(extra))
    ids = np.concatenate(
        [np.arange(len(data)), np.full(len(coords) - len(data), -1)]
    ).astype(np.int64)
    return np.ascontiguousarray(coords), ids


@given(
    name=st.sampled_from(("pc", "knn", "nn", "vp")),
    dim=st.sampled_from((2, 3, 7)),
    seed=st.integers(0, 10_000),
    n=st.integers(2, 48),
    leaf=st.integers(1, 6),
    radius=st.sampled_from((0.0, 0.25, 0.5, 1.0)),
)
@settings(max_examples=40, deadline=None)
def test_lowered_bodies_equal_recursion(name, dim, seed, n, leaf, radius):
    """The declared bodies inlined into the generated traversal: per
    query the visit sequence of recursion on the original callables,
    every ``ctx.out`` array byte-identical, and the runaway guard
    ending a walk at the same bound with the same partial results.

    Coordinates sit on a coarse grid half the time, so datasets carry
    duplicated points, ties and distances exactly at the radius;
    leaf buckets are partial wherever a split leaves fewer points
    than ``leaf``."""
    from repro.service.sessions import ADAPTERS

    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 5, (n, dim)) * 0.25
    data = np.where(rng.random((n, dim)) < 0.5, grid, rng.random((n, dim)))
    dups = rng.integers(0, n, n // 4)
    data[rng.integers(0, n, len(dups))] = data[dups]
    app = lowered_app(name, data, leaf, radius)
    walk = traversal_for(PIPELINE.compile(app.spec).autoropes)
    lowered = einsum_order_holds(dim)
    assert ("_c_" in walk.__source__) is not lowered
    coords, ids = queries_on_data_and_faces(rng, app.tree, data)

    def fresh_ctx():
        return EvalContext(
            tree=app.tree,
            points=QuerySet(coords, ids),
            out=ADAPTERS[name].make_out(len(coords), app.params),
            params=dict(app.params),
        )

    ctx, ref_ctx = fresh_ctx(), fresh_ctx()
    interp = RecursiveInterpreter(app.spec, app.tree, ref_ctx)
    for p in range(len(coords)):
        got = np.array(walk(ctx, app.tree, p, app.tree.root), dtype=np.int64)
        assert_bit_identical(got, interp.run_point(p))
    for key in ref_ctx.out:
        assert_bit_identical(ctx.out[key], ref_ctx.out[key])
    if lowered:  # every walk ran the lowered bodies, none the calls
        assert walk.__globals__["_call_path"].fn is None

    p = int(rng.integers(len(coords)))
    bound = len(walk(fresh_ctx(), app.tree, p, app.tree.root)) - 1
    ctx, ref_ctx = fresh_ctx(), fresh_ctx()
    with pytest.raises(RuntimeError, match="max_visits"):
        walk(ctx, app.tree, p, app.tree.root, max_visits=bound)
    with pytest.raises(RuntimeError, match="max_visits"):
        RecursiveInterpreter(
            app.spec, app.tree, ref_ctx, max_visits=bound
        ).run_point(p)
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
