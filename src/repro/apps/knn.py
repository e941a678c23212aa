"""k-Nearest Neighbors (kNN) over a leaf-bucket kd-tree.

A **guided** traversal with two call sets (Fig. 5): at every interior
node the search descends the child on the query's side of the splitting
plane first, then the other — pruning when the node's bounding box
cannot contain anything closer than the current k-th best. The call
sets are annotated semantically equivalent (Section 4.3): visiting the
children in the "wrong" order can only delay pruning, never change the
k nearest neighbors.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.base import QuerySet, TraversalApp, chunked_sq_dists, sq_dist_rows
from repro.core.annotations import Annotation
from repro.core.ir import (
    Body,
    ChildRef,
    CondRef,
    If,
    LeafSlots,
    Let,
    Max,
    NodeField,
    NodeRow,
    OutField,
    QueryCoord,
    QueryId,
    QueryRow,
    Recurse,
    Return,
    Seq,
    SlotField,
    SlotRow,
    SqNorm,
    TopKInsert,
    TraversalSpec,
    Update,
    UpdateRef,
    Var,
    clip,
    ne,
)
from repro.trees.kdtree import build_kdtree_buckets
from repro.trees.linearize import linearize_left_biased


def _cannot_contain_better(ctx, node, pt, args):
    """Prune: min distance from query to the node's bbox is no better
    than the current k-th best."""
    tree, q = ctx.tree, ctx.points
    lo = tree.arrays["bbox_min"][node]
    hi = tree.arrays["bbox_max"][node]
    p = q.coords[pt]
    clamped = np.clip(p, lo, hi)
    worst = ctx.out["knn_dist"][pt, -1]
    return sq_dist_rows(p, clamped) >= worst


def _is_leaf(ctx, node, pt, args):
    return ctx.tree.arrays["is_leaf"][node]


def _closer_to_left(ctx, node, pt, args):
    """Call-set selector: is the query on the left of the split plane?"""
    tree, q = ctx.tree, ctx.points
    dim = tree.arrays["split_dim"][node]
    val = tree.arrays["split_val"][node]
    coord = q.coords[pt, np.maximum(dim, 0)]
    return coord < val


def _make_update_knn(bucket_coords: np.ndarray, bucket_ids: np.ndarray, leaf_size: int):
    def update_knn(ctx, node, pt, args):
        tree, q = ctx.tree, ctx.points
        start = tree.arrays["leaf_start"][node]
        count = tree.arrays["leaf_count"][node]
        p = q.coords[pt]
        mine = q.orig_ids[pt]
        dists = ctx.out["knn_dist"]
        ids = ctx.out["knn_id"]
        for slot in range(leaf_size):
            valid = slot < count
            cand = np.minimum(start + slot, len(bucket_coords) - 1)
            d = sq_dist_rows(p, bucket_coords[cand])
            better = valid & (d < dists[pt, -1]) & (bucket_ids[cand] != mine)
            if not better.any():
                continue
            rows = pt[better]
            dists[rows, -1] = d[better]
            ids[rows, -1] = bucket_ids[cand[better]]
            order = np.argsort(dists[rows], axis=1, kind="stable")
            dists[rows] = np.take_along_axis(dists[rows], order, axis=1)
            ids[rows] = np.take_along_axis(ids[rows], order, axis=1)

    return update_knn


def _declared_bodies(
    bucket_coords: np.ndarray, bucket_ids: np.ndarray, leaf_size: int
) -> Dict[str, Body]:
    """The callbacks above as declared bodies (what the per-point
    traversal inlines)."""
    dim = bucket_coords.shape[1]
    q = QueryRow()
    worst = OutField("knn_dist", col=-1)
    near = SqNorm(q - clip(q, NodeRow("bbox_min"), NodeRow("bbox_max")))
    split = NodeField("split_dim", int)
    d, cand = Var("d"), SlotField("ids", int)
    scan = LeafSlots(
        "leaf_start",
        "leaf_count",
        leaf_size,
        {"coords": bucket_coords, "ids": bucket_ids},
        (
            Let("d", SqNorm(q - SlotRow("coords"))),
            TopKInsert(
                "knn_dist", "knn_id", d, cand, when=(d < worst) & ne(cand, QueryId())
            ),
        ),
    )
    return {
        "cannot_contain_better": Body(near >= worst, dim),
        "is_leaf": Body(NodeField("is_leaf", bool), dim),
        "closer_to_left": Body(
            QueryCoord(Max(split, 0)) < NodeField("split_val"), dim
        ),
        "update_knn": Body((scan,), dim),
    }


def build_knn_app(
    data: np.ndarray,
    order: np.ndarray,
    k: int = 4,
    leaf_size: int = 8,
    name: str = "knn",
) -> TraversalApp:
    """Assemble the kNN benchmark (k nearest among ``data``, excluding
    the query itself)."""
    data = np.asarray(data, dtype=np.float64)
    if k < 1 or k >= len(data):
        raise ValueError("k must be in [1, n)")
    build = build_kdtree_buckets(data, leaf_size=leaf_size)
    tree = linearize_left_biased(build.tree)
    bucket_coords = np.ascontiguousarray(data[build.point_order])
    bucket_ids = build.point_order.copy()
    queries = QuerySet.from_order(data, order)
    dim = data.shape[1]

    body = Seq(
        If(CondRef("cannot_contain_better", reads=("hot",), cost=2.0 * dim), Return()),
        If(
            CondRef("is_leaf", point_dependent=False, reads=("hot",), cost=1.0),
            Seq(
                Update(
                    UpdateRef("update_knn", reads=("leafdata",), cost=3.0 * dim * leaf_size)
                ),
                Return(),
            ),
            If(
                CondRef("closer_to_left", reads=("hot",), cost=2.0),
                Seq(Recurse(ChildRef("left")), Recurse(ChildRef("right"))),
                Seq(Recurse(ChildRef("right")), Recurse(ChildRef("left"))),
            ),
        ),
    )
    spec = TraversalSpec(
        name=name,
        body=body,
        conditions={
            "cannot_contain_better": _cannot_contain_better,
            "is_leaf": _is_leaf,
            "closer_to_left": _closer_to_left,
        },
        updates={"update_knn": _make_update_knn(bucket_coords, bucket_ids, leaf_size)},
        annotations=frozenset({Annotation.CALLSETS_EQUIVALENT}),
        bodies=_declared_bodies(bucket_coords, bucket_ids, leaf_size),
    )

    n = len(order)

    def make_out() -> Dict[str, np.ndarray]:
        return {
            "knn_dist": np.full((n, k), np.inf, dtype=np.float64),
            "knn_id": np.full((n, k), -1, dtype=np.int64),
        }

    def brute_force() -> Dict[str, np.ndarray]:
        d = chunked_sq_dists(queries.coords, data)
        d[np.arange(n), queries.orig_ids] = np.inf
        idx = np.argpartition(d, k - 1, axis=1)[:, :k]
        dd = np.take_along_axis(d, idx, axis=1)
        order_k = np.argsort(dd, axis=1, kind="stable")
        return {
            "knn_dist": np.take_along_axis(dd, order_k, axis=1),
            "knn_id": np.take_along_axis(idx, order_k, axis=1).astype(np.int64),
        }

    def check(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> None:
        # Distances are the invariant (ids may differ under ties).
        np.testing.assert_allclose(
            got["knn_dist"], want["knn_dist"], rtol=1e-9, atol=1e-12
        )

    return TraversalApp(
        name=name,
        spec=spec,
        tree=tree,
        queries=queries,
        make_out=make_out,
        params={"k": float(k)},
        brute_force=brute_force,
        check=check,
        expect_guided=True,
        visit_cost_scale=1.2,
        extras={"bucket_coords": bucket_coords, "bucket_ids": bucket_ids},
    )
