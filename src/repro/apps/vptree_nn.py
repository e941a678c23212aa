"""Vantage-Point tree nearest neighbor (VP).

Nearest-neighbor search over a vantage-point tree (Yianilos '93):
internal nodes hold a vantage point and median radius ``tau``; the
search considers the vantage point as a candidate, descends the side
containing the query first (inside iff ``dist(q, vantage) < tau``), and
prunes with a covering-ball bound — each node stores the radius of the
ball (around its vantage / leaf centroid) containing its whole subtree,
so the prune is an entry check and the traversal stays
pseudo-tail-recursive. **Guided**, two call sets, annotated equivalent.

VP works in *metric* space, so distances here are true (not squared)
Euclidean distances.
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
    NodeField,
    NodeRow,
    OutField,
    QueryId,
    QueryRow,
    Recurse,
    Return,
    Seq,
    SlotField,
    SlotRow,
    SqNorm,
    Sqrt,
    Store,
    TraversalSpec,
    Update,
    UpdateRef,
    Var,
    ne,
)
from repro.trees.vptree import VPTreeBuild, build_vptree
from repro.trees.linearize import linearize_left_biased


def add_covering_balls(build: VPTreeBuild, data: np.ndarray) -> None:
    """Attach ``center``/``radius`` arrays: the covering ball of each
    node's subtree (vantage-centered for internal nodes, centroid-
    centered for leaves).

    The builder records every node's bucket range *before* splitting,
    so each node still knows its full subset of ``point_order``.
    """
    raw = build.tree
    n = raw.n_nodes
    d = data.shape[1]
    center = np.zeros((n, d))
    radius = np.zeros(n)
    start = raw.arrays["leaf_start"]
    count = raw.arrays["leaf_count"]
    is_leaf = raw.arrays["is_leaf"]
    vantage = raw.arrays["vantage"]
    for node in range(n):
        subset = data[build.point_order[start[node] : start[node] + count[node]]]
        c = subset.mean(axis=0) if is_leaf[node] else vantage[node]
        center[node] = c
        radius[node] = np.sqrt(((subset - c) ** 2).sum(axis=1).max())
    raw.arrays["center"] = center
    raw.arrays["radius"] = radius


def _cannot_contain_better(ctx, node, pt, args):
    """Prune: even the closest point of the covering ball is no better
    than the current best (triangle inequality)."""
    tree, q = ctx.tree, ctx.points
    c = tree.arrays["center"][node]
    r = tree.arrays["radius"][node]
    d = np.sqrt(sq_dist_rows(q.coords[pt], c))
    return d - r >= ctx.out["nn_dist"][pt]


def _is_leaf(ctx, node, pt, args):
    return ctx.tree.arrays["is_leaf"][node]


def _closer_inside(ctx, node, pt, args):
    tree, q = ctx.tree, ctx.points
    d = np.sqrt(sq_dist_rows(q.coords[pt], tree.arrays["vantage"][node]))
    return d < tree.arrays["tau"][node]


def _consider_vantage(ctx, node, pt, args):
    tree, q = ctx.tree, ctx.points
    cand_id = tree.arrays["vantage_id"][node]
    d = np.sqrt(sq_dist_rows(q.coords[pt], tree.arrays["vantage"][node]))
    better = (d < ctx.out["nn_dist"][pt]) & (cand_id != q.orig_ids[pt])
    rows = pt[better]
    ctx.out["nn_dist"][rows] = d[better]
    ctx.out["nn_id"][rows] = cand_id[better]


def _make_scan_bucket(bucket_coords: np.ndarray, bucket_ids: np.ndarray, leaf_size: int):
    def scan_bucket(ctx, node, pt, args):
        tree, q = ctx.tree, ctx.points
        start = tree.arrays["leaf_start"][node]
        count = tree.arrays["leaf_count"][node]
        p = q.coords[pt]
        mine = q.orig_ids[pt]
        for slot in range(leaf_size):
            valid = slot < count
            cand = np.minimum(start + slot, len(bucket_coords) - 1)
            d = np.sqrt(sq_dist_rows(p, bucket_coords[cand]))
            better = valid & (d < ctx.out["nn_dist"][pt]) & (bucket_ids[cand] != mine)
            rows = pt[better]
            ctx.out["nn_dist"][rows] = d[better]
            ctx.out["nn_id"][rows] = bucket_ids[cand[better]]

    return scan_bucket


def _declared_bodies(
    bucket_coords: np.ndarray, bucket_ids: np.ndarray, leaf_size: int
) -> Dict[str, Body]:
    """The callbacks above as declared bodies (what the per-point
    traversal inlines)."""
    dim = bucket_coords.shape[1]
    q = QueryRow()
    best = OutField("nn_dist")
    d = Var("d")
    vantage_d = Sqrt(SqNorm(q - NodeRow("vantage")))
    vantage, slot = NodeField("vantage_id", int), SlotField("ids", int)
    scan = LeafSlots(
        "leaf_start",
        "leaf_count",
        leaf_size,
        {"coords": bucket_coords, "ids": bucket_ids},
        (
            Let("d", Sqrt(SqNorm(q - SlotRow("coords")))),
            Store((d < best) & ne(slot, QueryId()), nn_dist=d, nn_id=slot),
        ),
    )
    return {
        "cannot_contain_better": Body(
            Sqrt(SqNorm(q - NodeRow("center"))) - NodeField("radius") >= best, dim
        ),
        "is_leaf": Body(NodeField("is_leaf", bool), dim),
        "closer_inside": Body(vantage_d < NodeField("tau"), dim),
        "consider_vantage": Body(
            (
                Let("d", vantage_d),
                Store((d < best) & ne(vantage, QueryId()), nn_dist=d, nn_id=vantage),
            ),
            dim,
        ),
        "scan_bucket": Body((scan,), dim),
    }


def build_vptree_app(
    data: np.ndarray,
    order: np.ndarray,
    leaf_size: int = 8,
    name: str = "vp",
) -> TraversalApp:
    """Assemble the VP benchmark (nearest other point in ``data``)."""
    data = np.asarray(data, dtype=np.float64)
    build = build_vptree(data, leaf_size=leaf_size)
    add_covering_balls(build, data)
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
                    UpdateRef("scan_bucket", reads=("leafdata",), cost=2.0 * dim * leaf_size)
                ),
                Return(),
            ),
            Seq(
                Update(UpdateRef("consider_vantage", reads=("hot",), cost=2.0 * dim)),
                If(
                    CondRef("closer_inside", reads=("hot",), cost=2.0 * dim),
                    Seq(Recurse(ChildRef("inside")), Recurse(ChildRef("outside"))),
                    Seq(Recurse(ChildRef("outside")), Recurse(ChildRef("inside"))),
                ),
            ),
        ),
    )
    spec = TraversalSpec(
        name=name,
        body=body,
        conditions={
            "cannot_contain_better": _cannot_contain_better,
            "is_leaf": _is_leaf,
            "closer_inside": _closer_inside,
        },
        updates={
            "consider_vantage": _consider_vantage,
            "scan_bucket": _make_scan_bucket(bucket_coords, bucket_ids, leaf_size),
        },
        annotations=frozenset({Annotation.CALLSETS_EQUIVALENT}),
        bodies=_declared_bodies(bucket_coords, bucket_ids, leaf_size),
    )

    n = len(order)

    def make_out() -> Dict[str, np.ndarray]:
        return {
            "nn_dist": np.full(n, np.inf, dtype=np.float64),
            "nn_id": np.full(n, -1, dtype=np.int64),
        }

    def brute_force() -> Dict[str, np.ndarray]:
        d = chunked_sq_dists(queries.coords, data)
        d[np.arange(n), queries.orig_ids] = np.inf
        nn = d.argmin(axis=1)
        return {
            "nn_dist": np.sqrt(d[np.arange(n), nn]),
            "nn_id": nn.astype(np.int64),
        }

    def check(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> None:
        np.testing.assert_allclose(
            got["nn_dist"], want["nn_dist"], rtol=1e-9, atol=1e-12
        )

    return TraversalApp(
        name=name,
        spec=spec,
        tree=tree,
        queries=queries,
        make_out=make_out,
        params={},
        brute_force=brute_force,
        check=check,
        expect_guided=True,
        visit_cost_scale=1.1,
        extras={"bucket_coords": bucket_coords, "bucket_ids": bucket_ids},
    )
