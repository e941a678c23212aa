"""Point Correlation (PC): the two-point correlation statistic.

For each point, count how many *other* points lie within a fixed
radius, by traversing a bounding-box kd-tree (Moore et al.'s n-point
correlation algorithm). The traversal (Fig. 4) truncates when the query
ball cannot intersect a node's bounding box, and scans leaf buckets —
an **unguided**, single-call-set traversal: children are always visited
left then right.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.base import QuerySet, TraversalApp, chunked_sq_dists
from repro.core.ir import (
    AddTo,
    Body,
    ChildRef,
    CondRef,
    If,
    LeafSlots,
    NodeField,
    NodeRow,
    Param,
    QueryId,
    QueryRow,
    Recurse,
    Return,
    Seq,
    SlotField,
    SlotRow,
    SqNorm,
    TraversalSpec,
    Update,
    UpdateRef,
    clip,
    ne,
)
from repro.trees.kdtree import build_kdtree_buckets
from repro.trees.linearize import linearize_left_biased


def _bbox_cannot_intersect(ctx, node, pt, args):
    """Truncation test: min squared distance from query to the node's
    bounding box exceeds the correlation radius.

    The gathered ``lo`` copy doubles as the output buffer for the clip
    and the difference: at millions of calls per launch the two saved
    temporaries are a measurable slice of the traversal.
    """
    tree, q = ctx.tree, ctx.points
    lo = tree.arrays["bbox_min"][node]
    hi = tree.arrays["bbox_max"][node]
    p = q.coords[pt]
    np.clip(p, lo, hi, out=lo)
    np.subtract(p, lo, out=lo)
    return np.einsum("ij,ij->i", lo, lo) > ctx.params["radius_sq"]


def _is_leaf(ctx, node, pt, args):
    return ctx.tree.arrays["is_leaf"][node]


def _declared_bodies(
    bucket_coords: np.ndarray, bucket_ids: np.ndarray, leaf_size: int
) -> Dict[str, Body]:
    """The callbacks above as declared bodies (what the per-point
    traversal inlines)."""
    dim = bucket_coords.shape[1]
    q = QueryRow()
    near = SqNorm(q - clip(q, NodeRow("bbox_min"), NodeRow("bbox_max")))
    hit = (SqNorm(SlotRow("coords") - q) <= Param("radius_sq")) & ne(
        SlotField("ids", int), QueryId()
    )
    scan = LeafSlots(
        "leaf_start",
        "leaf_count",
        leaf_size,
        {"coords": bucket_coords, "ids": bucket_ids},
        (AddTo("count", 1, when=hit),),
    )
    return {
        "cannot_correlate": Body(near > Param("radius_sq"), dim),
        "is_leaf": Body(NodeField("is_leaf", bool), dim),
        "count_bucket": Body((scan,), dim),
    }


def _make_count_bucket(bucket_coords: np.ndarray, bucket_ids: np.ndarray, leaf_size: int):
    # Pad the bucket arrays by one leaf so `start + slot` never needs
    # clamping; padded slots carry id -1 and are masked by the slot
    # validity test anyway, so the hit counts are unchanged.
    dim = bucket_coords.shape[1]
    pad_coords = np.vstack([bucket_coords, np.zeros((leaf_size, dim))])
    pad_ids = np.concatenate(
        [bucket_ids, np.full(leaf_size, -1, dtype=bucket_ids.dtype)]
    )

    def count_bucket(ctx, node, pt, args):
        tree, q = ctx.tree, ctx.points
        start = tree.arrays["leaf_start"][node]
        count = tree.arrays["leaf_count"][node]
        p = q.coords[pt]
        mine = q.orig_ids[pt]
        r_sq = ctx.params["radius_sq"]
        hits = np.zeros(len(node), dtype=np.int64)
        for slot in range(leaf_size):
            cand = start + slot
            diff = pad_coords[cand] - p
            d = np.einsum("ij,ij->i", diff, diff)
            hits += ((slot < count) & (d <= r_sq) & (pad_ids[cand] != mine)).astype(
                np.int64
            )
        np.add.at(ctx.out["count"], pt, hits)

    return count_bucket


def build_pointcorr_app(
    data: np.ndarray,
    order: np.ndarray,
    radius: float,
    leaf_size: int = 8,
    name: str = "pc",
) -> TraversalApp:
    """Assemble the PC benchmark over ``data`` with queries in ``order``."""
    data = np.asarray(data, dtype=np.float64)
    build = build_kdtree_buckets(data, leaf_size=leaf_size)
    tree = linearize_left_biased(build.tree)
    bucket_coords = np.ascontiguousarray(data[build.point_order])
    bucket_ids = build.point_order.copy()
    queries = QuerySet.from_order(data, order)
    dim = data.shape[1]

    body = Seq(
        If(CondRef("cannot_correlate", reads=("hot",), cost=2.0 * dim), Return()),
        If(
            CondRef("is_leaf", point_dependent=False, reads=("hot",), cost=1.0),
            Seq(
                Update(
                    UpdateRef(
                        "count_bucket", reads=("leafdata",), cost=2.0 * dim * leaf_size
                    )
                ),
                Return(),
            ),
            Seq(Recurse(ChildRef("left")), Recurse(ChildRef("right"))),
        ),
    )
    spec = TraversalSpec(
        name=name,
        body=body,
        conditions={
            "cannot_correlate": _bbox_cannot_intersect,
            "is_leaf": _is_leaf,
        },
        updates={
            "count_bucket": _make_count_bucket(bucket_coords, bucket_ids, leaf_size)
        },
        bodies=_declared_bodies(bucket_coords, bucket_ids, leaf_size),
    )

    params = {"radius_sq": float(radius) ** 2}
    n = len(order)

    def make_out() -> Dict[str, np.ndarray]:
        return {"count": np.zeros(n, dtype=np.int64)}

    def brute_force() -> Dict[str, np.ndarray]:
        d = chunked_sq_dists(queries.coords, data)
        within = d <= params["radius_sq"]
        counts = within.sum(axis=1)
        # exclude the query itself (distance zero to its own row).
        counts -= within[np.arange(n), queries.orig_ids].astype(np.int64)
        return {"count": counts.astype(np.int64)}

    def check(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> None:
        np.testing.assert_array_equal(got["count"], want["count"])

    return TraversalApp(
        name=name,
        spec=spec,
        tree=tree,
        queries=queries,
        make_out=make_out,
        params=params,
        brute_force=brute_force,
        check=check,
        expect_guided=False,
        visit_cost_scale=1.0,
        extras={"bucket_coords": bucket_coords, "bucket_ids": bucket_ids},
    )
