"""Nearest Neighbor (NN) over an internal-point kd-tree.

"A variation of nearest neighbor search with a different implementation
of the kd-tree structure": every node stores one data point (the median
along the cycling split dimension), so the candidate update happens at
every visited node rather than only at leaves. **Guided**, two call
sets (near side first), annotated equivalent.

The pruning test is entry-style (checked at the child, not before the
call) so the function stays pseudo-tail-recursive: each node carries
its subtree bounding box, computed bottom-up after the build.
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
    Let,
    NodeField,
    NodeRow,
    OutField,
    QueryCoord,
    QueryId,
    QueryRow,
    Recurse,
    Return,
    Seq,
    SqNorm,
    Store,
    TraversalSpec,
    Update,
    UpdateRef,
    Var,
    clip,
    ne,
)
from repro.trees.kdtree import build_kdtree_points
from repro.trees.node import FieldGroup, RawTree
from repro.trees.linearize import linearize_left_biased

_F4 = 4


def add_subtree_bboxes(raw: RawTree) -> None:
    """Attach ``bbox_min``/``bbox_max`` arrays covering each subtree.

    ``build_kdtree_points`` assigns node ids in preorder, so children
    always have larger ids than their parent and one reverse sweep
    suffices.
    """
    n = raw.n_nodes
    d = raw.arrays["point"].shape[1]
    lo = raw.arrays["point"].copy()
    hi = raw.arrays["point"].copy()
    left, right = raw.children["left"], raw.children["right"]
    for node in range(n - 1, -1, -1):
        for c in (left[node], right[node]):
            if c >= 0:
                np.minimum(lo[node], lo[c], out=lo[node])
                np.maximum(hi[node], hi[c], out=hi[node])
    raw.arrays["bbox_min"] = lo
    raw.arrays["bbox_max"] = hi
    raw.groups = (
        FieldGroup("hot", d * _F4 + 2 * _F4 + 2 * d * _F4),
        FieldGroup("cold", 2 * _F4),
    )


def _cannot_contain_better(ctx, node, pt, args):
    tree, q = ctx.tree, ctx.points
    lo = tree.arrays["bbox_min"][node]
    hi = tree.arrays["bbox_max"][node]
    p = q.coords[pt]
    clamped = np.clip(p, lo, hi)
    return sq_dist_rows(p, clamped) >= ctx.out["nn_dist"][pt]


def _closer_to_left(ctx, node, pt, args):
    tree, q = ctx.tree, ctx.points
    dim = tree.arrays["split_dim"][node]
    val = tree.arrays["point"][node, dim]
    return q.coords[pt, dim] < val


def _update_node_point(ctx, node, pt, args):
    tree, q = ctx.tree, ctx.points
    cand_id = tree.arrays["point_id"][node]
    d = sq_dist_rows(q.coords[pt], tree.arrays["point"][node])
    better = (d < ctx.out["nn_dist"][pt]) & (cand_id != q.orig_ids[pt])
    rows = pt[better]
    ctx.out["nn_dist"][rows] = d[better]
    ctx.out["nn_id"][rows] = cand_id[better]


def _declared_bodies(dim: int) -> Dict[str, Body]:
    """The callbacks above as declared bodies (what the per-point
    traversal inlines)."""
    q = QueryRow()
    best = OutField("nn_dist")
    near = SqNorm(q - clip(q, NodeRow("bbox_min"), NodeRow("bbox_max")))
    split = NodeField("split_dim", int)
    d, cand = Var("d"), NodeField("point_id", int)
    return {
        "cannot_contain_better": Body(near >= best, dim),
        "closer_to_left": Body(
            QueryCoord(split) < NodeField("point", col=split), dim
        ),
        "update_node_point": Body(
            (
                Let("d", SqNorm(q - NodeRow("point"))),
                Store((d < best) & ne(cand, QueryId()), nn_dist=d, nn_id=cand),
            ),
            dim,
        ),
    }


def build_nn_app(
    data: np.ndarray,
    order: np.ndarray,
    name: str = "nn",
) -> TraversalApp:
    """Assemble the NN benchmark (nearest other point in ``data``)."""
    data = np.asarray(data, dtype=np.float64)
    raw = build_kdtree_points(data)
    add_subtree_bboxes(raw)
    tree = linearize_left_biased(raw)
    queries = QuerySet.from_order(data, order)
    dim = data.shape[1]

    body = Seq(
        If(CondRef("cannot_contain_better", reads=("hot",), cost=2.0 * dim), Return()),
        Update(UpdateRef("update_node_point", reads=("hot",), cost=2.0 * dim)),
        If(
            CondRef("closer_to_left", reads=("hot",), cost=2.0),
            Seq(Recurse(ChildRef("left")), Recurse(ChildRef("right"))),
            Seq(Recurse(ChildRef("right")), Recurse(ChildRef("left"))),
        ),
    )
    spec = TraversalSpec(
        name=name,
        body=body,
        conditions={
            "cannot_contain_better": _cannot_contain_better,
            "closer_to_left": _closer_to_left,
        },
        updates={"update_node_point": _update_node_point},
        annotations=frozenset({Annotation.CALLSETS_EQUIVALENT}),
        bodies=_declared_bodies(dim),
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
            "nn_dist": d[np.arange(n), nn],
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
        visit_cost_scale=1.0,
    )
