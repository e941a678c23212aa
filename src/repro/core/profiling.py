"""Run-time traversal-similarity profiling (Section 4.4).

Point sorting cannot be automated semantics-agnostically, but *whether
the points are sorted* can be detected at run time: the paper adopts Jo
and Kulkarni's method of "drawing several samples of neighboring points
from the set of points and seeing whether their traversals are
similar". If they are, the warp-level union of traversals will stay
close to each member's own traversal, and the lockstep variant is
chosen; otherwise the non-lockstep variant runs.

This module is deliberately decoupled from any particular interpreter:
callers supply ``visit_fn(point_index) -> visited node ids``: the
service passes the plan's generated per-point traversal
(:func:`repro.core.passes.traversal_for`), tests and examples
:meth:`repro.cpusim.recursive.RecursiveInterpreter.run_point`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class TraversalSimilarity:
    """Result of sampling neighboring points' traversals."""

    mean_jaccard: float
    min_jaccard: float
    n_samples: int
    #: decision threshold the sampler was configured with.
    threshold: float

    @property
    def recommend_lockstep(self) -> bool:
        """True when neighboring traversals overlap enough that the
        lockstep work expansion will stay small."""
        return self.mean_jaccard >= self.threshold


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard similarity of two visited-node-id sets."""
    sa, sb = np.unique(a), np.unique(b)
    if len(sa) == 0 and len(sb) == 0:
        return 1.0
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    union = len(sa) + len(sb) - inter
    return inter / union


def sample_similarity(
    visit_fn: Callable[[int], np.ndarray],
    n_points: int,
    n_samples: int = 8,
    neighbor_distance: int = 1,
    threshold: float = 0.5,
    seed: int = 7,
) -> TraversalSimilarity:
    """Estimate traversal similarity of *adjacent* points.

    Adjacency is positional: after sorting, neighboring indices land in
    the same warp, so index-neighbors are exactly the points whose
    traversals lockstep will fuse.

    Parameters
    ----------
    visit_fn:
        maps a point index to the array of node ids its traversal visits.
    n_points:
        size of the point set being sampled.
    n_samples:
        how many neighbor pairs to draw.
    neighbor_distance:
        index distance between the pair's members (1 = adjacent).
    threshold:
        mean Jaccard above which lockstep is recommended.
    """
    if n_points < 2:
        raise ValueError("need at least two points to sample pairs")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    rng = np.random.default_rng(seed)
    hi = n_points - neighbor_distance
    if hi <= 0:
        raise ValueError("neighbor_distance too large for the point set")
    firsts = rng.integers(0, hi, size=n_samples)
    sims = []
    for i in firsts:
        a = visit_fn(int(i))
        b = visit_fn(int(i + neighbor_distance))
        sims.append(jaccard(a, b))
    arr = np.array(sims, dtype=np.float64)
    return TraversalSimilarity(
        mean_jaccard=float(arr.mean()),
        min_jaccard=float(arr.min()),
        n_samples=n_samples,
        threshold=threshold,
    )
