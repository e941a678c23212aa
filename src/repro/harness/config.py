"""Benchmark/input matrix and experiment scales (Section 6.1.2).

The paper evaluates 18 benchmark/input pairs — BH x {Plummer, Random}
and PC/kNN/NN/VP x {Covtype, Mnist, Random, Geocity} — each in sorted
and unsorted variants. Input sizes are scaled to laptop size; set the
``REPRO_SCALE`` environment variable to ``small`` (default), ``medium``
or ``large``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

#: thread counts swept by Figures 10/11.
CPU_THREAD_SWEEP: Tuple[int, ...] = (1, 2, 4, 8, 12, 16, 20, 24, 32)

#: benchmark key -> input names (Section 6.1.2).
BENCHMARKS: Dict[str, Tuple[str, ...]] = {
    "bh": ("plummer", "random"),
    "pc": ("covtype", "mnist", "random", "geocity"),
    "knn": ("covtype", "mnist", "random", "geocity"),
    "nn": ("covtype", "mnist", "random", "geocity"),
    "vp": ("covtype", "mnist", "random", "geocity"),
}


@dataclass(frozen=True)
class ExperimentScale:
    """Input sizes and app parameters for one scale tier."""

    name: str
    n_bodies: int
    n_points: int
    #: PC correlation radius for 7-d inputs / for 2-d geocity.
    pc_radius_7d: float
    pc_radius_2d: float
    knn_k: int
    leaf_size: int
    bh_leaf_size: int
    theta: float

    def pc_radius(self, input_name: str) -> float:
        return self.pc_radius_2d if input_name == "geocity" else self.pc_radius_7d


TINY = ExperimentScale(
    name="tiny",
    n_bodies=256,
    n_points=256,
    pc_radius_7d=0.30,
    pc_radius_2d=0.02,
    knn_k=4,
    leaf_size=4,
    bh_leaf_size=2,
    theta=0.5,
)

SMALL = ExperimentScale(
    name="small",
    n_bodies=4096,
    n_points=4096,
    pc_radius_7d=0.12,
    pc_radius_2d=0.01,
    knn_k=4,
    leaf_size=4,
    bh_leaf_size=1,
    theta=0.5,
)

MEDIUM = ExperimentScale(
    name="medium",
    n_bodies=16384,
    n_points=16384,
    pc_radius_7d=0.10,
    pc_radius_2d=0.008,
    knn_k=4,
    leaf_size=4,
    bh_leaf_size=1,
    theta=0.5,
)

LARGE = ExperimentScale(
    name="large",
    n_bodies=32768,
    n_points=32768,
    pc_radius_7d=0.30,
    pc_radius_2d=0.01,
    knn_k=4,
    leaf_size=8,
    bh_leaf_size=1,
    theta=0.5,
)

# The xlarge tier exists for wall-clock benchmarking (benchmarks/perf):
# big enough that per-element work dominates per-call overhead.  The 2-d
# correlation radius is half the geocity cluster sigma, and the small
# leaf bucket pushes work into tree *traversal* rather than leaf scans —
# a deep-traversal regime where per-step engine overhead, the thing the
# codegen engine removes, is the dominant cost.
XLARGE = ExperimentScale(
    name="xlarge",
    n_bodies=131072,
    n_points=131072,
    pc_radius_7d=0.30,
    pc_radius_2d=0.002,
    knn_k=4,
    leaf_size=2,
    bh_leaf_size=1,
    theta=0.5,
)

SCALES = {s.name: s for s in (TINY, SMALL, MEDIUM, LARGE, XLARGE)}


def scale_from_env(default: str = "small") -> ExperimentScale:
    """Pick the scale tier from ``REPRO_SCALE`` (default ``small``)."""
    name = os.environ.get("REPRO_SCALE", default).lower()
    if name not in SCALES:
        raise KeyError(f"REPRO_SCALE={name!r}; options: {sorted(SCALES)}")
    return SCALES[name]
