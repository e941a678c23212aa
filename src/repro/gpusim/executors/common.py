"""Shared executor plumbing: launches, regions, results.

A :class:`TraversalLaunch` bundles everything a kernel run needs — the
compiled kernel, the linearized tree, the evaluation context, launch
geometry — and allocates simulated device regions for each tree field
group (the Section 5.2 layout step: "an identical linearized copy of
the tree is constructed ... and copied to the GPU's global memory").

:class:`LaunchResult` carries the counted events, the modeled timing,
and per-point / per-warp traversal statistics the harness turns into
the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.autoropes import IterativeKernel
from repro.core.ir import EvalContext
from repro.gpusim.cost import CostModel, KernelTiming
from repro.gpusim.device import DeviceConfig
from repro.gpusim.faults import BatchFaultPlan
from repro.gpusim.kernel import LaunchConfig, Watchdog, occupancy_for
from repro.gpusim.memory import DeviceAllocator, GlobalMemory, Region
from repro.gpusim.stack import RopeStackLayout
from repro.gpusim.stats import KernelStats
from repro.gpusim.trace import StepTrace
from repro.gpusim.warp import WarpIssueAccountant
from repro.trees.linearize import LinearTree

#: the execution engines a launch can name: ``"interp"`` walks the
#: kernel AST once per step (the reference); ``"codegen"`` runs the
#: step loop :mod:`repro.core.passes` emits from the kernel's op
#: program (:mod:`repro.core.compile`).
ENGINES = ("interp", "codegen")


@dataclass
class TraversalLaunch:
    """One kernel launch: kernel + data + geometry + device state."""

    kernel: IterativeKernel
    tree: LinearTree
    ctx: EvalContext
    n_points: int
    device: DeviceConfig
    stack_layout: RopeStackLayout = RopeStackLayout.INTERLEAVED_GLOBAL
    record_visits: bool = False
    #: record a per-step divergence/traffic trace (repro.gpusim.trace).
    trace: bool = False
    #: per-op/per-depth cost attribution collector for this launch
    #: (:class:`repro.telemetry.profile.LaunchProfile`), set by the
    #: dispatcher for sampled launches only.  ``None`` keeps the hot
    #: loops on a single is-None branch per op.
    op_profile: Optional[object] = None
    l2_enabled: bool = True
    max_stack_depth: int = 4096
    #: operational step budget for the main loop (None = unbounded);
    #: the service's resilience layer always sets one so a livelocked
    #: traversal trips the watchdog instead of hanging a batch.
    visit_budget: Optional[int] = None
    #: armed chaos faults for this launch (see repro.gpusim.faults).
    fault_plan: Optional[BatchFaultPlan] = None
    #: execution engine (one of :data:`ENGINES`): ``"codegen"`` runs
    #: source generated per (kernel, launch facts) by the pass pipeline
    #: in :mod:`repro.core.passes`, with frontier compaction;
    #: ``"interp"`` keeps the per-step AST interpreter as the reference.
    #: Simulated stats are bit-identical across the two.
    engine: str = "codegen"
    #: shared :class:`repro.core.plancache.PlanCache` owning generated
    #: codegen functions for service launches (so plan eviction and
    #: epoch bumps drop them); ``None`` falls back to a per-kernel memo.
    codegen_cache: Optional[object] = None
    #: the (plan key, variant, plan_epoch) identity the service caches
    #: this launch's generated function under.
    codegen_key: Optional[object] = None
    #: per-step defensive bookkeeping (popped-node bounds validation).
    #: ``None`` resolves to "on exactly when chaos faults are armed":
    #: corruption only enters through the chaos layer, so clean runs
    #: skip the per-step validation cost.
    validate: Optional[bool] = None
    #: frontier compaction trigger: when the fraction of non-empty
    #: stacks among current rows drops below this, the codegen engine
    #: gathers the active warps into compact arrays and runs subsequent
    #: steps at frontier width.  ``0`` disables compaction.  The high
    #: default keeps row width tracking the frontier closely — the
    #: gather is linear and amortized, while every step at excess width
    #: pays full-array costs (0.9 beat 0.5 on every measured workload).
    compact_threshold: float = 0.9

    # populated in __post_init__
    launch: LaunchConfig = field(init=False)
    stats: KernelStats = field(init=False)
    allocator: DeviceAllocator = field(init=False)
    memory: GlobalMemory = field(init=False)
    issue: WarpIssueAccountant = field(init=False)
    regions: Dict[str, Region] = field(init=False)

    def __post_init__(self) -> None:
        block = min(256, self.device.max_threads_per_block)
        block -= block % self.device.warp_size
        self.launch = LaunchConfig(
            n_points=self.n_points, device=self.device, block_size=max(
                block, self.device.warp_size
            )
        )
        self.stats = KernelStats()
        self.allocator = DeviceAllocator(self.device)
        self.regions = {}
        for group in self.tree.groups:
            self.regions[group.name] = self.allocator.alloc(
                f"tree.{group.name}", group.itemsize, self.tree.n_nodes
            )
        # Per-point result/point storage (copy-in/copy-out, Section 5.2):
        # charged as one region; traversal-time accesses to point state
        # stay in registers, so only the tree and stack traffic dominate.
        self.allocator.alloc("points", 64, self.n_points)
        self.memory = GlobalMemory(
            self.device, self.allocator, self.stats, l2_enabled=self.l2_enabled
        )
        valid_lanes = (
            (self.thread_points() >= 0)
            .reshape(self.n_warps, self.device.warp_size)
            .sum(axis=1)
        )
        self.issue = WarpIssueAccountant(
            self.device.warp_size, self.stats, valid_lanes=valid_lanes
        )
        self.watchdog = (
            Watchdog(self.visit_budget) if self.visit_budget is not None else None
        )
        if self.fault_plan is not None and not self.fault_plan.any_armed:
            self.fault_plan = None
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if not 0.0 <= self.compact_threshold <= 1.0:
            raise ValueError("compact_threshold must be in [0, 1]")
        if self.validate is None:
            self.validate = self.fault_plan is not None

    def guard(self, step: int, stack=None) -> None:
        """Per-step execution guard, called from executor main loops.

        Fires any armed chaos faults for this step, then lets the
        watchdog enforce the visit budget.  A no-op in the common case
        (no faults armed, no budget set) so offline harness runs pay
        nothing.
        """
        if self.fault_plan is not None:
            self.fault_plan.apply(self, step, stack)
        if self.watchdog is not None:
            self.watchdog.tick(step)

    @property
    def needs_guard(self) -> bool:
        """Whether :meth:`guard` can ever do anything this launch.

        Executors hoist this out of their main loops so clean runs
        (no chaos, no budget) pay zero per-step guard bookkeeping.
        """
        return self.fault_plan is not None or self.watchdog is not None

    @property
    def n_threads(self) -> int:
        return self.launch.n_threads

    @property
    def n_warps(self) -> int:
        return self.launch.n_warps

    def thread_points(self) -> np.ndarray:
        """Point index handled by each thread; padding threads -> -1."""
        pts = np.arange(self.n_threads, dtype=np.int64)
        pts[self.n_points :] = -1
        return pts


def validate_popped_nodes(
    node: np.ndarray, active: np.ndarray, n_nodes: int, step: int
) -> None:
    """Bounds-check node indices popped off a rope stack.

    Valid entries are ``-1`` (null child, when the spec visits them)
    through ``n_nodes - 1``; anything else means the stack was
    corrupted and the launch must abort before chasing the pointer.
    """
    bad = active & ((node < -1) | (node >= n_nodes))
    if bad.any():
        from repro.gpusim.stack import CorruptedRopeStack

        first = int(node[np.argmax(bad)])
        raise CorruptedRopeStack(
            f"popped node {first} outside tree bounds [0, {n_nodes}) "
            f"at step {step}: rope stack corrupted",
            step=step,
        )


@dataclass
class LaunchResult:
    """Everything measured from one simulated kernel run."""

    stats: KernelStats
    timing: KernelTiming
    occupancy: float
    #: nodes visited by each point's own traversal (useful work).
    nodes_per_point: np.ndarray
    #: warp-level traversal lengths (lockstep: nodes the warp visited;
    #: non-lockstep: the number of steps the warp stayed live).
    nodes_per_warp: np.ndarray
    #: longest member traversal per warp (Table 2's denominator).
    longest_member_per_warp: np.ndarray
    #: optional visit log: list of (point_idx array, node array) per
    #: step, only when record_visits was requested.
    visits: Optional[list] = None
    #: optional per-step divergence/traffic trace.
    trace: Optional["StepTrace"] = None

    @property
    def time_ms(self) -> float:
        return self.timing.time_ms

    @property
    def avg_nodes_per_point(self) -> float:
        if len(self.nodes_per_point) == 0:
            return 0.0
        return float(self.nodes_per_point.mean())

    def work_expansion_per_warp(self) -> np.ndarray:
        """Table 2's metric: lockstep warp nodes / longest member
        traversal, one value per warp."""
        denom = np.maximum(self.longest_member_per_warp, 1)
        return self.nodes_per_warp / denom

    def per_point_sequences(self) -> list:
        """Reconstruct each point's visit sequence from the visit log.

        Requires ``record_visits=True`` at launch. Returns a list of
        int64 arrays, one per point, in visit order.
        """
        if self.visits is None:
            raise ValueError("launch did not record visits")
        pts = (
            np.concatenate([p for p, _ in self.visits])
            if self.visits
            else np.empty(0, np.int64)
        )
        nodes = (
            np.concatenate([n for _, n in self.visits])
            if self.visits
            else np.empty(0, np.int64)
        )
        order = np.argsort(pts, kind="stable")
        pts, nodes = pts[order], nodes[order]
        n_points = len(self.nodes_per_point)
        bounds = np.searchsorted(pts, np.arange(n_points + 1))
        return [nodes[bounds[i] : bounds[i + 1]] for i in range(n_points)]
