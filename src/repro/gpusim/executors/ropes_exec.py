"""Stackless executor over statically preinstalled ropes.

The hand-coded baseline autoropes generalizes (Section 3.1): ropes are
installed into the tree by a preprocessing pass (:mod:`repro.trees
.ropes`), and each thread traverses by following either the descend
pointer (first child, ``n + 1`` in the preorder layout) or the rope —
no stack, no stack traffic. The trade-offs the paper describes fall out
directly:

* it only works for **unguided** traversals (one canonical order — a
  guided traversal would need multiple rope sets and application
  knowledge to choose between them);
* it requires preprocessing the tree (``install_ropes``);
* in exchange, per-visit overhead drops below autoropes (whose rope
  stack costs pushes and pops), quantifying the "slightly more
  overhead than the hand-coded version (due to stack manipulation)"
  the paper concedes for its general transformation.

The stackless loop is bespoke (no rope stack, a descend scratch
instead of pushes), so the pass pipeline emits no step loop for it:
this executor always runs its own full-width AST-interpreting loop,
whichever engine the launch names.  It is the paper's hand-written
baseline, reached by the tests, the ropes ablation benchmark and an
example, never by the service.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.autoropes import PushGroup
from repro.gpusim.cost import CostModel
from repro.gpusim.executors.autoropes_exec import AutoropesExecutor
from repro.gpusim.executors.common import LaunchResult, TraversalLaunch
from repro.gpusim.kernel import occupancy_for
from repro.trees.ropes import first_children, install_ropes


class StaticRopesExecutor(AutoropesExecutor):
    """Per-thread stackless traversal via preinstalled ropes."""

    def __init__(self, launch: TraversalLaunch) -> None:
        super().__init__(launch)
        kernel = launch.kernel
        if not kernel.analysis.unguided:
            raise ValueError(
                "static ropes require an unguided traversal (a single "
                "canonical order); guided algorithms need application-"
                "specific rope sets, which is the point of autoropes"
            )
        if kernel.spec.variant_args:
            raise ValueError(
                "static ropes cannot carry traversal-variant arguments "
                "(there is no stack to put them on); derive them from "
                "node payload instead"
            )
        # Preprocessing pass (the cost the paper's approach avoids).
        if "rope" not in self.tree.arrays:
            install_ropes(self.tree)
        self._rope = self.tree.arrays["rope"]
        self._first_child = first_children(self.tree)
        # Disable the (unused) rope stack's accounting.
        self.stack.account = False
        self._descend = np.zeros(launch.n_threads, dtype=bool)

    def _push_group(self, group: PushGroup, live, node, args, charged) -> None:
        """Reaching the push point means 'visit my children': in the
        stackless scheme that is a descend to the first child."""
        self._charge_groups((self.spec.child_field_group,), live, node, charged)
        self.L.issue.issue(self._warpify(live), 1.0)
        has_child = self._first_child[np.maximum(node, 0)] >= 0
        self._descend |= live & has_child

    # -- main loop -----------------------------------------------------------

    def run(self) -> LaunchResult:
        L = self.L
        real = self.pt >= 0
        node = np.full(L.n_threads, -1, dtype=np.int64)
        node[real] = self.tree.root
        active = real.copy()

        self._loop_interp(node, active)

        occ = occupancy_for(L.device, 0)
        cm = CostModel(L.device)
        imbalance = cm.imbalance_factor(self._warp_live_steps)
        timing = cm.timing(L.stats, occ, imbalance)
        per_point = self._visits_per_point
        return LaunchResult(
            stats=L.stats,
            timing=timing,
            occupancy=occ,
            nodes_per_point=per_point,
            nodes_per_warp=self._warp_live_steps,
            longest_member_per_warp=self._longest_member_per_warp(per_point),
            visits=self._visit_log,
            trace=self._trace,
        )

    def _loop_interp(self, node: np.ndarray, active: np.ndarray) -> None:
        """Full-width AST-interpreting loop (the only one it has)."""
        L = self.L
        need_guard = L.needs_guard
        args = dict(self._invariant_args)
        while active.any():
            self._step += 1
            L.stats.steps += 1
            if need_guard:
                L.guard(self._step)  # stackless: watchdog/faults, no stack hook
            L.stats.node_visits += int(active.sum())
            warp_live = self._warpify(active).any(axis=1)
            L.stats.warp_node_visits += int(warp_live.sum())
            self._warp_live_steps += warp_live
            np.add.at(self._visits_per_point, self.pt[active], 1)
            if self._visit_log is not None:
                idx = np.nonzero(active)[0]
                self._visit_log.append((self.pt[idx].copy(), node[idx].copy()))
            if self._trace is not None:
                trans_before = L.stats.global_transactions

            charged: Dict[str, np.ndarray] = {}
            self._descend[:] = False
            self._interp(self.kernel.body, active, node, args, charged)

            # Next node: first child when descending, rope otherwise.
            # The rope lives in the child-pointer record, so reading it
            # is covered by the cold-group charge of the visit.
            nxt = np.where(
                self._descend,
                self._first_child[np.maximum(node, 0)],
                self._rope[np.maximum(node, 0)],
            )
            self.L.issue.issue(self._warpify(active), 1.0)
            node = np.where(active, nxt, -1)
            if self._trace is not None:
                self._trace.record(
                    int(warp_live.sum()),
                    int(active.sum()),
                    L.stats.global_transactions - trans_before,
                )
            active = active & (node >= 0)
