"""Lockstep executor: per-warp rope stacks with mask bit-vectors.

Implements Section 4.2 / Fig. 8: the whole warp pops one (node, mask)
entry per step, every lane whose mask bit is set works on that node,
truncated lanes clear their bit, and the children are pushed (reversed)
with the combined surviving mask — but only if the warp vote shows at
least one live bit. All lanes load the *same* node, so every partial-
node load coalesces into a single transaction; the price is that the
warp walks the union of its lanes' traversals (work expansion,
Section 6.3).

Guided kernels arrive here only with the call-set-equivalence
annotation applied; their call-set-selecting conditions are evaluated
per lane and resolved by a per-warp **majority vote** (Section 4.3), so
each warp follows a single dynamic call set while disagreeing lanes
simply tag along (their results are unaffected, only their truncation
may come later).

Two engines run the same kernel:

* ``engine="codegen"`` (default) runs the step loop that
  :mod:`repro.core.passes` emits for this (kernel, launch facts) pair
  and applies **frontier compaction**: once the fraction of non-empty
  warp stacks drops below ``launch.compact_threshold``, the loop calls
  :meth:`LockstepExecutor._compact_rows` to gather the live warps —
  stack rows, point grid, invariant argument values — into compact
  arrays and runs the long tail at frontier width.  Original warp ids
  travel with the rows, so stack addressing, issue accounting, and the
  L2 reuse model see exactly the traffic of the full-width run.
* ``engine="interp"`` walks the kernel AST once per step at full
  width; it is the reference the differential tests and
  ``benchmarks/perf`` hold the generated loop to, bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.autoropes import Continue, IterativeKernel, PushGroup
from repro.core.ir import If, Seq, Stmt, Update
from repro.gpusim.cost import CostModel
from repro.gpusim.executors.common import (
    LaunchResult,
    TraversalLaunch,
    validate_popped_nodes,
)
from repro.gpusim.kernel import occupancy_for
from repro.gpusim.stack import RopeStackLayout, StackStorage
from repro.gpusim.trace import StepTrace
from repro.gpusim.warp import majority_vote, pack_mask, unpack_mask


class LockstepExecutor:
    """Runs a lockstep kernel with one stack (and mask) per warp."""

    #: subclasses (the recursive baseline) relax the kernel-kind check
    #: and replace rope-stack accounting with call-frame accounting.
    _require_lockstep = True
    _stack_account = True

    def __init__(self, launch: TraversalLaunch) -> None:
        if self._require_lockstep and not launch.kernel.lockstep:
            raise ValueError("LockstepExecutor requires a lockstep kernel")
        self.L = launch
        self.kernel: IterativeKernel = launch.kernel
        self.spec = launch.kernel.spec
        self.tree = launch.tree
        self.ctx = launch.ctx
        dev = launch.device
        for a in self.spec.variant_args:
            if a.point_dependent:
                raise NotImplementedError(
                    f"variant argument {a.name!r} is point-dependent; "
                    "lockstep stores stack arguments per warp "
                    "(Section 5.2) and so requires warp-uniform values"
                )
        channels: Dict[str, Tuple[np.dtype, int]] = {
            "node": (np.int64, 1),
            "mask": (np.uint64, 1),
        }
        for a in self.spec.variant_args:
            channels[f"arg.{a.name}"] = (a.dtype, 1)
        self.stack = StackStorage(
            n_stacks=launch.n_warps,
            channels=channels,
            layout=launch.stack_layout,
            device=dev,
            allocator=launch.allocator
            if launch.stack_layout is not RopeStackLayout.SHARED
            else None,
            memory=launch.memory,
            stats=launch.stats,
            lanes_per_access=1,
            max_depth=launch.max_stack_depth,
            name="warp_rope_stack",
            account=self._stack_account,
        )
        self.ws = dev.warp_size
        self.pt_grid = launch.thread_points().reshape(launch.n_warps, self.ws)
        self.real = self.pt_grid >= 0
        self._invariant_vals = {
            a.name: np.full(launch.n_warps, a.initial, dtype=a.dtype)
            for a in self.spec.invariant_args
        }
        self._step = 0
        self._lane_useful = np.zeros((launch.n_warps, self.ws), dtype=np.int64)
        self._warp_len = np.zeros(launch.n_warps, dtype=np.int64)
        self._visit_log: Optional[List] = [] if launch.record_visits else None
        self._trace: Optional[StepTrace] = StepTrace() if launch.trace else None
        #: per-op cost attribution for sampled launches (None = off).
        self._prof = launch.op_profile
        #: original warp id of each current row; identity until frontier
        #: compaction gathers rows.  ``_compacted`` doubles as the "pass
        #: warp_ids to the issue accountant" switch so the uncompacted
        #: path pays no indirection.
        self._warp_ids = np.arange(launch.n_warps, dtype=np.int64)
        self._compacted = False

    # -- helpers -------------------------------------------------------------

    def _charge_node_groups(
        self,
        names: Tuple[str, ...],
        warp_on: np.ndarray,
        node: np.ndarray,
        charged: Dict[str, np.ndarray],
    ) -> None:
        """One warp-uniform load per group per warp per visit."""
        safe_node = None
        for name in names:
            seen = charged.get(name)
            if seen is None:
                seen = charged[name] = np.zeros(len(node), dtype=bool)
            to_charge = warp_on & ~seen
            if not to_charge.any():
                continue
            if safe_node is None:
                # The clamped node array is identical across groups and
                # across the ops of one step; memoize it per step.
                safe_node = charged.get("__safe_node")
                if safe_node is None:
                    safe_node = np.maximum(node, 0)
                    charged["__safe_node"] = safe_node
            region = self.L.regions[name]
            addrs = region.addresses(safe_node)[:, None]
            self.L.stats.bytes_requested += int(to_charge.sum()) * region.itemsize
            self.L.memory.warp_access(
                addrs, region.itemsize, to_charge[:, None], self._step
            )
            seen |= to_charge

    def _eval_cond_lanes(
        self,
        fn,
        live: np.ndarray,
        node: np.ndarray,
        args: Dict[str, np.ndarray],
    ) -> np.ndarray:
        """Evaluate a condition per (warp, lane) for live lanes."""
        out = np.zeros_like(live)
        widx, lidx = np.nonzero(live)
        pts = self.pt_grid[widx, lidx]
        nodes = node[widx]
        sub_args = {k: v[widx] for k, v in args.items()}
        res = fn(self.ctx, nodes, pts, sub_args)
        out[widx, lidx] = np.asarray(res, dtype=bool)
        return out

    # -- interpreter (engine="interp": the reference engine) ----------------

    def _interp(
        self,
        stmt: Stmt,
        live: np.ndarray,
        warp_on: np.ndarray,
        node: np.ndarray,
        args: Dict[str, np.ndarray],
        charged: Dict[str, np.ndarray],
    ) -> np.ndarray:
        """Interpret under (n_warps, ws) lane-liveness; returns updated
        liveness (Continue clears bits for the rest of the body)."""
        if not live.any():
            return live
        if isinstance(stmt, Seq):
            for s in stmt.stmts:
                live = self._interp(s, live, warp_on, node, args, charged)
            return live
        if isinstance(stmt, Continue):
            return np.zeros_like(live)
        if isinstance(stmt, If):
            self._charge_node_groups(stmt.cond.reads, live.any(axis=1), node, charged)
            self.L.issue.issue(live, stmt.cond.cost)
            cond = self._eval_cond_lanes(
                self.spec.conditions[stmt.cond.name], live, node, args
            )
            if stmt.cond.name in self.kernel.vote_conditions:
                # Dynamic single-call-set: majority vote per warp; all
                # live lanes follow the winning arm (Section 4.3).
                take_then = majority_vote(cond, live)
                self.L.issue.issue(live.any(axis=1)[:, None], 1.0)  # the vote op
                then_live = live & take_then[:, None]
                else_live = live & ~take_then[:, None]
            elif not stmt.cond.point_dependent:
                # Structure-only condition: warp-uniform because the
                # node is shared (no vote needed).
                take_then = majority_vote(cond, live)
                then_live = live & take_then[:, None]
                else_live = live & ~take_then[:, None]
            else:
                # Per-lane predication (truncation-style conditions).
                then_live = live & cond
                else_live = live & ~cond
            if self._prof is not None:
                # The condition's own cost ends here; branch bodies
                # attribute to their own ops.
                self._prof.note(stmt, self.L.stats)
            out_then = self._interp(stmt.then, then_live, warp_on, node, args, charged)
            if stmt.orelse is not None:
                out_else = self._interp(
                    stmt.orelse, else_live, warp_on, node, args, charged
                )
            else:
                out_else = else_live
            return out_then | out_else
        if isinstance(stmt, Update):
            self._charge_node_groups(stmt.fn.reads, live.any(axis=1), node, charged)
            self.L.issue.issue(live, stmt.fn.cost)
            widx, lidx = np.nonzero(live)
            if len(widx):
                self.spec.eval_update(
                    stmt.fn,
                    self.ctx,
                    node[widx],
                    self.pt_grid[widx, lidx],
                    {k: v[widx] for k, v in args.items()},
                )
            if self._prof is not None:
                self._prof.note(stmt, self.L.stats)
            return live
        if isinstance(stmt, PushGroup):
            self._push_group(stmt, live, node, args, charged)
            if self._prof is not None:
                self._prof.note(stmt, self.L.stats)
            return live
        raise TypeError(f"cannot interpret {type(stmt).__name__}")

    def _push_group(
        self,
        group: PushGroup,
        live: np.ndarray,
        node: np.ndarray,
        args: Dict[str, np.ndarray],
        charged: Dict[str, np.ndarray],
    ) -> None:
        spec = self.spec
        warp_on = live.any(axis=1)
        if not warp_on.any():
            return
        self._charge_node_groups((spec.child_field_group,), warp_on, node, charged)
        # The combined surviving mask (the Fig. 8 warp_and/ballot step).
        mask_words = pack_mask(live)
        rep = self._representative_pt(live)
        widx = np.nonzero(warp_on)[0]
        sub_args = {k: v[widx] for k, v in args.items()}
        new_args: Dict[str, np.ndarray] = {}
        for a in spec.variant_args:
            if a.update is not None:
                val = spec.eval_arg_rule(
                    a.update, self.ctx, node[widx], rep[widx], sub_args
                )
            else:
                val = sub_args[a.name]
            full = args[a.name].copy()
            full[widx] = val.astype(a.dtype, copy=False)
            new_args[a.name] = full
        for call in group.push_order:
            child = self.tree.child(call.child.name, node)
            push_args = dict(new_args)
            if call.arg_overrides:
                for arg_name, rule in call.arg_overrides:
                    val = spec.eval_arg_rule(
                        rule,
                        self.ctx,
                        node[widx],
                        rep[widx],
                        {k: v[widx] for k, v in new_args.items()},
                    )
                    decl = next(a for a in spec.args if a.name == arg_name)
                    full = push_args[arg_name].copy()
                    full[widx] = val.astype(decl.dtype, copy=False)
                    push_args[arg_name] = full
            if spec.visits_null_children:
                push_mask = warp_on
            else:
                push_mask = warp_on & (child >= 0)
            self.L.issue.issue(warp_on[:, None], 1.0)
            payload: Dict[str, np.ndarray] = {"node": child, "mask": mask_words}
            payload.update({f"arg.{k}": v for k, v in push_args.items()})
            self.stack.push(push_mask, self._step, **payload)

    # -- frontier compaction -------------------------------------------------

    def _compact_rows(self, sel: np.ndarray) -> None:
        """Gather executor state down to the selected warp rows (called
        from the generated loop when the compaction trigger fires)."""
        self.stack.compact(sel)
        self.pt_grid = self.pt_grid[sel]
        self.real = self.real[sel]
        self._warp_ids = self._warp_ids[sel]
        self._invariant_vals = {
            k: v[sel] for k, v in self._invariant_vals.items()
        }
        self._compacted = True

    def _on_visit(
        self, warp_on: np.ndarray, live: np.ndarray, node: np.ndarray
    ) -> None:
        """Per-visit hook for subclasses (no-op for lockstep proper)."""

    def _representative_pt(self, live: np.ndarray) -> np.ndarray:
        """First live lane's point per warp (for warp-uniform rules)."""
        first_lane = np.argmax(live, axis=1)
        rep = self.pt_grid[np.arange(live.shape[0]), first_lane]
        return np.maximum(rep, 0)

    # -- main loop -----------------------------------------------------------

    def run(self) -> LaunchResult:
        L = self.L
        spec = self.spec
        warp_real = self.real.any(axis=1)
        init: Dict[str, np.ndarray] = {
            "node": np.full(L.n_warps, self.tree.root, dtype=np.int64),
            "mask": pack_mask(self.real),
        }
        for a in spec.variant_args:
            init[f"arg.{a.name}"] = np.full(L.n_warps, a.initial, dtype=a.dtype)
        self.stack.push(warp_real, self._step, **init)

        if L.engine == "codegen":
            from repro.core.passes import step_loop_for

            step_loop_for(self, "lockstep")(self)
        else:
            self._run_interp()

        occ = occupancy_for(L.device, self.stack.shared_bytes_per_group)
        cm = CostModel(L.device)
        imbalance = cm.imbalance_factor(self._warp_len)
        timing = cm.timing(L.stats, occ, imbalance)
        # Table 1's "Avg. # Nodes" for lockstep rows: each point rides
        # along for its whole warp's traversal.
        nodes_per_point = np.repeat(self._warp_len, self.ws)[: L.n_points]
        longest_member = self._lane_useful.max(axis=1)
        return LaunchResult(
            stats=L.stats,
            timing=timing,
            occupancy=occ,
            nodes_per_point=nodes_per_point,
            nodes_per_warp=self._warp_len,
            longest_member_per_warp=longest_member,
            visits=self._visit_log,
            trace=self._trace,
        )

    def _run_interp(self) -> None:
        """Full-width AST-interpreting loop (the reference engine)."""
        L = self.L
        spec = self.spec
        need_guard = L.needs_guard
        validate = L.validate
        while self.stack.any_nonempty():
            self._step += 1
            L.stats.steps += 1
            if need_guard:
                L.guard(self._step, self.stack)
            warp_on = self.stack.nonempty()
            popped = self.stack.pop(warp_on, self._step)
            node = popped["node"]
            if validate:
                validate_popped_nodes(node, warp_on, self.tree.n_nodes, self._step)
            live = unpack_mask(popped["mask"], self.ws) & warp_on[:, None] & self.real
            args = {a.name: popped[f"arg.{a.name}"] for a in spec.variant_args}
            args.update(self._invariant_vals)
            useful = live & (node >= 0)[:, None]
            L.stats.node_visits += int(useful.sum())
            L.stats.warp_node_visits += int(warp_on.sum())
            self._warp_len += warp_on
            self._lane_useful += useful
            if self._visit_log is not None:
                widx, lidx = np.nonzero(useful)
                self._visit_log.append(
                    (self.pt_grid[widx, lidx].copy(), node[widx].copy())
                )
            self._on_visit(warp_on, live, node)
            if self._prof is not None:
                # Pop/loop costs since the previous op mark belong to
                # step overhead, not to the first op of this body.
                self._prof.sync(L.stats)
                self._prof.note_depth(
                    node, warp_on & (node >= 0), useful.sum(axis=1)
                )
            charged: Dict[str, np.ndarray] = {}
            trans_before = L.stats.global_transactions
            self._interp(self.kernel.body, live, warp_on, node, args, charged)
            if self._trace is not None:
                self._trace.record(
                    int(warp_on.sum()),
                    int(useful.sum()),
                    L.stats.global_transactions - trans_before,
                )
