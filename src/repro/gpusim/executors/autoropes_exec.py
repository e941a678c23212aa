"""Non-lockstep autoropes executor: per-thread rope stacks.

Each thread owns a rope stack and traverses independently (Fig. 6/7's
code, one instance per thread). Control re-converges at the top of the
traversal loop every iteration — the autoropes divergence benefit — but
as threads' traversals drift apart, each warp's 32 lanes load 32
*different* tree nodes per step, and the coalescing model charges the
resulting scattered transactions (Section 4.1's observation that
autoropes alone "inhibits memory coalescing").

The interpreter is a vectorized predicated AST walker: conditions are
evaluated for all live threads at once, both branch arms execute under
complementary masks (charging the SIMT both-sides issue cost), and
``Continue`` clears a thread's live bit for the rest of the body.

That interpreter (``engine="interp"``) is the reference engine.  The
default ``engine="codegen"`` runs the step loop that
:mod:`repro.core.passes` emits for this (kernel, launch facts) pair
and applies **frontier compaction** at warp granularity: when the
fraction of warps with any live thread drops below
``launch.compact_threshold``, the loop calls
:meth:`AutoropesExecutor._compact_groups` to gather whole warp groups
of stacks (plus point ids and invariant argument values) into compact
arrays.  Lanes never migrate between warps and rows keep their
original stack ids, so the coalescing, L2, and issue accounting are
bit-identical to the full-width run.
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


class AutoropesExecutor:
    """Runs an autoropes kernel with one stack per thread."""

    def __init__(self, launch: TraversalLaunch) -> None:
        if launch.kernel.lockstep:
            raise ValueError(
                "AutoropesExecutor runs non-lockstep kernels; use "
                "LockstepExecutor for lockstep variants"
            )
        self.L = launch
        self.kernel: IterativeKernel = launch.kernel
        self.spec = launch.kernel.spec
        self.tree = launch.tree
        self.ctx = launch.ctx
        dev = launch.device
        channels: Dict[str, Tuple[np.dtype, int]] = {"node": (np.int64, 1)}
        for a in self.spec.variant_args:
            channels[f"arg.{a.name}"] = (a.dtype, 1)
        self.stack = StackStorage(
            n_stacks=launch.n_threads,
            channels=channels,
            layout=launch.stack_layout,
            device=dev,
            allocator=launch.allocator
            if launch.stack_layout is not RopeStackLayout.SHARED
            else None,
            memory=launch.memory,
            stats=launch.stats,
            lanes_per_access=dev.warp_size,
            max_depth=launch.max_stack_depth,
        )
        self.ws = dev.warp_size
        self.pt = launch.thread_points()
        self._invariant_args = {
            a.name: np.full(launch.n_threads, a.initial, dtype=a.dtype)
            for a in self.spec.invariant_args
        }
        self._step = 0
        self._visits_per_point = np.zeros(launch.n_points, dtype=np.int64)
        self._warp_live_steps = np.zeros(launch.n_warps, dtype=np.int64)
        self._visit_log: Optional[List] = [] if launch.record_visits else None
        self._trace: Optional[StepTrace] = StepTrace() if launch.trace else None
        #: per-op cost attribution for sampled launches (None = off).
        self._prof = launch.op_profile
        #: original warp id of each current warp group (frontier
        #: compaction gathers whole groups; identity until then).
        self._warp_ids = np.arange(launch.n_warps, dtype=np.int64)
        self._compacted = False

    # -- memory helpers --------------------------------------------------

    def _warpify(self, arr: np.ndarray) -> np.ndarray:
        return arr.reshape(-1, self.ws)

    def _charge_groups(
        self,
        names: Tuple[str, ...],
        live: np.ndarray,
        node: np.ndarray,
        charged: Dict[str, np.ndarray],
    ) -> None:
        safe_node = None
        for name in names:
            seen = charged.setdefault(name, np.zeros(len(node), dtype=bool))
            to_charge = live & ~seen
            if not to_charge.any():
                continue
            if safe_node is None:
                safe_node = charged.get("__safe_node")
                if safe_node is None:
                    safe_node = np.maximum(node, 0)
                    charged["__safe_node"] = safe_node
            region = self.L.regions[name]
            addrs = region.addresses(safe_node)
            self.L.stats.bytes_requested += int(to_charge.sum()) * region.itemsize
            self.L.memory.warp_access(
                self._warpify(addrs),
                region.itemsize,
                self._warpify(to_charge),
                self._step,
            )
            seen |= to_charge

    # -- interpreter (engine="interp": the reference engine) ----------------

    def _interp(
        self,
        stmt: Stmt,
        live: np.ndarray,
        node: np.ndarray,
        args: Dict[str, np.ndarray],
        charged: Dict[str, np.ndarray],
    ) -> np.ndarray:
        if not live.any():
            return live
        if isinstance(stmt, Seq):
            for s in stmt.stmts:
                live = self._interp(s, live, node, args, charged)
            return live
        if isinstance(stmt, Continue):
            return np.zeros_like(live)
        if isinstance(stmt, If):
            self._charge_groups(stmt.cond.reads, live, node, charged)
            self.L.issue.issue(self._warpify(live), stmt.cond.cost)
            idx = np.nonzero(live)[0]
            sub = self.spec.eval_condition(
                stmt.cond,
                self.ctx,
                node[idx],
                self.pt[idx],
                {k: v[idx] for k, v in args.items()},
            )
            cond = np.zeros_like(live)
            cond[idx] = sub
            if self._prof is not None:
                self._prof.note(stmt, self.L.stats)
            then_live = self._interp(stmt.then, live & cond, node, args, charged)
            if stmt.orelse is not None:
                else_live = self._interp(
                    stmt.orelse, live & ~cond, node, args, charged
                )
            else:
                else_live = live & ~cond
            return then_live | else_live
        if isinstance(stmt, Update):
            self._charge_groups(stmt.fn.reads, live, node, charged)
            self.L.issue.issue(self._warpify(live), stmt.fn.cost)
            idx = np.nonzero(live)[0]
            self.spec.eval_update(
                stmt.fn,
                self.ctx,
                node[idx],
                self.pt[idx],
                {k: v[idx] for k, v in args.items()},
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
        self._charge_groups((spec.child_field_group,), live, node, charged)
        idx = np.nonzero(live)[0]
        sub_args = {k: v[idx] for k, v in args.items()}
        # Declaration-level arg rules: evaluated once per visit, at the
        # parent (the `dsq * 0.25` of Fig. 9, the `arg + c + 1` of Fig. 5).
        new_args: Dict[str, np.ndarray] = {}
        for a in spec.variant_args:
            if a.update is not None:
                val = spec.eval_arg_rule(a.update, self.ctx, node[idx], self.pt[idx], sub_args)
            else:
                val = sub_args[a.name]
            full = args[a.name].copy()
            full[idx] = val.astype(a.dtype, copy=False)
            new_args[a.name] = full
        for call in group.push_order:
            child = self.tree.child(call.child.name, node)
            push_args = dict(new_args)
            if call.arg_overrides:
                for arg_name, rule in call.arg_overrides:
                    val = spec.eval_arg_rule(
                        rule,
                        self.ctx,
                        node[idx],
                        self.pt[idx],
                        {k: v[idx] for k, v in new_args.items()},
                    )
                    decl = next(a for a in spec.args if a.name == arg_name)
                    full = push_args[arg_name].copy()
                    full[idx] = val.astype(decl.dtype, copy=False)
                    push_args[arg_name] = full
            if spec.visits_null_children:
                push_mask = live  # phantom entries pay pending updates
            else:
                push_mask = live & (child >= 0)
            self.L.issue.issue(self._warpify(live), 1.0)
            payload = {"node": child}
            payload.update(
                {f"arg.{k}": v for k, v in push_args.items()}
            )
            self.stack.push(push_mask, self._step, **payload)

    # -- frontier compaction -------------------------------------------------

    def _compact_groups(self, sel: np.ndarray) -> None:
        """Gather executor state down to the selected warp groups.

        The cold half of compaction: the generated loop inlines the
        cheap trigger check and calls back here for the gather."""
        self.stack.compact(sel)
        rows = (sel[:, None] * self.ws + np.arange(self.ws)).ravel()
        self.pt = self.pt[rows]
        self._invariant_args = {k: v[rows] for k, v in self._invariant_args.items()}
        self._warp_ids = self._warp_ids[sel]
        self._compacted = True

    # -- main loop -----------------------------------------------------------

    def run(self) -> LaunchResult:
        L = self.L
        spec = self.spec
        real = self.pt >= 0
        init = {"node": np.zeros(L.n_threads, dtype=np.int64)}
        for a in spec.variant_args:
            init[f"arg.{a.name}"] = np.full(L.n_threads, a.initial, dtype=a.dtype)
        init["node"][:] = self.tree.root
        self.stack.push(real, self._step, **init)

        if L.engine == "codegen":
            from repro.core.passes import step_loop_for

            step_loop_for(self, "autoropes")(self)
        else:
            self._run_interp()

        occ = occupancy_for(L.device, self.stack.shared_bytes_per_group)
        cm = CostModel(L.device)
        imbalance = cm.imbalance_factor(self._warp_live_steps)
        timing = cm.timing(L.stats, occ, imbalance)
        per_point = self._visits_per_point
        per_warp_longest = self._longest_member_per_warp(per_point)
        return LaunchResult(
            stats=L.stats,
            timing=timing,
            occupancy=occ,
            nodes_per_point=per_point,
            nodes_per_warp=self._warp_live_steps,
            longest_member_per_warp=per_warp_longest,
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
            live = self.stack.nonempty()
            popped = self.stack.pop(live, self._step)
            node = popped["node"]
            if validate:
                validate_popped_nodes(node, live, self.tree.n_nodes, self._step)
            args = {a.name: popped[f"arg.{a.name}"] for a in spec.variant_args}
            args.update(self._invariant_args)
            # Book-keeping: every popped rope to a real node is a node
            # visit (phantom null entries from the pseudo-tail
            # normalization are control, not visits).
            useful = live & (node >= 0)
            L.stats.node_visits += int(useful.sum())
            warp_live = self._warpify(live).any(axis=1)
            L.stats.warp_node_visits += int(warp_live.sum())
            self._warp_live_steps += warp_live
            np.add.at(self._visits_per_point, self.pt[useful], 1)
            if self._visit_log is not None:
                lidx = np.nonzero(useful)[0]
                self._visit_log.append((self.pt[lidx].copy(), node[lidx].copy()))
            if self._prof is not None:
                self._prof.sync(L.stats)
                self._prof.note_depth(node, useful)
            charged: Dict[str, np.ndarray] = {}
            trans_before = L.stats.global_transactions
            self._interp(self.kernel.body, live, node, args, charged)
            if self._trace is not None:
                self._trace.record(
                    int(warp_live.sum()),
                    int(useful.sum()),
                    L.stats.global_transactions - trans_before,
                )

    def _longest_member_per_warp(self, per_point: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.L.n_threads, dtype=np.int64)
        padded[: self.L.n_points] = per_point
        return padded.reshape(self.L.n_warps, self.ws).max(axis=1)
