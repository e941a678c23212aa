"""Scalar recursive reference interpreter.

Interprets the *original* recursive :class:`~repro.core.ir.TraversalSpec`
body, one point at a time, by actual recursion — the semantics every
transformed variant must preserve (Section 3.3). It is deliberately
simple and slow; tests and examples use it as the ground-truth oracle
for visit order and results.  The service's CPU backend and Section
4.4 similarity probe run the generated per-point traversal instead
(:func:`repro.core.passes.traversal_for`), which the tests hold
bit-identical to this interpreter.

Bulk runs (the CPU baseline's timing input and result arrays) come from
replaying the autoropes kernel vectorized — the transformation is
order-preserving, and the property tests in ``tests/`` verify exactly
that against this interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.ir import (
    EvalContext,
    If,
    Recurse,
    Return,
    Seq,
    Stmt,
    TraversalSpec,
    Update,
)
from repro.trees.linearize import LinearTree


@dataclass
class ReferenceRun:
    """Per-point visit sequences + the context whose ``out`` holds the
    results (built from a recorded launch or interpreter sweep)."""

    sequences: List[np.ndarray]
    ctx: EvalContext

    @property
    def visits_per_point(self) -> np.ndarray:
        return np.array([len(s) for s in self.sequences], dtype=np.int64)

    def stream_for_points(self, point_ids: np.ndarray) -> np.ndarray:
        """Concatenated visit stream for a subset of points, in order —
        the CPU cache model's input."""
        seqs = [self.sequences[int(p)] for p in point_ids]
        if not seqs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(seqs)


class RecursiveInterpreter:
    """Executes the recursive spec for single points (ground truth)."""

    def __init__(
        self,
        spec: TraversalSpec,
        tree: LinearTree,
        ctx: EvalContext,
        max_visits: int = 10_000_000,
    ) -> None:
        self.spec = spec
        self.tree = tree
        self.ctx = ctx
        self.max_visits = max_visits

    def run_point(self, pt: int) -> np.ndarray:
        """Traverse for one point; returns the visited node ids in
        recursive order and applies updates to ``ctx.out``."""
        visits: List[int] = []
        args0 = {a.name: np.array([a.initial], dtype=a.dtype) for a in self.spec.args}
        self._recurse(self.tree.root, pt, args0, visits)
        return np.array(visits, dtype=np.int64)

    def run_points(self, pts) -> List[np.ndarray]:
        return [self.run_point(int(p)) for p in pts]

    # -- recursion ---------------------------------------------------------

    def _recurse(
        self, node: int, pt: int, args: Dict[str, np.ndarray], visits: List[int]
    ) -> None:
        if node < 0 and not self.spec.visits_null_children:
            return
        if node >= 0:
            visits.append(node)
        if len(visits) > self.max_visits:
            raise RuntimeError("traversal exceeded max_visits; runaway spec?")
        state = _VisitState(args)
        self._exec(self.spec.body, node, pt, state, visits)

    def _exec(
        self,
        stmt: Stmt,
        node: int,
        pt: int,
        state: "_VisitState",
        visits: List[int],
    ) -> bool:
        """Execute one statement; returns False once the visit returned."""
        spec = self.spec
        n_arr = np.array([node], dtype=np.int64)
        p_arr = np.array([pt], dtype=np.int64)
        if isinstance(stmt, Seq):
            for s in stmt.stmts:
                if not self._exec(s, node, pt, state, visits):
                    return False
            return True
        if isinstance(stmt, Return):
            return False
        if isinstance(stmt, If):
            cond = spec.eval_condition(stmt.cond, self.ctx, n_arr, p_arr, state.args)
            if bool(cond[0]):
                return self._exec(stmt.then, node, pt, state, visits)
            if stmt.orelse is not None:
                return self._exec(stmt.orelse, node, pt, state, visits)
            return True
        if isinstance(stmt, Update):
            spec.eval_update(stmt.fn, self.ctx, n_arr, p_arr, state.args)
            return True
        if isinstance(stmt, Recurse):
            # Declaration-level arg rules are evaluated once per visit,
            # at the first recursive call (all calls of the visit share
            # the parent's new values — Fig. 5's `arg = arg + c + 1`).
            new_args = state.visit_args(spec, self.ctx, n_arr, p_arr)
            call_args = dict(new_args)
            for arg_name, rule in stmt.arg_overrides:
                val = spec.eval_arg_rule(rule, self.ctx, n_arr, p_arr, new_args)
                decl = next(a for a in spec.args if a.name == arg_name)
                call_args[arg_name] = val.astype(decl.dtype, copy=False)
            if node >= 0:
                child = int(self.tree.child(stmt.child.name, n_arr)[0])
            else:
                child = -1
            if child >= 0 or self.spec.visits_null_children:
                self._recurse(child, pt, call_args, visits)
            return True
        raise TypeError(f"cannot execute {type(stmt).__name__}")


class _VisitState:
    """Per-visit argument state with lazily-evaluated decl rules."""

    def __init__(self, args: Dict[str, np.ndarray]) -> None:
        self.args = args
        self._visit_args: Optional[Dict[str, np.ndarray]] = None

    def visit_args(self, spec, ctx, n_arr, p_arr) -> Dict[str, np.ndarray]:
        if self._visit_args is None:
            out = dict(self.args)
            for a in spec.args:
                if a.update is not None:
                    val = spec.eval_arg_rule(a.update, ctx, n_arr, p_arr, self.args)
                    out[a.name] = val.astype(a.dtype, copy=False)
            self._visit_args = out
        return self._visit_args
