"""Pseudo-tail-recursion: checking and systematic normalization.

Section 3.2: *"A pseudo-tail-recursive function is a function where all
recursive function calls are the immediate predecessors either of an
exit node of the function's control flow graph, or of another recursive
function call."* Autoropes applies directly only to such functions, but
*"any function with arbitrary recursive calls and control flow can be
systematically transformed to meet the criteria. At a high level, the
transformation proceeds by turning intervening code between a pair of
recursive calls into code that executes at the beginning of the latter
call's execution."* (Full details are in the authors' tech report
TR-ECE-13-09; this module implements the construction it sketches.)

Two passes establish the canonical pseudo-tail form the autoropes
rewriter consumes:

1. **Tail duplication** (:func:`tail_duplicate`): statements following a
   branch that contains recursive calls are duplicated into both arms,
   so that within every ``Seq`` the recursive calls form a contiguous
   suffix.
2. **Update push-down** (:func:`normalize_to_pseudo_tail`): an update
   sandwiched between two recursive calls is moved to the *beginning*
   of the later call's execution. A synthetic traversal argument
   ``__pend`` identifies, per call edge, which parent computation is
   owed, and ``__parent`` carries the parent node index the pushed-down
   update must run against; a dispatch prologue at function entry pays
   the debt before the truncation test runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from repro.core.callset import analyze_call_sets
from repro.core.ir import (
    ArgDecl,
    CondRef,
    If,
    Recurse,
    Return,
    Seq,
    Stmt,
    TraversalSpec,
    Update,
    UpdateRef,
)

PEND_ARG = "__pend"
PARENT_ARG = "__parent"
NULL_GUARD = "__node_is_null"


class NotPseudoTailRecursive(ValueError):
    """Raised when a body cannot be (or has not been) normalized."""


def is_pseudo_tail_recursive(spec_or_body) -> bool:
    """True iff every recursive call is followed only by recursive calls
    (or the function exit) on every CFG path."""
    return analyze_call_sets(spec_or_body).pseudo_tail_recursive


def _contains_recurse(stmt: Stmt) -> bool:
    return any(isinstance(s, Recurse) for s in stmt.walk())


def tail_duplicate(body: Stmt) -> Stmt:
    """Duplicate post-branch code into branch arms until recursive calls
    sit in ``Seq`` suffixes.

    ``If(c){r1}{r2}; r3`` becomes ``If(c){r1; r3}{r2; r3}`` — a standard
    tail-duplication step that leaves the set of CFG paths (and hence
    the call sets) unchanged.
    """

    def rewrite(stmts: Tuple[Stmt, ...]) -> Tuple[Stmt, ...]:
        out: List[Stmt] = []
        i = 0
        items = list(stmts)
        while i < len(items):
            s = items[i]
            rest = tuple(items[i + 1 :])
            if isinstance(s, Seq):
                items[i : i + 1] = list(s.stmts)
                continue
            if isinstance(s, If) and rest and _contains_recurse(s):
                then = Seq(*rewrite((s.then,) + rest))
                if s.orelse is not None:
                    orelse: Stmt = Seq(*rewrite((s.orelse,) + rest))
                else:
                    orelse = Seq(*rewrite(rest))
                out.append(If(cond=s.cond, then=then, orelse=orelse))
                return tuple(out)
            if isinstance(s, If):
                then = Seq(*rewrite((s.then,)))
                orelse2 = None if s.orelse is None else Seq(*rewrite((s.orelse,)))
                out.append(If(cond=s.cond, then=then, orelse=orelse2))
                i += 1
                continue
            out.append(s)
            if isinstance(s, Return):
                return tuple(out)  # unreachable tail
            i += 1
        return tuple(out)

    return Seq(*rewrite((body,)))


def _push_down_in_seq(
    stmts: Tuple[Stmt, ...],
    pending_updates: Dict[int, UpdateRef],
    next_pend_id: List[int],
) -> Tuple[Stmt, ...]:
    """Rewrite one Seq: hoist updates between Recurse statements into
    ``arg_overrides`` of the following call."""
    out: List[Stmt] = []
    i = 0
    stmts = tuple(stmts)
    while i < len(stmts):
        s = stmts[i]
        if isinstance(s, Recurse):
            # Gather any intervening updates before the *next* recurse.
            j = i + 1
            updates: List[UpdateRef] = []
            while j < len(stmts) and isinstance(stmts[j], Update):
                updates.append(stmts[j].fn)
                j += 1
            out.append(s)
            if updates:
                if j >= len(stmts) or not isinstance(stmts[j], Recurse):
                    raise NotPseudoTailRecursive(
                        "updates after the last recursive call cannot be "
                        "pushed down to a later sibling (Section 3.2's "
                        "transformation only moves code *between* calls)"
                    )
                if len(updates) > 1:
                    raise NotPseudoTailRecursive(
                        "multiple intervening updates between calls are "
                        "not supported; fuse them into one UpdateRef"
                    )
                pend_id = next_pend_id[0]
                next_pend_id[0] += 1
                pending_updates[pend_id] = updates[0]
                nxt = stmts[j]
                overrides = dict(nxt.arg_overrides)
                overrides[PEND_ARG] = f"__pend_rule_{pend_id}"
                overrides[PARENT_ARG] = "__parent_rule"
                stmts = (
                    stmts[: i + 1]
                    + (replace(nxt, arg_overrides=tuple(sorted(overrides.items()))),)
                    + stmts[j + 1 :]
                )
            i += 1
            continue
        if isinstance(s, If):
            then = Seq(
                *_push_down_in_seq(
                    s.then.stmts if isinstance(s.then, Seq) else (s.then,),
                    pending_updates,
                    next_pend_id,
                )
            )
            orelse = None
            if s.orelse is not None:
                orelse = Seq(
                    *_push_down_in_seq(
                        s.orelse.stmts if isinstance(s.orelse, Seq) else (s.orelse,),
                        pending_updates,
                        next_pend_id,
                    )
                )
            out.append(If(cond=s.cond, then=then, orelse=orelse))
            i += 1
            continue
        if isinstance(s, Seq):
            stmts = stmts[:i] + s.stmts + stmts[i + 1 :]
            continue
        out.append(s)
        i += 1
    return tuple(out)


def normalize_to_pseudo_tail(spec: TraversalSpec) -> TraversalSpec:
    """Return an equivalent pseudo-tail-recursive spec.

    Idempotent: already-pseudo-tail specs come back (structurally
    tail-duplicated but) semantically unchanged with no synthetic
    arguments. Raises :class:`NotPseudoTailRecursive` when code follows
    the *last* recursive call of a path, which the paper's push-down
    construction cannot relocate.
    """
    body = tail_duplicate(spec.body)
    if is_pseudo_tail_recursive(body):
        return replace_spec_body(spec, body)

    pending_updates: Dict[int, UpdateRef] = {}
    next_pend_id = [1]  # 0 means "no pending update"
    new_stmts = _push_down_in_seq(
        body.stmts if isinstance(body, Seq) else (body,),
        pending_updates,
        next_pend_id,
    )

    # Dispatch prologue: pay the parent's debt before anything else.
    prologue: List[Stmt] = []
    conditions = dict(spec.conditions)
    updates = dict(spec.updates)
    arg_rules = dict(spec.arg_rules)
    for pend_id, ref in pending_updates.items():
        cond_name = f"__pend_is_{pend_id}"
        upd_name = f"__deferred_{ref.name}_{pend_id}"
        conditions[cond_name] = _make_pend_check(pend_id)
        updates[upd_name] = _make_deferred_update(spec.updates[ref.name])
        arg_rules[f"__pend_rule_{pend_id}"] = _make_const_rule(pend_id)
        prologue.append(
            If(
                cond=CondRef(cond_name, point_dependent=False, cost=1.0),
                then=Update(UpdateRef(upd_name, reads=ref.reads, cost=ref.cost)),
            )
        )
    arg_rules["__parent_rule"] = _parent_rule
    arg_rules["__pend_zero"] = _make_const_rule(0)

    # Every call site that does not explicitly set __pend clears it.
    def clear_pend(stmt: Stmt) -> Stmt:
        if isinstance(stmt, Recurse):
            overrides = dict(stmt.arg_overrides)
            overrides.setdefault(PEND_ARG, "__pend_zero")
            return replace(stmt, arg_overrides=tuple(sorted(overrides.items())))
        if isinstance(stmt, Seq):
            return Seq(*[clear_pend(s) for s in stmt.stmts])
        if isinstance(stmt, If):
            return If(
                cond=stmt.cond,
                then=clear_pend(stmt.then),
                orelse=None if stmt.orelse is None else clear_pend(stmt.orelse),
            )
        return stmt

    # Null guard: recursive calls now also "visit" null children as
    # phantom entries, so a pending update owed via a missing sibling is
    # still paid; the guard truncates the phantom right after the
    # prologue ran.
    conditions[NULL_GUARD] = _null_node_check
    null_guard = If(
        cond=CondRef(NULL_GUARD, point_dependent=False, cost=1.0),
        then=Return(),
    )
    new_body = clear_pend(Seq(*prologue, null_guard, Seq(*new_stmts)))
    if not is_pseudo_tail_recursive(new_body):
        raise NotPseudoTailRecursive(
            "normalization failed to establish pseudo-tail-recursion; "
            "the body has control flow after recursive calls"
        )
    new_args = spec.args + (
        ArgDecl(PEND_ARG, 0.0, update=None, dtype=np.dtype(np.float64)),
        ArgDecl(PARENT_ARG, -1.0, update="__parent_rule", dtype=np.dtype(np.float64)),
    )
    # __pend must be variant (it changes per edge) even though its
    # declaration-level rule is "no change": mark it variant by giving
    # it an identity rule.
    arg_rules["__pend_keep"] = _keep_pend_rule
    new_args = tuple(
        replace(a, update="__pend_keep") if a.name == PEND_ARG else a
        for a in new_args
    )
    return TraversalSpec(
        name=spec.name,
        body=new_body,
        args=new_args,
        conditions=conditions,
        updates=updates,
        arg_rules=arg_rules,
        annotations=spec.annotations,
        child_field_group=spec.child_field_group,
        visits_null_children=True,
        bodies=spec.bodies,
    )


def replace_spec_body(spec: TraversalSpec, body: Stmt) -> TraversalSpec:
    """A copy of ``spec`` with a different body (re-numbering sites)."""
    return TraversalSpec(
        name=spec.name,
        body=body,
        args=spec.args,
        conditions=spec.conditions,
        updates=spec.updates,
        arg_rules=spec.arg_rules,
        annotations=spec.annotations,
        child_field_group=spec.child_field_group,
        visits_null_children=spec.visits_null_children,
        bodies=spec.bodies,
    )


# -- synthetic callback factories (module-level for picklability) -----------


def _make_pend_check(pend_id: int):
    def check(ctx, node, pt, args):
        return args[PEND_ARG].astype(np.int64) == pend_id

    return check


def _make_deferred_update(original):
    def deferred(ctx, node, pt, args):
        parent = args[PARENT_ARG].astype(np.int64)
        original(ctx, parent, pt, args)

    return deferred


def _make_const_rule(value: float):
    def rule(ctx, node, pt, args):
        return np.full(len(node), float(value))

    return rule


def _parent_rule(ctx, node, pt, args):
    return node.astype(np.float64)


def _null_node_check(ctx, node, pt, args):
    return node < 0


def _keep_pend_rule(ctx, node, pt, args):
    return args[PEND_ARG]
