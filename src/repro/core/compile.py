"""Plan compilation: IR kernels -> linear programs of pre-resolved ops.

The op program is the code generator's input IR: the pass pipeline in
:mod:`repro.core.passes` lowers it into the step loop that
``engine="codegen"`` runs.  Interpreting the AST directly, as
``engine="interp"`` does, pays per-step ``isinstance`` dispatch,
per-``If`` dictionary lookups of condition callbacks by name, per-push
linear scans of the argument declarations, and a re-derivation of the
branch kind (vote vs. structural vs. predicated) from
``kernel.vote_conditions`` membership at every visit.  All of that is
*static* — it depends only on the kernel, never on the run — so this
module hoists it into a one-time compile:

* each kernel body (``Seq``/``If``/``Update``/``Continue``/
  ``PushGroup``) is flattened into a linear tuple of op records;
* every opaque reference is resolved to its bound callable once
  (conditions, updates, declaration-level arg rules, per-site
  overrides);
* every ``If`` is tagged with its branch kind up front
  (:data:`BRANCH_VOTE` for call-set-selecting conditions under
  lockstep, :data:`BRANCH_UNIFORM` for structure-only conditions,
  :data:`BRANCH_PREDICATE` otherwise);
* every ``PushGroup`` carries its push-order calls, pre-bound arg-rule
  appliers with target dtypes, and the field groups to charge;
* *dominated* field-group reads are pruned: liveness only shrinks
  along a kernel body (branches split it, ``Continue`` clears it), so
  a group already read by an earlier op of the same step is charged to
  a superset of the current warps — the executors' per-step charge
  dedup makes the second charge a guaranteed no-op, and the op
  program simply drops it.

Programs are memoized on the kernel instance via :func:`program_for`,
so a :class:`~repro.core.pipeline.CompiledTraversal` cached in the
shared :class:`~repro.core.plancache.PlanCache` carries its programs
with it — the service compiles once per session, the experiment
harness once per (benchmark, input, sorted?) triple.  A program is
tree-schema-agnostic: child names and field-group names are resolved
against the launch's tree and memory regions at bind time, exactly as
the interpreter did.

The executors' interpreters stay (``TraversalLaunch(engine="interp")``)
as the reference; the differential tests and ``benchmarks/perf`` assert
that the generated loops reproduce their simulated stats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.autoropes import Continue, IterativeKernel, PushGroup
from repro.core.ir import If, Seq, Stmt, TraversalSpec, Update

# -- branch kinds (pre-resolved per If) -------------------------------------

#: call-set-selecting condition under lockstep: per-warp majority vote,
#: one extra warp instruction for the vote op (Section 4.3).
BRANCH_VOTE = 0
#: structure-only condition: warp-uniform because the node is shared,
#: no vote needed.
BRANCH_UNIFORM = 1
#: per-lane predication (truncation-style conditions).
BRANCH_PREDICATE = 2

# -- op tags (class attributes, cheap int dispatch in the walkers) ----------

TAG_COND = 0
TAG_UPDATE = 1
TAG_PUSH = 2
TAG_CONTINUE = 3


@dataclass(frozen=True)
class ArgApplier:
    """One traversal-variant argument's pre-bound update rule.

    ``rule`` is ``None`` for carried-through values (no re-evaluation,
    no copy needed at push time); otherwise the bound arg-rule callback.
    """

    name: str
    rule: Optional[Callable]
    dtype: np.dtype


@dataclass(frozen=True)
class PushCall:
    """One child push site: structural child name + per-site overrides."""

    child: str
    overrides: Tuple[ArgApplier, ...] = ()


@dataclass(frozen=True)
class CondOp:
    """A pre-resolved two-way branch."""

    name: str
    fn: Callable
    cost: float
    reads: Tuple[str, ...]
    branch: int
    then_ops: Tuple
    #: ``None`` distinguishes a missing else (fall through live) from an
    #: empty one.
    else_ops: Optional[Tuple]

    tag = TAG_COND


@dataclass(frozen=True)
class UpdateOp:
    """A pre-resolved per-point update."""

    name: str
    fn: Callable
    cost: float
    reads: Tuple[str, ...]

    tag = TAG_UPDATE


@dataclass(frozen=True)
class PushGroupOp:
    """A pre-resolved run of child pushes.

    ``calls`` is already in *push order* (reversed call order, so LIFO
    pops preserve the recursive visit order).  ``variant_rules`` holds
    one :class:`ArgApplier` per traversal-variant argument, in
    declaration order.
    """

    calls: Tuple[PushCall, ...]
    variant_rules: Tuple[ArgApplier, ...]
    child_group: Tuple[str, ...]
    visits_null: bool
    #: any declaration rule or per-site override to evaluate at push
    #: time; ``False`` lets executors skip the representative-point and
    #: row-subset machinery entirely (carried args pass through).
    needs_rules: bool = False

    tag = TAG_PUSH


@dataclass(frozen=True)
class ContinueOp:
    """Clears liveness for the rest of the body (next stack pop)."""

    tag = TAG_CONTINUE


@dataclass(frozen=True)
class CompiledProgram:
    """A kernel body flattened into a linear tuple of pre-resolved ops."""

    ops: Tuple
    n_ops: int
    lockstep: bool

    def walk(self):
        """All ops, pre-order (for tests and logging)."""

        def rec(ops):
            for op in ops:
                yield op
                if op.tag == TAG_COND:
                    yield from rec(op.then_ops)
                    if op.else_ops is not None:
                        yield from rec(op.else_ops)

        yield from rec(self.ops)

    def op_histogram(self) -> dict:
        """Op counts by kind (and branch kind for conditions).

        Static shape facts for one compiled variant — the telemetry
        layer publishes them as per-plan gauges, so a recompile that
        changes the program (e.g. different dominated-read pruning) is
        visible in the metrics without diffing op tuples.
        """
        tag_names = {
            TAG_COND: "cond",
            TAG_UPDATE: "update",
            TAG_PUSH: "push",
            TAG_CONTINUE: "continue",
        }
        branch_names = {
            BRANCH_VOTE: "branch_vote",
            BRANCH_UNIFORM: "branch_uniform",
            BRANCH_PREDICATE: "branch_predicate",
        }
        hist: dict = {}
        for op in self.walk():
            kind = tag_names[op.tag]
            hist[kind] = hist.get(kind, 0) + 1
            if op.tag == TAG_COND:
                bk = branch_names[op.branch]
                hist[bk] = hist.get(bk, 0) + 1
        hist["total"] = self.n_ops
        return hist

    def op_table(self) -> Tuple[Tuple[int, str], ...]:
        """``(index, label)`` for every op, in :meth:`walk` order.

        The index is the op's position in the pre-order walk (the same
        enumeration :meth:`op_histogram` counts over); the label is
        :func:`op_label`'s engine-agnostic name, which the continuous
        kernel profiler uses to key per-op cost attribution so interp
        and codegen runs of the same kernel aggregate onto identical
        series.
        """
        return tuple((i, op_label(op)) for i, op in enumerate(self.walk()))


def op_label(op) -> str:
    """Engine-agnostic label for a compiled op *or* an AST statement.

    Both engines key profiler attribution by this label: the
    generated loops pass :class:`CondOp`/:class:`UpdateOp`/
    :class:`PushGroupOp`/:class:`ContinueOp` records, the interp
    reference passes the original :class:`~repro.core.ir.If`/
    :class:`~repro.core.ir.Update`/
    :class:`~repro.core.autoropes.PushGroup` statements — the same
    kernel position produces the same label either way, so hot-op
    rankings are comparable across engines.
    """
    tag = getattr(op, "tag", None)
    if tag == TAG_COND:
        return f"cond:{op.name}"
    if tag == TAG_UPDATE:
        return f"update:{op.name}"
    if tag == TAG_PUSH:
        return "push:" + "+".join(sorted(c.child for c in op.calls))
    if tag == TAG_CONTINUE:
        return "continue"
    if isinstance(op, If):
        return f"cond:{op.cond.name}"
    if isinstance(op, Update):
        return f"update:{op.fn.name}"
    if isinstance(op, PushGroup):
        return "push:" + "+".join(sorted(c.child.name for c in op.push_order))
    if isinstance(op, Continue):
        return "continue"
    raise TypeError(f"cannot label {type(op).__name__}")


def _applier(spec: TraversalSpec, arg_name: str, rule_name: Optional[str]) -> ArgApplier:
    decl = next(a for a in spec.args if a.name == arg_name)
    rule = spec.arg_rules[rule_name] if rule_name is not None else None
    return ArgApplier(name=arg_name, rule=rule, dtype=decl.dtype)


def _fresh(reads: Tuple[str, ...], seen: set) -> Tuple[str, ...]:
    """The field groups not already read by a dominating op this step."""
    kept = tuple(g for g in reads if g not in seen)
    seen.update(reads)
    return kept


def _flatten(kernel: IterativeKernel, stmt: Stmt, seen: set) -> Tuple:
    """Flatten ``stmt``; ``seen`` holds the field groups read by every
    op that *dominates* this point (earlier siblings and enclosing
    conditions — their live masks are supersets of this statement's, so
    re-charging those groups is a no-op the program can drop).  Branch
    bodies extend copies: a group read only inside one arm is not
    charged for the other arm's warps."""
    spec = kernel.spec
    if isinstance(stmt, Seq):
        ops: list = []
        for s in stmt.stmts:
            ops.extend(_flatten(kernel, s, seen))
        return tuple(ops)
    if isinstance(stmt, Continue):
        return (ContinueOp(),)
    if isinstance(stmt, If):
        cond = stmt.cond
        if cond.name in kernel.vote_conditions:
            branch = BRANCH_VOTE
        elif not cond.point_dependent:
            branch = BRANCH_UNIFORM
        else:
            branch = BRANCH_PREDICATE
        reads = _fresh(cond.reads, seen)
        return (
            CondOp(
                name=cond.name,
                fn=spec.conditions[cond.name],
                cost=cond.cost,
                reads=reads,
                branch=branch,
                then_ops=_flatten(kernel, stmt.then, set(seen)),
                else_ops=(
                    None
                    if stmt.orelse is None
                    else _flatten(kernel, stmt.orelse, set(seen))
                ),
            ),
        )
    if isinstance(stmt, Update):
        return (
            UpdateOp(
                name=stmt.fn.name,
                fn=spec.updates[stmt.fn.name],
                cost=stmt.fn.cost,
                reads=_fresh(stmt.fn.reads, seen),
            ),
        )
    if isinstance(stmt, PushGroup):
        calls = tuple(
            PushCall(
                child=call.child.name,
                overrides=tuple(
                    _applier(spec, arg_name, rule_name)
                    for arg_name, rule_name in call.arg_overrides
                ),
            )
            for call in stmt.push_order
        )
        variant_rules = tuple(
            _applier(spec, a.name, a.update) for a in spec.variant_args
        )
        needs_rules = any(r.rule is not None for r in variant_rules) or any(
            c.overrides for c in calls
        )
        return (
            PushGroupOp(
                calls=calls,
                variant_rules=variant_rules,
                child_group=_fresh((spec.child_field_group,), seen),
                visits_null=spec.visits_null_children,
                needs_rules=needs_rules,
            ),
        )
    raise TypeError(f"cannot compile {type(stmt).__name__}")


def compile_kernel(kernel: IterativeKernel) -> CompiledProgram:
    """Compile an iterative kernel's body into a linear op program."""
    ops = _flatten(kernel, kernel.body, set())
    prog = CompiledProgram(ops=ops, n_ops=0, lockstep=kernel.lockstep)
    n = sum(1 for _ in prog.walk())
    object.__setattr__(prog, "n_ops", n)
    return prog


def program_for(kernel: IterativeKernel) -> CompiledProgram:
    """The memoized compiled program for ``kernel``.

    Compiles on first use and stashes the program on the kernel
    instance, so plans cached in the shared
    :class:`~repro.core.plancache.PlanCache` amortize compilation
    across every launch of the session.
    """
    prog = kernel.__dict__.get("_compiled_program")
    if prog is None:
        prog = compile_kernel(kernel)
        object.__setattr__(kernel, "_compiled_program", prog)
    return prog
