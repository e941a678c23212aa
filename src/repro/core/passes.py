"""Transformation-pass registry and source-emission backends.

The paper's system is a source-to-source compiler: mechanical,
composable transformations take a recursive traversal to GPU form.
This module gives the reproduction the same architecture for its *own*
backends: every code-emitting path in the repo — the Fig. 4-8
pseudocode renderers, the scalar per-point Python backend, and the
``engine="codegen"`` vectorized NumPy loop generator — runs through one
registry of declared transformation passes (modeled on dace's
``GPUTransformMap``/``GPUTransformSubgraph``: each pass declares its
properties, a ``can_apply`` precondition, and an ``apply`` rewrite).

The codegen pipeline lowers a :class:`~repro.core.compile.
CompiledProgram` into an annotated op tree and emits standalone source
for the executor's whole per-step loop:

* conditions are inlined as direct calls to the pre-bound callables,
  with a dense-grid evaluation heuristic baked in (evaluate the whole
  lane grid and mask when nearly every lane is live);
* branch-kind dispatch (vote / warp-uniform / predicate) is resolved at
  emit time — each ``If`` becomes exactly the code its kind needs;
* consecutive field-group loads are fused: loads issued under provably
  equal live masks share one gather index computation, one
  ``to_charge`` mask, one ``sum()`` and a single combined
  ``bytes_requested`` update.  The *access sequence* into the memory
  model is preserved verbatim — the L2 reuse window and its EMA are
  order-sensitive, and bit-identical simulated stats are the contract
  (the fusion-soundness framing follows Sakka et al., arXiv:1904.07061:
  liveness only changes at branch merges and ``Continue``, so loads
  between those points execute under identical masks);
* frontier compaction, the stuck-warp guard, popped-node validation,
  tracing, profiling and the visit log are emitted *only when the plan
  enables them* — a clean launch's loop contains no dead branches;
* cold paths (the compaction gather, the chaos guard) call back into
  the executor's audited helpers instead of being re-implemented.

The generated function is ``exec``-compiled once and memoized per
(kernel instance, loop facts digest); the service additionally caches
it in the shared :class:`~repro.core.plancache.PlanCache` keyed by
(plan key, variant, plan epoch, device digest) so ``refresh_plan``
eviction and epoch bumps make a stale function unservable.

Differential testing is the safety net: ``tests/test_codegen_engine.py``
and ``tests/test_engine_equivalence.py`` prove codegen and interp produce
bit-identical simulated stats, traces, visit logs and outputs on all
five benchmarks, with and without chaos, and
``tests/test_property_random_traversals.py`` proves it on random trees
across the loop-facts axes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.autoropes import Continue, IterativeKernel, PushGroup
from repro.core.compile import (
    BRANCH_PREDICATE,
    BRANCH_UNIFORM,
    BRANCH_VOTE,
    TAG_COND,
    TAG_CONTINUE,
    TAG_PUSH,
    TAG_UPDATE,
    program_for,
)
from repro.core.ir import (
    AddTo,
    And,
    BinOp,
    BodyStmt,
    Compare,
    Const,
    Expr,
    If,
    LeafSlots,
    Let,
    Max,
    Min,
    NodeField,
    NodeRow,
    OutField,
    Param,
    QueryCoord,
    QueryId,
    QueryRow,
    Recurse,
    Return,
    Seq,
    SlotField,
    SlotRow,
    SqNorm,
    Sqrt,
    Stmt,
    Store,
    TopKInsert,
    TraversalSpec,
    Update,
    Var,
)

_INDENT = "    "

#: below this many warps (lockstep stack rows, autoropes warp groups)
#: the frontier-compaction gather costs more than it saves; the
#: emitted loops carry it as a literal.
MIN_COMPACT_WARPS = 8

#: optional observer called with ``(name, source)`` every time a loop
#: body is emitted — the CLI's ``--dump-source`` hangs a writer here.
dump_sink: Optional[Callable[[str, str], None]] = None


class SourceWriter:
    """Indentation-managed line accumulator shared by every backend."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0
        self._fresh = 0

    def line(self, text: str = "") -> None:
        self.lines.append(_INDENT * self.depth + text if text else "")

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        self.depth -= 1

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    def source(self) -> str:
        return "\n".join(self.lines)


# -- pass registry (the dace-style declared-transformation model) -----------


class Property:
    """A declared, type-checked pass property (dace ``Property`` lite).

    Declared as class attributes on a pass; instances get per-object
    values with the declared default, and assignments are type-checked
    against ``dtype``.
    """

    def __init__(self, desc: str = "", dtype: type = bool, default=None):
        self.desc = desc
        self.dtype = dtype
        self.default = default
        self.name = ""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj.__dict__.get(self.name, self.default)

    def __set__(self, obj, value) -> None:
        if value is not None and not isinstance(value, self.dtype):
            raise TypeError(
                f"property {self.name!r} expects {self.dtype.__name__}, "
                f"got {type(value).__name__}"
            )
        obj.__dict__[self.name] = value


#: registration order defines pipeline order.
PASS_REGISTRY: Dict[str, type] = {}


def register_pass(cls):
    """Class decorator: auto-register a pass under its class name."""
    PASS_REGISTRY[cls.__name__] = cls
    return cls


class EmitPass:
    """Base transformation pass: pattern-match (``can_apply``) then
    rewrite (``apply``) an :class:`EmitUnit` in place."""

    @classmethod
    def properties(cls) -> Dict[str, Property]:
        out: Dict[str, Property] = {}
        for klass in reversed(cls.__mro__):
            for name, val in vars(klass).items():
                if isinstance(val, Property):
                    out[name] = val
        return out

    def can_apply(self, unit: "EmitUnit") -> bool:
        return True

    def apply(self, unit: "EmitUnit") -> None:
        raise NotImplementedError


# -- loop facts (the specialization key) -------------------------------------


@dataclass(frozen=True)
class LoopFacts:
    """Everything the emitted loop is specialized on.

    Two launches with equal facts (and the same kernel) share one
    generated function; anything runtime-variable but structurally
    inert (the compaction threshold value, region base addresses, the
    warp size) is read from the executor in the generated prelude
    instead of being baked in.
    """

    kind: str  # "lockstep" | "autoropes"
    compact: bool
    need_guard: bool
    validate: bool
    trace: bool
    prof: bool
    visit_log: bool
    on_visit: bool
    device: str
    #: warp size, baked into the source (shift/mask lane arithmetic).
    ws: int = 32
    #: rope-stack layout value ("interleaved_global" | ...): the
    #: inlined push/pop accounting is layout-specialized.
    layout: str = "interleaved_global"
    #: whether stack traffic is accounted at all (the recursive
    #: baselines charge call frames instead).
    account: bool = True
    #: coalescing segment size and its shift (None when not a power of
    #: two) — the inlined memory accounting bakes the segment math.
    #: Redundant with ``device`` in the digest, but needed at emit time.
    seg_bytes: int = 128
    seg_shift: Optional[int] = 7

    def digest(self) -> tuple:
        return (
            self.kind,
            self.compact,
            self.need_guard,
            self.validate,
            self.trace,
            self.prof,
            self.visit_log,
            self.on_visit,
            self.device,
            self.ws,
            self.layout,
            self.account,
            self.seg_bytes,
        )


def facts_for(executor, kind: str) -> LoopFacts:
    """Derive the loop facts for one executor instance."""
    L = executor.L
    # Subclasses that override the per-visit hook (the recursive
    # baselines) get the call emitted; the plain executors do not pay
    # for an empty method call per step.  Autoropes has no hook.
    on_visit = kind == "lockstep" and (
        getattr(type(executor), "_on_visit", None)
        is not getattr(_base_executor_for(kind), "_on_visit", None)
    )
    seg = int(L.device.segment_bytes)
    return LoopFacts(
        kind=kind,
        compact=L.compact_threshold > 0.0,
        need_guard=L.needs_guard,
        validate=bool(L.validate),
        trace=executor._trace is not None,
        prof=executor._prof is not None,
        visit_log=executor._visit_log is not None,
        on_visit=on_visit,
        device=device_digest(L.device),
        ws=int(executor.ws),
        layout=executor.stack.layout.value,
        account=bool(executor.stack.account),
        seg_bytes=seg,
        seg_shift=seg.bit_length() - 1 if seg & (seg - 1) == 0 else None,
    )


def device_digest(device) -> str:
    """A stable digest of the device configuration."""
    return repr(device)


def _base_executor_for(kind: str):
    if kind == "lockstep":
        from repro.gpusim.executors.lockstep_exec import LockstepExecutor

        return LockstepExecutor
    from repro.gpusim.executors.autoropes_exec import AutoropesExecutor

    return AutoropesExecutor


# -- emission unit: annotated op tree ----------------------------------------


@dataclass
class ChargeSite:
    """One field-group load site in execution order."""

    group: str
    index: int  # global site index for this group (0-based)
    total: int = 1  # total sites for this group (patched by the pass)
    fused_with: Optional[int] = None  # id of the fuse-run leader site


@dataclass
class ONode:
    """Mutable, annotatable mirror of one compiled op."""

    kind: str  # "cond" | "update" | "push" | "continue"
    op: object
    then: Optional[List["ONode"]] = None
    orelse: Optional[List["ONode"]] = None
    # pass annotations:
    strategy: Optional[str] = None  # cond: uniform | vote | predicate | gather
    charges: List[ChargeSite] = field(default_factory=list)


@dataclass
class EmitUnit:
    """The object the pass pipeline rewrites."""

    kernel: Optional[IterativeKernel]
    facts: Optional[LoopFacts]
    #: which backend family this unit is for: the codegen engine
    #: ("steploop"), the paper-figure pseudocode renderers
    #: ("render_recursive" / "render_iterative"), or the scalar
    #: per-point Python backend ("scalar_python").
    mode: str = "steploop"
    #: the recursive spec, for units lowered from a TraversalSpec
    #: rather than a compiled kernel (the pseudocode renderer).
    spec: object = None
    program: object = None
    nodes: List[ONode] = field(default_factory=list)
    multi_site_groups: Tuple[str, ...] = ()
    any_charges: bool = False
    source: str = ""
    bindings: Dict[str, object] = field(default_factory=dict)
    applied: List[str] = field(default_factory=list)


def run_pipeline(unit: EmitUnit) -> EmitUnit:
    """Run every applicable registered pass, in registration order."""
    for name, cls in PASS_REGISTRY.items():
        p = cls()
        if p.can_apply(unit):
            p.apply(unit)
            unit.applied.append(name)
    return unit

# -- analysis / rewrite passes ----------------------------------------------


@register_pass
class LowerProgram(EmitPass):
    """Lower the compiled op program into the mutable op tree.

    The one rewrite it performs is dead-tail truncation: ops that
    follow a ``ContinueOp`` in the same sequence can never execute (the
    interpreter returns on the continue), so they are dropped from the tree
    instead of being emitted behind an unreachable guard.
    """

    def can_apply(self, unit: EmitUnit) -> bool:
        return (
            unit.mode == "steploop"
            and unit.program is None
            and unit.kernel is not None
        )

    def apply(self, unit: EmitUnit) -> None:
        unit.program = program_for(unit.kernel)
        unit.nodes = self._lower(unit.program.ops)

    def _lower(self, ops: Tuple) -> List[ONode]:
        out: List[ONode] = []
        for op in ops:
            tag = op.tag
            if tag == TAG_CONTINUE:
                out.append(ONode(kind="continue", op=op))
                break  # dead-tail truncation
            if tag == TAG_COND:
                out.append(
                    ONode(
                        kind="cond",
                        op=op,
                        then=self._lower(op.then_ops),
                        orelse=(
                            None
                            if op.else_ops is None
                            else self._lower(op.else_ops)
                        ),
                    )
                )
            elif tag == TAG_UPDATE:
                out.append(ONode(kind="update", op=op))
            else:
                out.append(ONode(kind="push", op=op))
        return out


@register_pass
class ResolveBranches(EmitPass):
    """Resolve every condition's branch dispatch at emit time.

    Under the lockstep loop the compiled branch kind maps 1:1 onto an
    emission strategy (warp-uniform single evaluation, per-warp
    majority vote, or per-lane predication with the dense-grid
    heuristic).  The per-thread autoropes loop predicates every branch
    the same way — threads sit on different nodes, so no warp-uniform
    shortcut exists — and every condition lowers to one gather-
    evaluate-scatter strategy.
    """

    def can_apply(self, unit: EmitUnit) -> bool:
        return bool(unit.nodes)

    def apply(self, unit: EmitUnit) -> None:
        lockstep = unit.facts.kind == "lockstep"
        for node in _walk(unit.nodes):
            if node.kind != "cond":
                continue
            if not lockstep:
                node.strategy = "gather"
            elif node.op.branch == BRANCH_UNIFORM:
                node.strategy = "uniform"
            elif node.op.branch == BRANCH_VOTE:
                node.strategy = "vote"
            else:
                node.strategy = "predicate"


@register_pass
class PlanFieldCharges(EmitPass):
    """Plan the per-step field-group load (charge) sites.

    Walks the tree in execution order (then-arm before else-arm, the
    interpreter's order) and annotates every load site:

    * groups loaded at exactly one site need no ``seen`` dedup mask at
      all — the emitted load charges the site's live warps directly;
    * groups loaded at multiple sites (both arms of a branch may read
      the same group) get a lazily-initialized per-step ``seen``
      accumulator, reproducing the interpreter's charge dedup exactly;
    * consecutive loads under the *same* live mask (one op's multi-
      group read tuple) are fused: one ``to_charge`` mask, one
      ``sum()``, one column view and a single combined
      ``bytes_requested`` update feed the per-region accesses, whose
      order into the memory model is preserved verbatim (the L2 reuse
      window is order-sensitive; see the module docstring for the
      fusion-soundness argument).
    """

    fuse_loads = Property(
        desc="Fuse same-mask consecutive loads into one gather",
        dtype=bool,
        default=True,
    )

    def can_apply(self, unit: EmitUnit) -> bool:
        return bool(unit.nodes)

    def apply(self, unit: EmitUnit) -> None:
        counts: Dict[str, int] = {}
        sites: List[ChargeSite] = []

        def visit(nodes: List[ONode]) -> None:
            for node in nodes:
                reads: Tuple[str, ...] = ()
                if node.kind in ("cond", "update"):
                    reads = node.op.reads
                elif node.kind == "push":
                    reads = node.op.child_group
                node.charges = []
                leader: Optional[int] = None
                for g in reads:
                    site = ChargeSite(group=g, index=counts.get(g, 0))
                    counts[g] = site.index + 1
                    if self.fuse_loads and leader is not None:
                        site.fused_with = leader
                    elif self.fuse_loads:
                        leader = id(site)
                    node.charges.append(site)
                    sites.append(site)
                if node.kind == "cond":
                    visit(node.then or [])
                    visit(node.orelse or [])

        visit(unit.nodes)
        for site in sites:
            site.total = counts[site.group]
        unit.multi_site_groups = tuple(
            sorted(g for g, n in counts.items() if n > 1)
        )
        unit.any_charges = bool(sites)


def _walk(nodes: List[ONode]):
    for node in nodes:
        yield node
        if node.kind == "cond":
            yield from _walk(node.then or [])
            yield from _walk(node.orelse or [])

# -- loop emitters -----------------------------------------------------------


class _LoopEmitterBase(EmitPass):
    """Shared machinery for the two step-loop backends.

    Subclasses own their loop template (the lockstep warp loop and the
    per-thread autoropes loop differ in mask rank, bookkeeping and
    push accounting) and share variable binding, argument sub-dict
    construction, field-charge emission (with same-mask fusion), the
    sequence walker with its liveness guards, and the inlined
    accounting: the L2 update, one-lane memory accesses, issue
    accounting and the rope stack's prelude and traffic.
    """

    kind = ""

    def can_apply(self, unit: EmitUnit) -> bool:
        return (
            unit.mode == "steploop"
            and unit.facts is not None
            and unit.facts.kind == self.kind
            and bool(unit.nodes)
            and not unit.source
        )

    # -- setup ---------------------------------------------------------------

    def _setup(self, unit: EmitUnit) -> None:
        self.unit = unit
        self.w = SourceWriter()
        self._bound: Dict[tuple, str] = {}
        spec = unit.kernel.spec
        self.variant_names = [a.name for a in spec.variant_args]
        self.invariant_names = [a.name for a in spec.invariant_args]
        self.arg_names = self.variant_names + self.invariant_names
        groups: List[str] = []
        for n in _walk(unit.nodes):
            for s in n.charges:
                if s.group not in groups:
                    groups.append(s.group)
        self.groups = groups
        self._rg = {g: f"rg{i}" for i, g in enumerate(groups)}
        self._it = {g: f"it{i}" for i, g in enumerate(groups)}
        self._rb = {g: f"rb{i}" for i, g in enumerate(groups)}
        self._sg = {g: f"sg{i}" for i, g in enumerate(groups)}
        self.multi = set(unit.multi_site_groups)
        self.ids_kw = ", warp_ids=ids" if unit.facts.compact else ""
        from repro.gpusim.executors.common import validate_popped_nodes
        from repro.gpusim.warp import majority_vote, pack_mask, unpack_mask

        unit.bindings.update(
            np=np,
            pack_mask=pack_mask,
            unpack_mask=unpack_mask,
            majority_vote=majority_vote,
            validate_popped_nodes=validate_popped_nodes,
        )

    def _bind(self, prefix: str, obj) -> str:
        key = (prefix, id(obj))
        name = self._bound.get(key)
        if name is None:
            name = f"{prefix}{len(self._bound)}"
            self._bound[key] = name
            self.unit.bindings[name] = obj
        return name

    def _sub(self, suffix: str) -> str:
        """Dict literal subsetting every kernel argument: {'x': a_x[i]}."""
        items = ", ".join(f"'{k}': a_{k}{suffix}" for k in self.arg_names)
        return "{" + items + "}"

    def _emit_prof(self, n: ONode) -> None:
        if self.unit.facts.prof:
            self.w.line(f"prof.note({self._bind('OP', n.op)}, stats)")

    # -- field-group charges (with same-mask fusion) -------------------------

    def _mask_col(self, var: str) -> str:
        raise NotImplementedError

    def _addr_expr(self, group: str) -> str:
        raise NotImplementedError

    def _ensure_safe_node(self) -> None:
        w = self.w
        w.line("if safe_node is None:")
        w.indent()
        w.line("safe_node = np.maximum(node, 0)")
        w.dedent()

    def _emit_charges(self, n: ONode, mask: str, cnt: Optional[str] = None) -> None:
        sites = n.charges
        if not sites:
            return
        i = 0
        while i < len(sites):
            if sites[i].total == 1:
                # a maximal run of single-site loads fuses (same mask)
                j = i
                while j < len(sites) and sites[j].total == 1:
                    j += 1
                self._emit_single_run(sites[i:j], mask, cnt)
                i = j
            else:
                self._emit_multi_site(sites[i], mask)
                i += 1

    def _emit_single_run(
        self, run: List[ChargeSite], mask: str, cnt: Optional[str] = None
    ) -> None:
        """Fused load run: single-site groups under one shared mask.

        One ``to_charge`` test, one element count and one combined
        ``bytes_requested`` update serve every group in the run; the
        per-region accesses still hit the memory model one call each,
        in program order (the L2 window is order-sensitive).  When the
        caller already holds the mask's population count (``cnt``),
        both the guard and the byte accounting reuse it.
        """
        w = self.w
        if cnt is None:
            w.line(f"if {mask}.any():")
            w.indent()
            cnt = w.fresh("n")
            self._ensure_safe_node()
            w.line(f"{cnt} = int({mask}.sum())")
        else:
            w.line(f"if {cnt}:")
            w.indent()
            self._ensure_safe_node()
        total = " + ".join(f"{cnt} * {self._it[s.group]}" for s in run)
        w.line(f"stats.bytes_requested += {total}")
        mc = w.fresh("m")
        w.line(f"{mc} = {self._mask_col(mask)}")
        for s in run:
            w.line(
                f"mem({self._addr_expr(s.group)}, {self._it[s.group]}, "
                f"{mc}, step)"
            )
        w.dedent()

    def _emit_multi_site(self, site: ChargeSite, mask: str) -> None:
        """Multi-site group: dedup against the per-step seen mask."""
        w = self.w
        sg = self._sg[site.group]
        t = w.fresh("t")
        w.line(f"{t} = {mask} if {sg} is None else ({mask} & ~{sg})")
        w.line(f"if {t}.any():")
        w.indent()
        self._ensure_safe_node()
        it = self._it[site.group]
        w.line(f"stats.bytes_requested += int({t}.sum()) * {it}")
        w.line(
            f"mem({self._addr_expr(site.group)}, {it}, "
            f"{self._mask_col(t)}, step)"
        )
        w.dedent()
        w.line(f"{sg} = {t} if {sg} is None else ({sg} | {t})")

    # -- sequence walker -----------------------------------------------------

    def _emit_seq(self, nodes: List[ONode], lv: str) -> None:
        """Emit a guarded op sequence over live-mask variable ``lv``.

        The interpreter re-checks liveness before every op; liveness only
        changes at branch merges and ``Continue``, so the emitted code
        re-guards only after conditions — everything in between runs
        under one proven-live region (the Sakka et al. framing).
        """
        w = self.w
        w.line(f"if {lv}.any():")
        w.indent()
        opened = 1
        for i, n in enumerate(nodes):
            if i > 0 and nodes[i - 1].kind == "cond":
                w.line(f"if {lv}.any():")
                w.indent()
                opened += 1
            self._emit_node(n, lv)
        for _ in range(opened):
            w.dedent()

    def _emit_node(self, n: ONode, lv: str) -> None:
        if n.kind == "cond":
            self._emit_cond(n, lv)
        elif n.kind == "update":
            self._emit_update(n, lv)
        elif n.kind == "push":
            self._emit_push(n, lv)
        else:  # continue
            self.w.line(f"{lv} = np.zeros_like({lv})")

    def _emit_cond(self, n: ONode, lv: str) -> None:
        raise NotImplementedError

    def _emit_update(self, n: ONode, lv: str) -> None:
        raise NotImplementedError

    def _emit_push(self, n: ONode, lv: str) -> None:
        raise NotImplementedError

    # -- shared prelude pieces ----------------------------------------------

    def _emit_prelude_common(self) -> None:
        w = self.w
        w.line("def step_loop(ex):")
        w.indent()
        w.line("L = ex.L")
        w.line("stats = L.stats")
        w.line("stack = ex.stack")
        w.line("mem = L.memory.warp_access")
        w.line("ctx = ex.ctx")
        w.line("ws = ex.ws")
        w.line("tree = ex.tree")
        w.line("n_nodes = tree.n_nodes")
        if self.groups:
            w.line("regions = L.regions")
            for g in self.groups:
                w.line(f"{self._rg[g]} = regions[{g!r}]")
                w.line(f"{self._it[g]} = {self._rg[g]}.itemsize")
                w.line(f"{self._rb[g]} = {self._rg[g]}.base")
        facts = self.unit.facts
        if facts.compact:
            w.line("threshold = L.compact_threshold")
        if facts.prof:
            w.line("prof = ex._prof")
        if facts.trace:
            w.line("trace = ex._trace")
        if facts.visit_log:
            w.line("vlog = ex._visit_log")
        w.line("vlanes = L.issue.valid_lanes")
        w.line("M = L.memory")
        w.line("l2on = M.l2_enabled")
        w.line("capl = M._capacity_lines")
        child_names: List[str] = []
        for nd in _walk(self.unit.nodes):
            if nd.kind == "push":
                for call in nd.op.calls:
                    if call.child not in child_names:
                        child_names.append(call.child)
        self._childarr = {c: f"ct{i}" for i, c in enumerate(child_names)}
        for c in child_names:
            w.line(
                f"{self._childarr[c]} = np.asarray("
                f"tree.children[{c!r}], dtype=np.int64)"
            )
        w.line("steps = 0")
        w.line("node_visits = np.int64(0)")
        w.line("warp_node_visits = np.int64(0)")
        w.line("step = ex._step")

    def _emit_charge_inits(self) -> None:
        w = self.w
        if self.unit.any_charges:
            w.line("safe_node = None")
        for g in self.groups:
            if g in self.multi:
                w.line(f"{self._sg[g]} = None")

    # -- inlined accounting helpers ------------------------------------------
    #
    # Both step loops inline the simulator's per-step accounting instead
    # of calling it.  Every sequence below reproduces its helper's
    # arithmetic exactly (same reductions, same accumulation order per
    # stat, one memory-model update per access in program order); the
    # differential suites hold the result to bit-identical stats.

    def _emit_l2_inline(self, fv: str, nt: Optional[str]) -> None:
        """Inline ``GlobalMemory._touch``: dedupe, then L2 and EMA update.

        ``fv`` names a fresh 1-D array of touched segments (sorted in
        place), ``nt`` the access's transaction count, or ``None`` when
        each distinct segment is one transaction (the structural stack
        path).  The last-touch array is re-read each time: an access
        through ``mem`` may have grown it.
        """
        w = self.w
        facts = self.unit.facts
        w.line(f"{fv}.sort()")
        uq = w.fresh("u")
        w.line(f"if len({fv}) > 1:")
        w.indent()
        kp = w.fresh("kp")
        w.line(f"{kp} = np.empty(len({fv}), dtype=bool)")
        w.line(f"{kp}[0] = True")
        w.line(f"np.not_equal({fv}[1:], {fv}[:-1], out={kp}[1:])")
        w.line(f"{uq} = {fv}[{kp}]")
        w.dedent()
        w.line("else:")
        w.indent()
        w.line(f"{uq} = {fv}")
        w.dedent()
        dup = ""
        if nt is None:
            nt = w.fresh("nt")
            w.line(f"{nt} = len({uq})")
        else:
            dup = f" + ({nt} - len({uq}))"
        w.line(f"stats.global_transactions += {nt}")
        mx = w.fresh("mx")
        w.line(f"{mx} = int({uq}[-1])")
        w.line("lt = M._last_touch")
        w.line(f"if {mx} >= len(lt):")
        w.indent()
        w.line(f"M._ensure_capacity({mx})")
        w.line("lt = M._last_touch")
        w.dedent()
        hs = w.fresh("hs")
        w.line("if l2on:")
        w.indent()
        w.line(
            f"{hs} = int((step - lt[{uq}] <= "
            f"capl / max(1.0, M._ema_unique_per_step)).sum()){dup}"
        )
        w.dedent()
        w.line("else:")
        w.indent()
        w.line(f"{hs} = 0")
        w.dedent()
        w.line(f"lt[{uq}] = step")
        w.line(
            "M._ema_unique_per_step = 0.98 * M._ema_unique_per_step "
            f"+ 0.02 * len({uq})"
        )
        w.line(f"stats.l2_hit_transactions += {hs}")
        w.line(f"stats.dram_bytes += ({nt} - {hs}) * {facts.seg_bytes}")

    def _emit_mem_inline(
        self, addr: str, it: str, on: str, n: str, nost: Optional[str] = None
    ) -> None:
        """Inline GlobalMemory.warp_access for one-lane access groups.

        ``addr`` is a 1-D int64 byte-address expression, ``on`` the row
        mask, ``n`` its (positive) population count.  Reproduces the
        (n, 1) fast path bit for bit — per-row segment straddle
        handling, transaction counts, then the shared L2 update —
        minus the (n, 1) reshapes and argument validation the call
        needed.

        ``nost`` names a prelude flag that is True when this access
        group can never straddle a segment boundary (base is segment-
        aligned and the itemsize divides the segment), in which case
        the hi-segment/straddle arithmetic is skipped — the straddle
        count is provably zero, so the accounting is unchanged.
        """
        w = self.w
        facts = self.unit.facts
        sh = facts.seg_shift
        ad = w.fresh("ad")
        lo = w.fresh("lo")
        hi = w.fresh("hi")
        w.line(f"{ad} = {addr}")
        if sh is not None:
            w.line(f"{lo} = {ad} >> {sh}")
        else:
            w.line(f"{lo} = {ad} // {facts.seg_bytes}")
        nt = w.fresh("nt")
        fv = w.fresh("fv")
        if nost is not None:
            w.line(f"if {nost}:")
            w.indent()
            w.line(f"{nt} = {n}")
            w.line(f"{fv} = {lo}[{on}]")
            w.dedent()
            w.line("else:")
            w.indent()
        if sh is not None:
            w.line(f"{hi} = ({ad} + ({it} - 1)) >> {sh}")
        else:
            w.line(f"{hi} = ({ad} + ({it} - 1)) // {facts.seg_bytes}")
        st = w.fresh("st")
        ns = w.fresh("ns")
        w.line(f"{st} = {on} & ({hi} > {lo})")
        w.line(f"{ns} = int(np.count_nonzero({st}))")
        w.line(f"{nt} = {n} + {ns}")
        w.line(f"if {ns}:")
        w.indent()
        w.line(f"{fv} = np.concatenate([{lo}[{on}], {hi}[{st}]])")
        w.dedent()
        w.line("else:")
        w.indent()
        w.line(f"{fv} = {lo}[{on}]")
        w.dedent()
        if nost is not None:
            w.dedent()
        self._emit_l2_inline(fv, nt)

    def _emit_issue_terms(self, cn: str, wn: str) -> Optional[Tuple[str, str]]:
        """The divergence terms WarpIssueAccountant.issue derives from a
        (rows, ws) mask's per-row counts ``cn`` and issuing rows ``wn``:
        the partial-warp count and the wasted-lane fraction, against the
        per-step valid-lane counts ``vd``.  Identical for every issue
        under the same mask, so a push group computes them once."""
        ws = self.unit.facts.ws
        if ws == 1:
            return None  # (n, 1) masks take the warp-uniform path
        w = self.w
        pa = w.fresh("pa")
        wf = w.fresh("wf")
        w.line(f"{pa} = int(({wn} & ({cn} < vd)).sum())")
        w.line(f"{wf} = float(np.maximum(vd - {cn}, 0)[{wn}].sum() / {ws})")
        return pa, wf

    def _emit_issue_add(
        self, cost: str, ni: str, terms: Optional[Tuple[str, str]]
    ) -> None:
        """Accumulate one issue call's stats, in the accountant's order.

        Callers guarantee at least one issuing warp (the emission sits
        under a liveness guard), so the accountant's early-out cannot
        fire."""
        w = self.w
        w.line(f"stats.warp_instructions += {cost} * {ni}")
        if terms is not None:
            pa, wf = terms
            w.line(f"stats.divergent_instructions += {cost} * {pa}")
            w.line(f"stats.wasted_lane_fraction += {cost} * {wf}")

    def _emit_issue_lanes(self, cost: str, cn: str, wn: str, ni: str) -> None:
        """Inline WarpIssueAccountant.issue for a (rows, ws) mask."""
        self._emit_issue_add(cost, ni, self._emit_issue_terms(cn, wn))

    # -- inlined rope stack ----------------------------------------------

    def _stack_channel_locals(self):
        pairs = [("node", "chn")]
        if self.kind == "lockstep":
            pairs.append(("mask", "chm"))
        pairs += [(f"arg.{n}", f"cha_{n}") for n in self.variant_names]
        return pairs

    def _emit_stack_prelude(self) -> None:
        w = self.w
        facts = self.unit.facts
        w.line("rows_ = stack._rows")
        for cname, local in self._stack_channel_locals():
            w.line(f"{local} = stack._channels[{cname!r}]")
        if facts.account and facts.layout != "shared":
            w.line("sids = stack.stack_ids")
            w.line("seb = stack.entry_bytes")
            w.line("sbase = stack.region.base")
            if self.kind == "lockstep":
                seg = facts.seg_bytes
                w.line(f"nstk = sbase % {seg} == 0 and {seg} % seb == 0")
            if facts.layout == "interleaved_global":
                w.line("n_alloc = stack._n_stacks_alloc")
                if self.kind == "autoropes":
                    w.line("ssh = stack.segment_shift")
                    w.line("sbe = stack.base_entry")
                    w.line("sidb = sids + sbe")
            else:
                w.line("maxdepth = stack.max_depth")
        if self.kind == "autoropes":
            # flat offset of each row's entry 0: pops gather with take()
            w.line("roff = rows_ * stack._capacity")

    def _emit_stack_refresh(self, channels_only: bool = False) -> None:
        w = self.w
        facts = self.unit.facts
        for cname, local in self._stack_channel_locals():
            w.line(f"{local} = stack._channels[{cname!r}]")
        if not channels_only:
            w.line("rows_ = stack._rows")
            if facts.account and facts.layout != "shared":
                w.line("sids = stack.stack_ids")
                if (
                    self.kind == "autoropes"
                    and facts.layout == "interleaved_global"
                ):
                    w.line("sidb = sids + sbe")
        if self.kind == "autoropes":
            w.line("roff = rows_ * stack._capacity")

    def _emit_stack_account(
        self,
        mask: str,
        depths: str,
        n_expr: str,
        guard: bool = False,
        sel: Optional[Tuple[str, str]] = None,
    ) -> None:
        """Inline StackStorage._account for one push or pop.

        ``mask`` marks the stacks touched at ``depths`` and ``n_expr``
        counts them.  ``guard`` adds the accountant's n_active == 0
        early-out (needed where the count is not already proven
        nonzero: the memory model must not see an all-dead access — the
        L2 window is stateful).  ``sel`` optionally names ``(ix, d)``:
        the flat indices of ``mask`` and ``depths`` already gathered to
        them (a push's ``sp[ix]``), so the structural path skips the
        full-width arithmetic.

        Lockstep stacks are per-warp (one lane per access group), so
        their traffic takes the inlined (n, 1) path.  Autoropes stacks
        are per-thread: on the interleaved layout, when the storage's
        structural precondition holds (``ssh`` is not None), the touched
        segments are one shift of the entry index and go straight to
        the L2 update; otherwise the access goes through ``mem``.
        """
        w = self.w
        facts = self.unit.facts
        if not facts.account:
            return
        if guard:
            w.line(f"if {n_expr}:")
            w.indent()
        w.line(f"stats.stack_ops += {n_expr}")
        per_warp = self.kind == "lockstep"
        if facts.layout == "interleaved_global":
            idx = f"({depths} * n_alloc + sids)"
        else:  # contiguous_global
            idx = f"(sids * maxdepth + {depths})"
        if facts.layout == "shared":
            if per_warp:
                # group mask == row mask when one stack forms a group
                w.line(f"stats.shared_accesses += {n_expr}")
            else:
                w.line(
                    f"stats.shared_accesses += "
                    f"int({mask}.reshape(-1, ws).any(axis=1).sum())"
                )
        elif per_warp:
            self._emit_mem_inline(
                f"{idx} * seb + sbase", "seb", mask, n_expr, nost="nstk"
            )
        else:
            generic = (
                f"mem(({idx} * seb + sbase).reshape(-1, ws), seb, "
                f"{mask}.reshape(-1, ws), step)"
            )
            if facts.layout == "interleaved_global":
                w.line("if ssh is not None:")
                w.indent()
                fv = w.fresh("fv")
                if sel is None:
                    w.line(f"{fv} = ({depths} * n_alloc + sidb)[{mask}]")
                else:
                    ix, dg = sel
                    w.line(f"{fv} = {dg} * n_alloc + sidb[{ix}]")
                w.line(f"{fv} >>= ssh")
                self._emit_l2_inline(fv, None)
                w.dedent()
                w.line("else:")
                w.indent()
                w.line(generic)
                w.dedent()
            else:
                w.line(generic)
        if guard:
            w.dedent()

    def _emit_finally(self) -> None:
        w = self.w
        w.dedent()
        w.line("finally:")
        w.indent()
        w.line("stats.steps += steps")
        w.line("stats.node_visits += int(node_visits)")
        w.line("stats.warp_node_visits += int(warp_node_visits)")
        w.dedent()


@register_pass
class EmitLockstepLoop(_LoopEmitterBase):
    """Emit the lockstep warp loop (the Fig. 8 execution shape).

    Beyond straight-line specialization, this backend inlines the
    per-step hot path of the simulator's accounting helpers — rope
    stack push/pop with layout-specialized traffic charging, warp
    issue accounting, field-load addressing, and flat-index
    gather/scatter around the application callbacks — so one step
    costs a handful of vectorized passes instead of dozens of small
    helper calls.  Every inlined sequence reproduces the helper's
    arithmetic exactly (same reductions, same accumulation order);
    the differential suite holds the result to bit-identical stats.

    Two defensive checks are specialized out when ``facts.validate``
    is off (clean launches): the empty-pop guard and the popped-node
    bounds validation.  Chaos-armed launches always validate, so the
    safety net is identical where it can matter.
    """

    kind = "lockstep"

    def _mask_col(self, var: str) -> str:
        return f"{var}[:, None]"

    def _addr_expr(self, group: str) -> str:
        # Region.addresses inlined: base + index * itemsize.
        return f"(({self._rb[group]} + safe_node * {self._it[group]})[:, None])"

    def _row_of(self, fl: str) -> str:
        """Row index of a flat lane index (shift when ws is 2**k)."""
        ws = self.unit.facts.ws
        if ws & (ws - 1) == 0:
            return f"{fl} >> {ws.bit_length() - 1}"
        return f"{fl} // {ws}"

    def _emit_single_run(
        self, run: List[ChargeSite], mask: str, cnt: Optional[str] = None
    ) -> None:
        # Lockstep loads are warp-uniform (one lane per access group):
        # the fused run charges bytes once, then each region's access
        # goes through the inlined memory model in program order.
        w = self.w
        if cnt is None:
            w.line(f"if {mask}.any():")
            w.indent()
            cnt = w.fresh("n")
            self._ensure_safe_node()
            w.line(f"{cnt} = int({mask}.sum())")
        else:
            w.line(f"if {cnt}:")
            w.indent()
            self._ensure_safe_node()
        total = " + ".join(f"{cnt} * {self._it[s.group]}" for s in run)
        w.line(f"stats.bytes_requested += {total}")
        for s in run:
            self._emit_mem_inline(
                f"{self._rb[s.group]} + safe_node * {self._it[s.group]}",
                self._it[s.group],
                mask,
                cnt,
                nost=self._nst[s.group],
            )
        w.dedent()

    def _emit_multi_site(self, site: ChargeSite, mask: str) -> None:
        w = self.w
        sg = self._sg[site.group]
        t = w.fresh("t")
        w.line(f"{t} = {mask} if {sg} is None else ({mask} & ~{sg})")
        nn = w.fresh("n")
        w.line(f"{nn} = int({t}.sum())")
        w.line(f"if {nn}:")
        w.indent()
        self._ensure_safe_node()
        it = self._it[site.group]
        w.line(f"stats.bytes_requested += {nn} * {it}")
        self._emit_mem_inline(
            f"{self._rb[site.group]} + safe_node * {it}",
            it,
            t,
            nn,
            nost=self._nst[site.group],
        )
        w.dedent()
        w.line(f"{sg} = {t} if {sg} is None else ({sg} | {t})")

    def _emit_mask_stats(self, lv: str):
        """Per-row population count / issuing mask / issuing count.

        One reduction pass each, shared by the charge, issue and eval
        emission for the same op mask (the interpreter computes these
        up to three times per op).  Stats are memoized per mask
        variable and propagated across branch splits at emit time:

        * warp-uniform and vote splits partition whole rows, so both
          arms' counts derive from the parent's with row-width selects
          — no new ``(rows, ws)`` reduction;
        * predicate splits partition lanes, so the else-arm's counts
          are the parent's minus the then-arm's when the latter are
          already known.

        Every derivation produces exactly the integers the direct
        reduction would (disjoint partitions), so downstream stat
        accumulation is unchanged bit for bit.
        """
        st = self._mstats.get(lv)
        if st is not None:
            return st
        w = self.w
        cn = w.fresh("cn")
        wn = w.fresh("wn")
        ni = w.fresh("ni")
        ud = self._uderive.get(lv)
        pt = self._partition.get(lv)
        if ud is not None:
            pcn, pwn, tk, is_then = ud
            if is_then:
                w.line(f"{cn} = np.where({tk}, {pcn}, 0)")
                w.line(f"{wn} = {pwn} & {tk}")
            else:
                w.line(f"{cn} = np.where({tk}, 0, {pcn})")
                w.line(f"{wn} = {pwn} & ~{tk}")
            w.line(f"{ni} = int({wn}.sum())")
        elif pt is not None and pt[1] in self._mstats:
            pcn, sib = pt
            w.line(f"{cn} = {pcn} - {self._mstats[sib][0]}")
            w.line(f"{wn} = {cn} > 0")
            w.line(f"{ni} = int({wn}.sum())")
        else:
            w.line(f"{cn} = {lv}.sum(axis=1)")
            w.line(f"{wn} = {cn} > 0")
            w.line(f"{ni} = int({wn}.sum())")
        st = (cn, wn, ni)
        self._mstats[lv] = st
        return st

    def _invalidate(self, var: str) -> None:
        self._mstats.pop(var, None)
        self._uderive.pop(var, None)
        self._partition.pop(var, None)

    def _changes_liveness(self, nodes) -> bool:
        """Whether emitting ``nodes`` can rebind their live mask.

        Only ``Continue`` and a cond whose merge is not the identity
        reassign a mask variable; updates and pushes never do.
        """
        for n in nodes:
            if n.kind == "continue":
                return True
            if n.kind == "cond":
                then_nodes = n.then or []
                tc = (
                    len(then_nodes) == 1 and then_nodes[0].kind == "continue"
                ) or self._changes_liveness(then_nodes)
                ec = n.orelse is not None and self._changes_liveness(n.orelse)
                if tc or ec:
                    return True
        return False

    # -- loop template -------------------------------------------------------

    def apply(self, unit: EmitUnit) -> None:
        self._setup(unit)
        self._mstats: Dict[str, tuple] = {}
        self._uderive: Dict[str, tuple] = {}
        self._partition: Dict[str, tuple] = {}
        self._rebound = False
        w = self.w
        facts = unit.facts
        WS = facts.ws
        self._emit_prelude_common()
        seg = facts.seg_bytes
        self._nst = {g: f"nst{i}" for i, g in enumerate(self.groups)}
        for g in self.groups:
            rb, it = self._rb[g], self._it[g]
            w.line(f"{self._nst[g]} = {rb} % {seg} == 0 and {seg} % {it} == 0")
        w.line("pt_grid = ex.pt_grid")
        w.line("ptf = pt_grid.ravel()")
        w.line("real = ex.real")
        w.line("inv = ex._invariant_vals")
        w.line("warp_len = ex._warp_len")
        w.line("lane_useful = ex._lane_useful")
        self._emit_stack_prelude()
        if facts.compact:
            w.line("compacted = ex._compacted")
            w.line("ids = ex._warp_ids if compacted else None")
            w.line("vd = vlanes if ids is None else vlanes[ids]")
        else:
            w.line("vd = vlanes")
        w.line("try:")
        w.indent()
        w.line("while True:")
        w.indent()
        w.line("sp = stack.sp")
        w.line("warp_on = sp > 0")
        w.line("n_on = int(warp_on.sum())")
        w.line("if n_on == 0:")
        w.indent()
        w.line("break")
        w.dedent()
        w.line("step += 1")
        w.line("ex._step = step")
        w.line("steps += 1")
        if facts.need_guard:
            w.line("stats.steps += steps")
            w.line("steps = 0")
            w.line("L.guard(step, stack)")
            w.line("sp = stack.sp")
            w.line("warp_on = sp > 0")
            w.line("n_on = int(warp_on.sum())")
        if facts.compact:
            w.line(
                f"if stack.n_stacks >= {MIN_COMPACT_WARPS} "
                "and n_on < stack.n_stacks * threshold:"
            )
            w.indent()
            w.line("ex._compact_rows(np.flatnonzero(warp_on))")
            w.line("sp = stack.sp")
            w.line("warp_on = sp > 0")
            w.line("pt_grid = ex.pt_grid")
            w.line("ptf = pt_grid.ravel()")
            w.line("real = ex.real")
            w.line("inv = ex._invariant_vals")
            w.line("compacted = True")
            w.line("ids = ex._warp_ids")
            w.line("vd = vlanes[ids]")
            self._emit_stack_refresh()
            w.dedent()
        # -- pop, inlined (one entry off every non-empty stack) --
        if facts.validate:
            w.line("if np.any(warp_on & (sp == 0)):")
            w.indent()
            w.line("raise IndexError('pop from empty rope stack')")
            w.dedent()
        # warp_on is exactly sp > 0 here, so where(warp_on, sp-1, sp)
        # collapses to a clamped decrement, and the pop row (top) is
        # new_sp itself (already non-negative).
        w.line("new_sp = np.maximum(sp - 1, 0)")
        w.line("node = chn[rows_, new_sp]")
        w.line("pmw = chm[rows_, new_sp]")
        for name in self.variant_names:
            w.line(f"a_{name} = cha_{name}[rows_, new_sp]")
        self._emit_stack_account("warp_on", "new_sp", "n_on", guard=True)
        w.line("stack.sp = new_sp")
        w.line("sp = new_sp")
        if facts.validate:
            w.line("validate_popped_nodes(node, warp_on, n_nodes, step)")
        w.line(f"live = unpack_mask(pmw, {WS}) & warp_on[:, None] & real")
        for name in self.invariant_names:
            w.line(f"a_{name} = inv[{name!r}]")
        w.line("useful = live & (node >= 0)[:, None]")
        w.line("n_useful = useful.sum()")
        w.line("node_visits += n_useful")
        w.line("warp_node_visits += n_on")
        if facts.compact:
            w.line("if compacted:")
            w.indent()
            w.line("warp_len[ids] += warp_on")
            w.line("lane_useful[ids] += useful")
            w.dedent()
            w.line("else:")
            w.indent()
            w.line("warp_len += warp_on")
            w.line("lane_useful += useful")
            w.dedent()
        else:
            w.line("warp_len += warp_on")
            w.line("lane_useful += useful")
        if facts.visit_log:
            w.line("uf = np.flatnonzero(useful)")
            w.line(f"vlog.append((ptf[uf], node[{self._row_of('uf')}]))")
        if facts.on_visit:
            w.line("ex._on_visit(warp_on, live, node)")
        if facts.prof:
            w.line("prof.sync(stats)")
            w.line(
                "prof.note_depth(node, warp_on & (node >= 0), "
                "useful.sum(axis=1))"
            )
        self._emit_charge_inits()
        if facts.trace:
            w.line("tb = stats.global_transactions")
        self._emit_seq(unit.nodes, "live")
        if facts.trace:
            w.line(
                "trace.record(n_on, int(n_useful), "
                "stats.global_transactions - tb)"
            )
        w.dedent()  # while
        self._emit_finally()
        unit.source = w.source()

    # -- ops -----------------------------------------------------------------

    def _emit_eval_lanes(self, fn: str, lv: str, cn: str) -> str:
        """Per-lane condition evaluation with the dense-grid heuristic.

        When at least 95% of the lanes are live, one call over the full
        grid masked afterwards beats the nonzero/gather/scatter round
        trip the interpreter's ``_eval_cond_lanes`` takes; conditions
        are pure row-wise predicates, so every live lane's result is
        the same either way.
        """
        w = self.w
        WS = self.unit.facts.ws
        nl = w.fresh("nl")
        cv = w.fresh("c")
        w.line(f"{nl} = int({cn}.sum())")
        w.line(f"if 20 * {nl} >= 19 * {lv}.size:")
        w.indent()
        r = w.fresh("r")
        rep_args = ", ".join(
            f"'{k}': np.repeat(a_{k}, {WS})" for k in self.arg_names
        )
        w.line(
            f"{r} = {fn}(ctx, np.repeat(node, {WS}), ptf, "
            "{" + rep_args + "})"
        )
        w.line(f"{cv} = np.asarray({r}, dtype=bool).reshape({lv}.shape) & {lv}")
        w.dedent()
        w.line("else:")
        w.indent()
        fl = w.fresh("fi")
        iw = w.fresh("iw")
        w.line(f"{fl} = np.flatnonzero({lv})")
        w.line(f"{iw} = {self._row_of(fl)}")
        r2 = w.fresh("r")
        sub = ", ".join(f"'{k}': a_{k}[{iw}]" for k in self.arg_names)
        w.line(
            f"{r2} = {fn}(ctx, node[{iw}], ptf[{fl}], "
            "{" + sub + "})"
        )
        cf = w.fresh("cf")
        w.line(f"{cf} = np.zeros({lv}.size, dtype=bool)")
        w.line(f"{cf}[{fl}] = np.asarray({r2}, dtype=bool)")
        w.line(f"{cv} = {cf}.reshape({lv}.shape)")
        w.dedent()
        return cv

    # -- sequence walker (stat-propagating override) -------------------------

    def _emit_seq(self, nodes: List[ONode], lv: str) -> None:
        """Guarded op sequence, guarding on cached scalar counts.

        Mask stats are materialized *before* the guard opens, so they
        are unconditionally in scope for sibling-arm derivations and
        merge transfers; the guard itself is then a scalar test instead
        of a full-lane ``.any()`` scan.  On exit the cache entry for
        ``lv`` is restored (mask unchanged) or dropped (mask rebound by
        a branch merge or ``Continue``), since stats emitted inside the
        guard block are not in scope for the caller.
        """
        if not nodes:
            return
        w = self.w
        entry = self._emit_mask_stats(lv)
        w.line(f"if {entry[2]}:")
        w.indent()
        opened = 1
        dirty = False
        for i, n in enumerate(nodes):
            if i > 0 and nodes[i - 1].kind == "cond" and self._rebound:
                st = self._emit_mask_stats(lv)
                w.line(f"if {st[2]}:")
                w.indent()
                opened += 1
            self._rebound = False
            self._emit_node(n, lv)
            dirty = dirty or self._rebound
        for _ in range(opened):
            w.dedent()
        if dirty:
            self._invalidate(lv)
        else:
            self._mstats[lv] = entry
        self._rebound = dirty

    def _emit_node(self, n: ONode, lv: str) -> None:
        if n.kind == "continue":
            self.w.line(f"{lv} = np.zeros_like({lv})")
            self._invalidate(lv)
            self._rebound = True
            return
        super()._emit_node(n, lv)

    def _emit_cond(self, n: ONode, lv: str) -> None:
        w = self.w
        op = n.op
        fn = self._bind("C", op.fn)
        cost = repr(float(op.cost))
        cn, wn, ni = self._emit_mask_stats(lv)
        then_nodes = n.then or []
        then_is_continue = (
            len(then_nodes) == 1 and then_nodes[0].kind == "continue"
        )
        if n.strategy == "uniform":
            self._emit_charges(n, wn, ni)
            self._emit_issue_lanes(cost, cn, wn, ni)
            tk = w.fresh("tk")
            w.line(f"{tk} = np.zeros({lv}.shape[0], dtype=bool)")
            wi = w.fresh("i")
            w.line(f"{wi} = np.flatnonzero({wn})")
            w.line(f"if len({wi}):")
            w.indent()
            sg = w.fresh("sv")
            w.line(f"{sg} = {lv}[{wi}]")
            rp = w.fresh("rp")
            w.line(
                f"{rp} = np.maximum("
                f"pt_grid[{wi}, np.argmax({sg}, axis=1)], 0)"
            )
            r = w.fresh("r")
            w.line(
                f"{r} = {fn}(ctx, node[{wi}], {rp}, "
                f"{self._sub(f'[{wi}]')})"
            )
            w.line(f"{tk}[{wi}] = np.asarray({r}, dtype=bool)")
            w.dedent()
            tl = w.fresh("tl")
            el = w.fresh("el")
            w.line(f"{tl} = {lv} & {tk}[:, None]")
            w.line(f"{el} = {lv} & ~{tk}[:, None]")
            self._uderive[tl] = (cn, wn, tk, True)
            self._uderive[el] = (cn, wn, tk, False)
        else:
            if n.charges:
                self._emit_charges(n, wn, ni)
            self._emit_issue_lanes(cost, cn, wn, ni)
            cv = self._emit_eval_lanes(fn, lv, cn)
            if n.strategy == "predicate":
                tl = cv
                el = w.fresh("el")
                w.line(f"{el} = {lv} ^ {cv}")
                if (
                    then_nodes
                    and not then_is_continue
                    and not self._changes_liveness(then_nodes)
                ):
                    # The then-arm will materialize tl's stats
                    # unconditionally and never rebind tl, so the
                    # else-arm can subtract instead of re-reducing.
                    self._partition[el] = (cn, tl)
            else:  # vote
                tk = w.fresh("tk")
                w.line(f"{tk} = majority_vote({cv}, {lv})")
                w.line(f"stats.warp_instructions += 1.0 * {ni}")
                tl = w.fresh("tl")
                el = w.fresh("el")
                w.line(f"{tl} = {lv} & {tk}[:, None]")
                w.line(f"{el} = {lv} & ~{tk}[:, None]")
                self._uderive[tl] = (cn, wn, tk, True)
                self._uderive[el] = (cn, wn, tk, False)
        self._emit_prof(n)
        then_changes = then_is_continue or self._changes_liveness(then_nodes)
        else_changes = n.orelse is not None and self._changes_liveness(
            n.orelse
        )
        if not then_is_continue:
            # A lone Continue arm only zeroes its mask — the merge
            # below already accounts for that, so skip the arm.
            self._emit_seq(then_nodes, tl)
        if n.orelse is not None:
            self._emit_seq(n.orelse, el)
        if then_is_continue:
            w.line(f"{lv} = {el}")
            self._invalidate(lv)
            if el in self._mstats:
                self._mstats[lv] = self._mstats[el]
            if el in self._uderive:
                self._uderive[lv] = self._uderive[el]
            if el in self._partition:
                self._partition[lv] = self._partition[el]
            self._rebound = True
        elif not then_changes and not else_changes:
            # Neither arm can zero lanes, so tl | el == lv exactly:
            # the merge is the identity and lv's stats stay valid.
            self._rebound = False
        else:
            w.line(f"{lv} = {tl} | {el}")
            self._invalidate(lv)
            self._rebound = True

    def _emit_update(self, n: ONode, lv: str) -> None:
        w = self.w
        op = n.op
        cost = repr(float(op.cost))
        cn, wn, ni = self._emit_mask_stats(lv)
        if n.charges:
            self._emit_charges(n, wn, ni)
        self._emit_issue_lanes(cost, cn, wn, ni)
        fl = w.fresh("fi")
        w.line(f"{fl} = np.flatnonzero({lv})")
        w.line(f"if len({fl}):")
        w.indent()
        iw = w.fresh("iw")
        w.line(f"{iw} = {self._row_of(fl)}")
        ufn = self._bind("U", op.fn)
        w.line(
            f"{ufn}(ctx, node[{iw}], ptf[{fl}], "
            f"{self._sub(f'[{iw}]')})"
        )
        w.dedent()
        self._emit_prof(n)

    def _emit_push(self, n: ONode, lv: str) -> None:
        w = self.w
        op = n.op
        _, wn, ni = self._emit_mask_stats(lv)
        w.line(f"if {ni}:")
        w.indent()
        self._emit_charges(n, wn, ni)
        mk = w.fresh("mk")
        w.line(f"{mk} = pack_mask({lv})")
        new_full: Dict[str, str] = {}
        cur_sub: Dict[str, str] = {}
        wi = rep = None
        if op.needs_rules:
            wi = w.fresh("i")
            w.line(f"{wi} = np.flatnonzero({wn})")
            rep = w.fresh("rp")
            w.line(
                f"{rep} = np.maximum("
                f"pt_grid[{wi}, np.argmax({lv}[{wi}], axis=1)], 0)"
            )
            for name in self.arg_names:
                sv = w.fresh("s")
                w.line(f"{sv} = a_{name}[{wi}]")
                cur_sub[name] = sv
            orig = dict(cur_sub)
            orig_dict = (
                "{" + ", ".join(f"'{k}': {v}" for k, v in orig.items()) + "}"
            )
            for r in op.variant_rules:
                if r.rule is None:
                    new_full[r.name] = f"a_{r.name}"
                else:
                    rb = self._bind("R", r.rule)
                    db = self._bind("D", r.dtype)
                    vv = w.fresh("v")
                    w.line(
                        f"{vv} = np.asarray({rb}(ctx, node[{wi}], "
                        f"{rep}, {orig_dict}))"
                        f".astype({db}, copy=False)"
                    )
                    ff = w.fresh("f")
                    w.line(f"{ff} = np.empty_like(a_{r.name})")
                    w.line(f"{ff}[{wi}] = {vv}")
                    new_full[r.name] = ff
                    cur_sub[r.name] = vv
        else:
            for r in op.variant_rules:
                new_full[r.name] = f"a_{r.name}"
        for call in op.calls:
            self._ensure_safe_node()
            ch = w.fresh("ch")
            w.line(
                f"{ch} = np.where(node >= 0, "
                f"{self._childarr[call.child]}[safe_node], -1)"
            )
            push_map = dict(new_full)
            for r in call.overrides or ():
                rb = self._bind("R", r.rule)
                db = self._bind("D", r.dtype)
                cur_dict = (
                    "{"
                    + ", ".join(f"'{k}': {v}" for k, v in cur_sub.items())
                    + "}"
                )
                vv = w.fresh("v")
                w.line(
                    f"{vv} = np.asarray({rb}(ctx, node[{wi}], "
                    f"{rep}, {cur_dict})).astype({db}, copy=False)"
                )
                ff = w.fresh("f")
                w.line(f"{ff} = np.empty_like({new_full[r.name]})")
                w.line(f"{ff}[{wi}] = {vv}")
                push_map[r.name] = ff
            pm = w.fresh("p")
            if op.visits_null:
                w.line(f"{pm} = {wn}")
            else:
                w.line(f"{pm} = {wn} & ({ch} >= 0)")
            w.line(f"stats.warp_instructions += 1.0 * {ni}")
            # -- stack.push, inlined --
            w.line(f"if {pm}.any():")
            w.indent()
            dm = w.fresh("dm")
            w.line(f"{dm} = int(sp.max(initial=0, where={pm})) + 1")
            w.line(f"if {dm} > stack._capacity:")
            w.indent()
            w.line(f"stack._grow({dm})")
            self._emit_stack_refresh(channels_only=True)
            w.dedent()
            ix = w.fresh("ix")
            dp = w.fresh("dp")
            w.line(f"{ix} = np.flatnonzero({pm})")
            w.line(f"{dp} = sp[{ix}]")
            w.line(f"chn[{ix}, {dp}] = {ch}[{ix}]")
            w.line(f"chm[{ix}, {dp}] = {mk}[{ix}]")
            for name in self.variant_names:
                w.line(f"cha_{name}[{ix}, {dp}] = {push_map[name]}[{ix}]")
            self._emit_stack_account(pm, "sp", f"len({ix})")
            w.line(f"sp[{ix}] += 1")
            w.line(f"stack.high_water = max(stack.high_water, {dm})")
            w.dedent()
        w.dedent()
        self._emit_prof(n)


@register_pass
class EmitAutoropesLoop(_LoopEmitterBase):
    """Emit the per-thread autoropes loop (the Fig. 6/7 shape).

    Like the lockstep backend, this one inlines the per-step hot path:
    the rope-stack pop and every push with their traffic accounting
    (on the interleaved layout, the storage's structural segment path
    whenever its precondition holds), per-lane issue accounting, child
    lookups from arrays bound in the prelude, and the per-point visit
    count.  Each mask's per-warp row counts are reduced once and reused
    by every op under that mask — a push group's issue calls share
    their divergence terms — while each stat still accumulates one
    call at a time, in the interpreter's order.
    """

    kind = "autoropes"

    def _mask_col(self, var: str) -> str:
        return f"{var}.reshape(-1, ws)"

    def _addr_expr(self, group: str) -> str:
        # Region.addresses inlined: base + index * itemsize.
        return (
            f"({self._rb[group]} + safe_node * {self._it[group]})"
            ".reshape(-1, ws)"
        )

    def apply(self, unit: EmitUnit) -> None:
        self._setup(unit)
        self._mstats: Dict[str, tuple] = {}
        self._derive: Dict[str, tuple] = {}
        #: lane-count variables of masks whose count is in scope
        self._mcount: Dict[str, str] = {}
        #: issue divergence terms per row-count variable
        self._terms: Dict[str, tuple] = {}
        w = self.w
        facts = unit.facts
        WS = facts.ws
        self._emit_prelude_common()
        w.line("pt = ex.pt")
        w.line("inv = ex._invariant_args")
        w.line("vpp = ex._visits_per_point")
        w.line("wls = ex._warp_live_steps")
        self._emit_stack_prelude()
        if facts.compact:
            w.line("ids = ex._warp_ids if ex._compacted else None")
            w.line("vd = vlanes if ids is None else vlanes[ids]")
        else:
            w.line("vd = vlanes")
        w.line("try:")
        w.indent()
        w.line("while True:")
        w.indent()
        w.line("sp = stack.sp")
        w.line("live = sp > 0")
        w.line("if not live.any():")
        w.indent()
        w.line("break")
        w.dedent()
        w.line("step += 1")
        w.line("ex._step = step")
        w.line("steps += 1")
        if facts.need_guard:
            w.line("stats.steps += steps")
            w.line("steps = 0")
            w.line("L.guard(step, stack)")
            w.line("sp = stack.sp")
            w.line("live = sp > 0")
        # the live warps' stats also drive the compaction trigger
        cn, wn, ni = self._emit_mask_stats("live")
        if facts.compact:
            w.line(f"grps = len(sp) // {WS}")
            w.line(
                f"if grps >= {MIN_COMPACT_WARPS} "
                f"and {ni} < grps * threshold:"
            )
            w.indent()
            w.line(f"ex._compact_groups({wn}.nonzero()[0])")
            w.line("pt = ex.pt")
            w.line("inv = ex._invariant_args")
            w.line("ids = ex._warp_ids")
            w.line("vd = vlanes[ids]")
            self._emit_stack_refresh()
            w.line("sp = stack.sp")
            w.line("live = sp > 0")
            w.line(f"{cn} = live.reshape(-1, ws).sum(axis=1)")
            w.line(f"{wn} = {cn} > 0")
            w.line(f"{ni} = int({wn}.sum())")
            w.dedent()
        # -- pop, inlined (one entry off every non-empty stack) --
        if facts.validate:
            w.line("if np.any(live & (sp == 0)):")
            w.indent()
            w.line("raise IndexError('pop from empty rope stack')")
            w.dedent()
        # live is exactly sp > 0, so where(live, sp - 1, sp) is a
        # clamped decrement and the popped row is new_sp itself.
        w.line("new_sp = np.maximum(sp - 1, 0)")
        w.line("ri = roff + new_sp")
        w.line("node = chn.take(ri)")
        for name in self.variant_names:
            w.line(f"a_{name} = cha_{name}.take(ri)")
        nl = w.fresh("nl")
        w.line(f"{nl} = int({cn}.sum())")
        self._emit_stack_account("live", "new_sp", nl)
        w.line("stack.sp = new_sp")
        w.line("sp = new_sp")
        if facts.validate:
            w.line("validate_popped_nodes(node, live, n_nodes, step)")
        for name in self.invariant_names:
            w.line(f"a_{name} = inv[{name!r}]")
        w.line("useful = live & (node >= 0)")
        w.line("n_useful = useful.sum()")
        w.line("node_visits += n_useful")
        # the popping warps are exactly the rows with a live lane
        w.line(f"warp_node_visits += {ni}")
        if facts.compact:
            w.line("if ids is None:")
            w.indent()
            w.line(f"wls += {wn}")
            w.dedent()
            w.line("else:")
            w.indent()
            w.line(f"wls[ids] += {wn}")
            w.dedent()
        else:
            w.line(f"wls += {wn}")
        # a step's point ids are distinct (one point per thread), so a
        # fancy-index increment counts each exactly once.
        w.line("vpp[pt[useful]] += 1")
        if facts.visit_log:
            w.line("vl = np.nonzero(useful)[0]")
            w.line("vlog.append((pt[vl].copy(), node[vl].copy()))")
        if facts.prof:
            w.line("prof.sync(stats)")
            w.line("prof.note_depth(node, useful)")
        self._emit_charge_inits()
        if facts.trace:
            w.line("tb = stats.global_transactions")
        self._mcount["live"] = nl
        self._emit_seq(unit.nodes, "live")
        if facts.trace:
            w.line(
                f"trace.record({ni}, int(n_useful), "
                "stats.global_transactions - tb)"
            )
        w.dedent()  # while
        self._emit_finally()
        unit.source = w.source()

    # -- mask statistics ---------------------------------------------------

    def _emit_mask_stats(self, lv: str):
        """Per-warp lane counts, issuing warps and their count for ``lv``.

        Reduced once per mask and shared by the charge, issue and push
        emission of every op under it.  An else-arm mask, whose then-arm
        sibling's counts are already in scope, is the parent's counts
        minus the sibling's (the arms partition the parent's lanes), so
        it needs no new ``(rows, ws)`` reduction.
        """
        st = self._mstats.get(lv)
        if st is not None:
            return st
        w = self.w
        cn = w.fresh("cn")
        wn = w.fresh("wn")
        ni = w.fresh("ni")
        d = self._derive.pop(lv, None)
        if d is not None:
            w.line(f"{cn} = {d[0]} - {d[1]}")
        else:
            w.line(f"{cn} = {lv}.reshape(-1, ws).sum(axis=1)")
        w.line(f"{wn} = {cn} > 0")
        w.line(f"{ni} = int({wn}.sum())")
        st = (cn, wn, ni)
        self._mstats[lv] = st
        return st

    def _emit_seq(self, nodes: List[ONode], lv: str):
        """Guarded op sequence over ``lv``, guarding on its cached count.

        The entry stats are reduced before the guard opens, so they stay
        in scope after it; stats reduced inside the guard are dropped on
        exit.  A condition rebinds its mask (``lv = tl | el``), so the
        ops after it re-reduce and re-guard.  Returns the entry stats.
        """
        if not nodes:
            return None
        w = self.w
        entry = self._emit_mask_stats(lv)
        terms_before = dict(self._terms)
        w.line(f"if {entry[2]}:")
        w.indent()
        opened = 1
        rebound = False
        for i, n in enumerate(nodes):
            if i > 0 and nodes[i - 1].kind == "cond":
                st = self._emit_mask_stats(lv)
                w.line(f"if {st[2]}:")
                w.indent()
                opened += 1
            self._emit_node(n, lv)
            rebound = rebound or n.kind in ("cond", "continue")
        for _ in range(opened):
            w.dedent()
        # terms emitted inside the guard are out of scope past it
        self._terms = terms_before
        if rebound:
            self._forget(lv)
        else:
            self._mstats[lv] = entry
        return entry

    def _forget(self, lv: str) -> None:
        """``lv`` was rebound: its cached stats no longer describe it."""
        self._mstats.pop(lv, None)
        self._mcount.pop(lv, None)

    def _emit_node(self, n: ONode, lv: str) -> None:
        if n.kind == "continue":
            self.w.line(f"{lv} = np.zeros_like({lv})")
            self._forget(lv)
            return
        super()._emit_node(n, lv)

    def _issue_terms(self, cn: str, wn: str):
        """Issue divergence terms for a mask's stats, emitted once per
        sequence: ops under the same mask issue identical terms."""
        if cn not in self._terms:
            self._terms[cn] = self._emit_issue_terms(cn, wn)
        return self._terms[cn]

    def _emit_op_charges(self, n: ONode, lv: str, cn: str) -> None:
        if not n.charges:
            return
        nl = self._mcount.get(lv)
        if nl is None:
            nl = self.w.fresh("nl")
            self.w.line(f"{nl} = int({cn}.sum())")
        self._emit_charges(n, lv, nl)

    # -- ops -----------------------------------------------------------------

    def _emit_cond(self, n: ONode, lv: str) -> None:
        w = self.w
        op = n.op
        fn = self._bind("C", op.fn)
        cn, wn, ni = self._emit_mask_stats(lv)
        self._emit_op_charges(n, lv, cn)
        cost = repr(float(op.cost))
        self._emit_issue_add(cost, ni, self._issue_terms(cn, wn))
        ix = w.fresh("i")
        w.line(f"{ix} = {lv}.nonzero()[0]")
        r = w.fresh("r")
        w.line(
            f"{r} = {fn}(ctx, node[{ix}], pt[{ix}], {self._sub(f'[{ix}]')})"
        )
        tl = w.fresh("tl")
        el = w.fresh("el")
        # tl = lv & cond, el = lv & ~cond, with cond scattered to lv's
        # lanes: tl holds the results there, el the rest of lv.
        w.line(f"{tl} = np.zeros_like({lv})")
        w.line(f"{tl}[{ix}] = np.asarray({r}, dtype=bool)")
        w.line(f"{el} = {lv} ^ {tl}")
        self._emit_prof(n)
        then_nodes = n.then or []
        if len(then_nodes) == 1 and then_nodes[0].kind == "continue":
            # A lone Continue arm only zeroes its mask, so the merge
            # tl | el is el itself: skip the arm.
            tstats = None
        else:
            tstats = self._emit_seq(then_nodes, tl)
        if n.orelse is not None:
            if tstats is not None:
                self._derive[el] = (cn, tstats[0])
            self._emit_seq(n.orelse, el)
        if tstats is None and then_nodes:
            w.line(f"{lv} = {el}")
        else:
            w.line(f"{lv} = {tl} | {el}")
        self._forget(lv)

    def _emit_update(self, n: ONode, lv: str) -> None:
        w = self.w
        op = n.op
        cn, wn, ni = self._emit_mask_stats(lv)
        self._emit_op_charges(n, lv, cn)
        cost = repr(float(op.cost))
        self._emit_issue_add(cost, ni, self._issue_terms(cn, wn))
        ix = w.fresh("i")
        w.line(f"{ix} = {lv}.nonzero()[0]")
        ufn = self._bind("U", op.fn)
        w.line(
            f"{ufn}(ctx, node[{ix}], pt[{ix}], {self._sub(f'[{ix}]')})"
        )
        self._emit_prof(n)

    def _emit_push(self, n: ONode, lv: str) -> None:
        w = self.w
        op = n.op
        cn, wn, ni = self._emit_mask_stats(lv)
        self._emit_op_charges(n, lv, cn)
        new_full: Dict[str, str] = {}
        cur_sub: Dict[str, str] = {}
        ix = None
        if op.needs_rules:
            ix = w.fresh("i")
            w.line(f"{ix} = {lv}.nonzero()[0]")
            for name in self.arg_names:
                sv = w.fresh("s")
                w.line(f"{sv} = a_{name}[{ix}]")
                cur_sub[name] = sv
            orig_dict = (
                "{"
                + ", ".join(f"'{k}': {v}" for k, v in cur_sub.items())
                + "}"
            )
            for r in op.variant_rules:
                if r.rule is None:
                    new_full[r.name] = f"a_{r.name}"
                else:
                    rb = self._bind("R", r.rule)
                    db = self._bind("D", r.dtype)
                    vv = w.fresh("v")
                    w.line(
                        f"{vv} = np.asarray({rb}(ctx, node[{ix}], "
                        f"pt[{ix}], {orig_dict})).astype({db}, copy=False)"
                    )
                    ff = w.fresh("f")
                    w.line(f"{ff} = np.empty_like(a_{r.name})")
                    w.line(f"{ff}[{ix}] = {vv}")
                    new_full[r.name] = ff
                    cur_sub[r.name] = vv
        else:
            for r in op.variant_rules:
                new_full[r.name] = f"a_{r.name}"
        # every call issues under the same mask: one set of terms
        terms = self._issue_terms(cn, wn)
        self._ensure_safe_node()
        nn = w.fresh("nn")
        w.line(f"{nn} = node >= 0")
        if len(op.calls) > 1 and not any(c.overrides for c in op.calls):
            # Calls that differ only in the child array run as one
            # loop body, in push order: the same accounting sequence,
            # a fraction of the source (and of its compile peak).
            ct = w.fresh("ct")
            arrs = ", ".join(self._childarr[c.child] for c in op.calls)
            w.line(f"for {ct} in ({arrs}):")
            w.indent()
            self._emit_push_call(ct, nn, new_full, lv, ni, terms, op)
            w.dedent()
        else:
            for call in op.calls:
                push_map = dict(new_full)
                for r in call.overrides or ():
                    rb = self._bind("R", r.rule)
                    db = self._bind("D", r.dtype)
                    cur_dict = (
                        "{"
                        + ", ".join(f"'{k}': {v}" for k, v in cur_sub.items())
                        + "}"
                    )
                    vv = w.fresh("v")
                    w.line(
                        f"{vv} = np.asarray({rb}(ctx, node[{ix}], "
                        f"pt[{ix}], {cur_dict})).astype({db}, copy=False)"
                    )
                    ff = w.fresh("f")
                    w.line(f"{ff} = np.empty_like({new_full[r.name]})")
                    w.line(f"{ff}[{ix}] = {vv}")
                    push_map[r.name] = ff
                self._emit_push_call(
                    self._childarr[call.child], nn, push_map, lv, ni, terms, op
                )
        self._emit_prof(n)

    def _emit_push_call(self, ct, nn, push_map, lv, ni, terms, op) -> None:
        """One child push: lookup, issue, and ``stack.push`` inlined."""
        w = self.w
        ch = w.fresh("ch")
        w.line(f"{ch} = np.where({nn}, {ct}[safe_node], -1)")
        pm = w.fresh("p")
        if op.visits_null:
            w.line(f"{pm} = {lv}")
        else:
            w.line(f"{pm} = {lv} & ({ch} >= 0)")
        self._emit_issue_add("1.0", ni, terms)
        px = w.fresh("px")
        w.line(f"{px} = {pm}.nonzero()[0]")
        w.line(f"if len({px}):")
        w.indent()
        dp = w.fresh("dp")
        dm = w.fresh("dm")
        w.line(f"{dp} = sp[{px}]")
        w.line(f"{dm} = int({dp}.max()) + 1")
        w.line(f"if {dm} > stack._capacity:")
        w.indent()
        w.line(f"stack._grow({dm})")
        self._emit_stack_refresh(channels_only=True)
        w.dedent()
        w.line(f"chn[{px}, {dp}] = {ch}[{px}]")
        for name in self.variant_names:
            w.line(f"cha_{name}[{px}, {dp}] = {push_map[name]}[{px}]")
        self._emit_stack_account(pm, "sp", f"len({px})", sel=(px, dp))
        w.line(f"sp[{px}] = {dp} + 1")
        w.line(f"stack.high_water = max(stack.high_water, {dm})")
        w.dedent()


# -- figure renderers and the scalar backend ---------------------------------
#
# The remaining source-emitting paths in the repo, folded into the same
# registry: the Fig. 4-8 pseudocode pretty-printers (documentation and
# shape-asserting tests; entry points below: :func:`render_recursive`,
# :func:`render_iterative`) and the standalone per-point Python
# traversal, which the service runs for its CPU backend and similarity
# probe (entry points below: :func:`compile_traversal`,
# :func:`traversal_for`).


@register_pass
class RenderRecursivePseudocode(EmitPass):
    """Render a TraversalSpec in the paper's Fig. 4/5 recursive style."""

    def can_apply(self, unit: EmitUnit) -> bool:
        return (
            unit.mode == "render_recursive"
            and unit.spec is not None
            and not unit.source
        )

    def apply(self, unit: EmitUnit) -> None:
        spec = unit.spec
        arg_list = "".join(f", {a.name}" for a in spec.args)
        lines = [f"void {spec.name}(node node, point pt{arg_list}) {{"]
        self._emit(spec.body, lines, 1, spec)
        lines.append("}")
        unit.source = "\n".join(lines)

    def _emit(
        self, stmt: Stmt, lines: List[str], depth: int, spec: TraversalSpec
    ) -> None:
        pad = _INDENT * depth
        if isinstance(stmt, Seq):
            for s in stmt.stmts:
                self._emit(s, lines, depth, spec)
        elif isinstance(stmt, If):
            lines.append(f"{pad}if ({stmt.cond.name}(node, pt)) {{")
            self._emit(stmt.then, lines, depth + 1, spec)
            if stmt.orelse is not None:
                lines.append(f"{pad}}} else {{")
                self._emit(stmt.orelse, lines, depth + 1, spec)
            lines.append(f"{pad}}}")
        elif isinstance(stmt, Update):
            lines.append(f"{pad}{stmt.fn.name}(node, pt);")
        elif isinstance(stmt, Return):
            lines.append(f"{pad}return;")
        elif isinstance(stmt, Recurse):
            args = "".join(
                f", {name}={rule}" for name, rule in stmt.arg_overrides
            )
            lines.append(f"{pad}recurse(node.{stmt.child.name}, pt{args});")
        else:
            raise TypeError(f"cannot render {type(stmt).__name__}")


@register_pass
class RenderIterativePseudocode(EmitPass):
    """Render an autoropes/lockstep kernel in the Fig. 6/7/8 style."""

    def can_apply(self, unit: EmitUnit) -> bool:
        return (
            unit.mode == "render_iterative"
            and unit.kernel is not None
            and not unit.source
        )

    def apply(self, unit: EmitUnit) -> None:
        kernel = unit.kernel
        spec = kernel.spec
        invariant = "".join(f", {a.name}" for a in spec.invariant_args)
        lines = [f"void {spec.name}(node root, point pt{invariant}) {{"]
        body_pad = _INDENT
        lines.append(f"{body_pad}stack stk = new stack();")
        init_payload = ["root"]
        init_payload += [a.name for a in spec.variant_args]
        if kernel.lockstep:
            lines.append(f"{body_pad}uint mask;")
            init_payload.append("~0 /* all threads active */")
        lines.append(f"{body_pad}stk.push({', '.join(init_payload)});")
        lines.append(f"{body_pad}while (!stk.is_empty()) {{")
        pops = ["node"] + [a.name for a in spec.variant_args]
        if kernel.lockstep:
            pops.append("mask")
        for i, name in enumerate(pops):
            lines.append(f"{body_pad * 2}{name} = stk.peek({i});")
        lines.append(f"{body_pad * 2}stk.pop();")
        if kernel.lockstep:
            lines.append(f"{body_pad * 2}if (bit_set(mask, threadId)) {{")
            self._emit(kernel.body, lines, 3, kernel)
            lines.append(f"{body_pad * 2}}}")
        else:
            self._emit(kernel.body, lines, 2, kernel)
        lines.append(f"{body_pad}}}")
        lines.append("}")
        unit.source = "\n".join(lines)

    def _emit(
        self, stmt: Stmt, lines: List[str], depth: int, kernel: IterativeKernel
    ) -> None:
        pad = _INDENT * depth
        if isinstance(stmt, Seq):
            for s in stmt.stmts:
                self._emit(s, lines, depth, kernel)
        elif isinstance(stmt, If):
            call = f"{stmt.cond.name}(node, pt)"
            if stmt.cond.name in kernel.vote_conditions:
                call = f"warp_majority({call})"
            lines.append(f"{pad}if ({call}) {{")
            self._emit(stmt.then, lines, depth + 1, kernel)
            if stmt.orelse is not None:
                lines.append(f"{pad}}} else {{")
                self._emit(stmt.orelse, lines, depth + 1, kernel)
            lines.append(f"{pad}}}")
        elif isinstance(stmt, Update):
            lines.append(f"{pad}{stmt.fn.name}(node, pt);")
        elif isinstance(stmt, Continue):
            if kernel.lockstep:
                lines.append(f"{pad}bit_clear(mask, threadId);")
            else:
                lines.append(f"{pad}continue;")
        elif isinstance(stmt, PushGroup):
            if kernel.lockstep:
                lines.append(f"{pad}mask = warp_ballot(mask);")
                lines.append(f"{pad}if (mask != 0) {{")
                inner = _INDENT * (depth + 1)
                for call in stmt.push_order:
                    payload = self._push_payload(call, kernel, with_mask=True)
                    lines.append(f"{inner}stk.push({payload});")
                lines.append(f"{pad}}}")
            else:
                for call in stmt.push_order:
                    payload = self._push_payload(call, kernel, with_mask=False)
                    lines.append(f"{pad}stk.push({payload});")
        else:
            raise TypeError(f"cannot render {type(stmt).__name__}")

    def _push_payload(
        self, call: Recurse, kernel: IterativeKernel, with_mask: bool
    ) -> str:
        parts = [f"node.{call.child.name}"]
        parts.extend(a.name for a in kernel.spec.variant_args)
        if with_mask:
            parts.append("mask")
        return ", ".join(parts)


_SCALAR_PRELUDE = '''\
def {name}(ctx, tree, pt, root, max_visits=10_000_000):
    """Generated by repro.core.passes.EmitScalarPython — do not edit.

    Standalone autoropes traversal for one point: returns the visited
    node ids in order and applies updates to ``ctx.out``.  More than
    ``max_visits`` visits raise RuntimeError (a cyclic child array or
    a runaway spec), as in the recursive interpreter.
    """
    visits = []
    visit = visits.append
'''

#: node-id table behind the scalar traversal's node arrays: row ``i``
#: is a read-only one-element view holding ``i``, so a visit hands its
#: callbacks one node array without allocating or copying data.  One
#: table serves every kernel, so memory does not grow with the number
#: of sessions; it only ever grows to the largest tree walked, and its
#: contents are a function of the row index, so sharing it is
#: unobservable.
_NODE_ROWS = np.zeros((0, 1), dtype=np.int64)


def _node_rows(n: int) -> np.ndarray:
    global _NODE_ROWS
    rows = _NODE_ROWS
    if len(rows) < n:
        rows = np.arange(max(n, 2 * len(rows)), dtype=np.int64).reshape(-1, 1)
        rows.flags.writeable = False
        _NODE_ROWS = rows
    return rows


def _readonly1(value) -> np.ndarray:
    """A read-only one-element int64 array (the point, a null node)."""
    arr = np.array([value], dtype=np.int64)
    arr.flags.writeable = False
    return arr


# -- declared bodies as scalar Python ----------------------------------------
#
# EmitScalarPython inlines a spec's declared bodies (repro.core.ir.Body)
# as plain float arithmetic over flat memoryviews of the walk's arrays:
# indexing a view yields a Python float, int or bool, so a visit makes
# no NumPy call.  The views are built once per walk from its ``tree``
# and ``ctx`` arguments, without copying; a walk whose arrays do not
# have the declared dtypes and shapes runs the call path instead.


def sq_norm_expr(elems: Sequence[str]) -> str:
    """Python source for the sum of squares of ``elems`` (names), in
    the order ``np.einsum("ij,ij->i", x, x)`` adds them for one row on
    an x86-64 host without FMA.

    That is not left to right: einsum keeps two lanes, one over the
    even and one over the odd elements, each adding whole blocks of
    eight in reverse and the rest in order, and returns lane 0 plus
    lane 1.  :func:`einsum_order_holds` checks this against the host's
    NumPy before any lowering relies on it.
    """
    n = len(elems)
    lanes = []
    for lane in (0, 1):
        order, i = [], 0
        while n - i >= 8:
            order += [elems[i + 2 * k + lane] for k in (3, 2, 1, 0)]
            i += 8
        order += elems[i + lane : n : 2]
        lanes.append(" + ".join(f"{e} * {e}" for e in order))
    return f"{lanes[0]} + ({lanes[1]})" if lanes[1] else lanes[0]


_EINSUM_ORDER: Dict[int, bool] = {}


def einsum_order_holds(n: int) -> bool:
    """Whether :func:`sq_norm_expr` reproduces this host's
    ``np.einsum("ij,ij->i")`` bit for bit on one-row arrays of ``n``
    elements, over 256 seeded rows whose magnitudes span eight decades
    (where other summation orders differ on a large share of rows).
    Checked once per ``n``; emission keeps a spec on the call path
    when it fails."""
    ok = _EINSUM_ORDER.get(n)
    if ok is None:
        names = [f"x{j}" for j in range(n)]
        reduce = eval(f"lambda {', '.join(names)}: {sq_norm_expr(names)}")
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((256, n)) * 10.0 ** rng.integers(-4, 5, (256, n))
        ok = all(
            np.einsum("ij,ij->i", x, x)[0] == reduce(*x[0].tolist())
            for x in (row[None].copy() for row in rows)
        )
        _EINSUM_ORDER[n] = ok
    return ok


#: dtype of each declared element kind, and the view format reading it.
_KIND_DTYPE = {
    "f": np.dtype(np.float64),
    "i": np.dtype(np.int64),
    "b": np.dtype(np.bool_),
}
_KIND_FORMAT = {"f": "d", "i": "q", "b": "?"}


class _NoView(Exception):
    """An array is not what a declared body reads."""


#: what a walk's prologue raises when its arrays are not as declared
#: (missing, of another type, dtype or shape, or ``pt`` out of range);
#: the walk then runs the call path, which reproduces the callables'
#: behaviour exactly, errors included.
_NO_VIEW = (_NoView, LookupError, AttributeError, TypeError, ValueError)


def _flat(arr, kind: str, width: int = 0, writable: bool = False) -> memoryview:
    """A flat zero-copy view of ``arr``'s elements: ``arr`` must be a
    C-contiguous ndarray of ``kind``, 1-D (``width`` 0), ``(n, width)``
    or, for ``width`` -1, any 2-D shape."""
    if (
        type(arr) is not np.ndarray
        or arr.dtype != _KIND_DTYPE[kind]
        or not arr.flags.c_contiguous
        or (writable and not arr.flags.writeable)
        or arr.ndim != (1 if width == 0 else 2)
        or (width > 0 and arr.shape[1] != width)
    ):
        raise _NoView
    return memoryview(arr).cast("B").cast(_KIND_FORMAT[kind])


def _grid(arr, kind: str, width: int) -> memoryview:
    """A 2-D zero-copy view of an ``(n, width)`` array, indexed
    ``view[i, j]`` with NumPy's wrap of negative indices."""
    return _flat(arr, kind, width).cast("B").cast(_KIND_FORMAT[kind], arr.shape)


def _cell(arr, pt: int, col: Optional[int] = None) -> int:
    """The flat index of ``arr[pt]`` (1-D) or ``arr[pt, col]`` (2-D),
    negative indices wrapping as in NumPy."""
    if col is None:
        return range(len(arr))[pt]
    n, m = arr.shape
    return range(n)[pt] * m + range(m)[col]


def _row(dist, ids, pt: int) -> Tuple[int, int]:
    """Flat base index and length of row ``pt`` of two equal-shape
    2-D arrays."""
    if dist.shape != ids.shape:
        raise _NoView
    return _cell(dist, pt, 0), dist.shape[1]


def _query_row(coords, pt: int, dim: int) -> List[float]:
    """``coords[pt]`` as Python floats, for a float64 ``(n, dim)``
    array."""
    if (
        type(coords) is not np.ndarray
        or coords.dtype != _KIND_DTYPE["f"]
        or coords.shape[1:] != (dim,)
    ):
        raise _NoView
    return coords[pt].tolist()


def _query_id(ids, pt: int) -> int:
    return _flat(ids, "i")[_cell(ids, pt)]


def _topk_insert(dist, ids, base: int, k: int, value: float, ident: int) -> None:
    """knn's insert on flat views: put ``(value, ident)`` last in the
    ``k``-long rows at ``base``, then reorder both rows as NumPy's
    stable argsort of the distances does (NaNs last)."""
    end = base + k
    dist[end - 1] = value
    ids[end - 1] = ident
    ds = dist[base:end].tolist()
    js = ids[base:end].tolist()
    order = sorted(range(k), key=lambda j: (ds[j] != ds[j], ds[j]))
    for j, src in enumerate(order):
        dist[base + j] = ds[src]
        ids[base + j] = js[src]


class _Unlowerable(Exception):
    """A declared body this lowering does not cover (it keeps the call
    path)."""


def _ident(text: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in text)


class _ScalarBodies:
    """Lowers a spec's declared bodies for :class:`EmitScalarPython`.

    :meth:`lower` writes one body's statements into the walk's loop;
    every array, query value and parameter the lowered bodies read
    becomes one line of the walk's prologue (:meth:`emit_prologue`),
    built once per walk.
    """

    def __init__(self, spec: TraversalSpec, ns: Dict[str, object]) -> None:
        self.spec = spec
        self.ns = ns
        #: prologue assignments, in first-use order: target -> source.
        self.prologue: Dict[str, str] = {}
        #: element kind and width of every view, by local name.
        self.views: Dict[str, Tuple[str, int]] = {}

    @classmethod
    def for_spec(cls, spec: TraversalSpec, ns) -> Optional["_ScalarBodies"]:
        """The lowering of ``spec``'s bodies, or ``None`` when it has
        none or the host's einsum order is not the one lowered."""
        if not spec.bodies:
            return None
        dims = {
            body.dim
            for body in spec.bodies.values()
            if any(isinstance(e, SqNorm) for e in body.exprs())
        }
        if not all(einsum_order_holds(d) for d in sorted(dims)):
            return None
        return cls(spec, ns)

    # -- entry points ----------------------------------------------------

    def lower(self, name: str, condition: bool, w: SourceWriter) -> Optional[str]:
        """Write the declared body of callback ``name`` into ``w``.

        Returns a condition's test, ``""`` for an update, or ``None``
        (nothing written) when the callback keeps the call path: no
        body of that kind is declared, or it does not lower.
        """
        body = self.spec.bodies.get(name)
        if body is None or body.is_condition != condition:
            return None
        scratch = SourceWriter()
        scratch.depth, scratch._fresh = w.depth, w._fresh
        saved = (dict(self.prologue), dict(self.views))
        self.w, self.dim, self.cb = scratch, body.dim, name
        self.vars: Dict[str, str] = {}
        self.slot: Optional[str] = None
        self.bucket: Mapping[str, np.ndarray] = {}
        try:
            scratch.line(f"# {name}: declared body")
            if self._uses_node_base(body.exprs()):
                scratch.line(f"nb = {self._scaled('node')}")
            if condition:
                result = self._scalar(body.code)
            else:
                for stmt in body.code:
                    self._stmt(stmt)
                result = ""
        except _Unlowerable:
            self.prologue, self.views = saved
            return None
        w.lines.extend(scratch.lines)
        w._fresh = scratch._fresh
        return result

    def emit_prologue(self, w: SourceWriter) -> None:
        w.line("try:")
        w.indent()
        for target, source in self.prologue.items():
            w.line(f"{target} = {source}")
        w.dedent()
        w.line("except _NO_VIEW:")
        w.line(f"{_INDENT}return _call_path(ctx, tree, pt, root, max_visits)")

    # -- prologue entries ------------------------------------------------

    def _need(self, target: str, source: str) -> str:
        if self.prologue.setdefault(target, source) != source:
            raise _Unlowerable(f"{target} read two ways")
        return target

    def _view(self, local: str, source: str, kind: str, width: int) -> str:
        if self.views.setdefault(local, (kind, width)) != (kind, width):
            raise _Unlowerable(f"{local} read as two kinds or shapes")
        return self._need(local, source)

    def _field(self, name: str, kind: str, width: int) -> str:
        return self._view(
            f"f_{_ident(name)}",
            f"_flat(tree.arrays[{name!r}], {kind!r}, {width})",
            kind,
            width,
        )

    def _out(self, name: str, kind: str, width: int) -> str:
        return self._view(
            f"o_{_ident(name)}",
            f"_flat(ctx.out[{name!r}], {kind!r}, {width}, True)",
            kind,
            width,
        )

    def _out_cell(self, name: str, kind: str, col: Optional[int]) -> str:
        if col is not None and type(col) is not int:
            raise _Unlowerable(f"column {col!r} of {name!r} is not an int literal")
        view = self._out(name, kind, 0 if col is None else -1)
        if col is None:
            index = self._need(f"i_{_ident(name)}", f"_cell(ctx.out[{name!r}], pt)")
        else:
            index = self._need(
                f"i_{_ident(name)}_{'m' if col < 0 else ''}{abs(col)}",
                f"_cell(ctx.out[{name!r}], pt, {col})",
            )
        return f"{view}[{index}]"

    def _query(self) -> List[str]:
        if self.dim < 1:
            raise _Unlowerable("a query read in a body without rows")
        coords = [f"q_{j}" for j in range(self.dim)]
        self._need("q_row", f"_query_row(ctx.points.coords, pt, {self.dim})")
        self._need(", ".join(coords) + ("," if self.dim == 1 else ""), "q_row")
        return coords

    def _bucket_view(self, name: str, kind: str, width: int) -> str:
        if self.slot is None or name not in self.bucket:
            raise _Unlowerable(f"bucket array {name!r} read outside its loop")
        try:
            view = _flat(self.bucket[name], kind, width)
        except _NoView:
            raise _Unlowerable(f"bucket array {name!r} is not as declared")
        key = f"{_ident(self.cb)}_{_ident(name)}"
        self.ns[f"_bk_{key}"] = view
        return self._view(f"b_{key}", f"_bk_{key}", kind, width)

    # -- expressions -----------------------------------------------------

    def _scaled(self, index: str) -> str:
        return index if self.dim == 1 else f"{index} * {self.dim}"

    @staticmethod
    def _uses_node_base(exprs) -> bool:
        return any(
            isinstance(e, NodeRow)
            or (isinstance(e, NodeField) and isinstance(e.col, Const))
            for e in exprs
        )

    def _simple(self, expr: str) -> str:
        """``expr`` itself when it is a name or a number, else a fresh
        local holding it (an operand used twice is evaluated once)."""
        if expr.isidentifier() or expr.lstrip("-").replace(".", "", 1).isdigit():
            return expr
        var = self.w.fresh("t")
        self.w.line(f"{var} = {expr}")
        return var

    def _column(self, col: int) -> int:
        """A literal column, wrapped like a NumPy index."""
        if not -self.dim <= col < self.dim:
            raise _Unlowerable(f"column {col} outside a {self.dim}-wide row")
        return col % self.dim

    @staticmethod
    def _offset(base: str, j: int) -> str:
        return f"{base} + {j}" if j else base

    def _scalar(self, e: Expr) -> str:
        if e.row:
            raise _Unlowerable("a row where a scalar is needed")
        t = type(e)
        if t is Const:
            return repr(e.value)
        if t is Param:
            return self._need(f"p_{_ident(e.name)}", f"float(ctx.params[{e.name!r}])")
        if t is NodeField:
            if e.col is None:
                return f"{self._field(e.name, e.kind, 0)}[node]"
            if isinstance(e.col, Const):
                view = self._field(e.name, e.kind, self.dim)
                return f"{view}[{self._offset('nb', self._literal(e.col))}]"
            grid = self._view(
                f"g_{_ident(e.name)}",
                f"_grid(tree.arrays[{e.name!r}], {e.kind!r}, {self.dim})",
                e.kind,
                self.dim,
            )
            return f"{grid}[node, {self._index(e.col)}]"
        if t is QueryCoord:
            coords = self._query()
            if isinstance(e.col, Const):
                return coords[self._literal(e.col)]
            return f"q_row[{self._index(e.col)}]"
        if t is QueryId:
            return self._need("q_id", "_query_id(ctx.points.orig_ids, pt)")
        if t is OutField:
            return self._out_cell(e.name, e.kind, e.col)
        if t is SlotField:
            return f"{self._bucket_view(e.name, e.kind, 0)}[{self.slot}]"
        if t is Var:
            if e.name not in self.vars:
                raise _Unlowerable(f"Var {e.name!r} read before its Let")
            return self.vars[e.name]
        if t is BinOp:
            return f"({self._scalar(e.a)} {e.op} {self._scalar(e.b)})"
        if t in (Min, Max):
            return self._extremum(e, self._scalar(e.a), self._scalar(e.b))
        if t is SqNorm:
            return f"({sq_norm_expr([self._simple(x) for x in self._row(e.x)])})"
        if t is Sqrt:
            return f"_sqrt{self._scalar(e.x)}"
        if t is Compare:
            if e.a.kind != e.b.kind:
                # NumPy would compare an int64 with a float64 as floats.
                raise _Unlowerable("a comparison of two kinds")
            return f"({self._scalar(e.a)} {e.op} {self._scalar(e.b)})"
        if t is And:
            return "(" + " and ".join(self._scalar(x) for x in e.terms) + ")"
        raise _Unlowerable(f"no scalar lowering for {t.__name__}")

    def _literal(self, col: Const) -> int:
        if col.kind != "i":
            raise _Unlowerable("a float column")
        return self._column(col.value)

    def _index(self, col: Expr) -> str:
        if col.kind != "i" or col.row:
            raise _Unlowerable("a computed column must be an int scalar")
        return self._scalar(col)

    def _extremum(self, e: Expr, a: str, b: str) -> str:
        """``np.maximum``/``np.minimum`` of two scalars: a NaN in either
        operand wins, and ``a`` is returned only when strictly beyond
        ``b`` (so ``maximum(-0.0, 0.0)`` is ``0.0``)."""
        if e.a.kind != e.b.kind:
            raise _Unlowerable("min/max of an int and a float")
        a, b = self._simple(a), self._simple(b)
        op = ">" if type(e) is Max else "<"
        if e.kind != "f":
            return f"({a} if {a} {op} {b} else {b})"
        return f"({a} if ({a} {op} {b} or {a} != {a}) else {b})"

    def _row(self, e: Expr) -> List[str]:
        t = type(e)
        if t is QueryRow:
            return self._query()
        if t is NodeRow:
            view = self._field(e.name, "f", self.dim)
            return [f"{view}[{self._offset('nb', j)}]" for j in range(self.dim)]
        if t is SlotRow:
            view = self._bucket_view(e.name, "f", self.dim)
            return [f"{view}[{self._offset('sb', j)}]" for j in range(self.dim)]
        if t is BinOp:
            return [
                f"({x} {e.op} {y})"
                for x, y in zip(self._elems(e.a), self._elems(e.b))
            ]
        if t in (Min, Max):
            return [
                self._extremum(e, x, y)
                for x, y in zip(self._elems(e.a), self._elems(e.b))
            ]
        raise _Unlowerable(f"no row lowering for {t.__name__}")

    def _elems(self, e: Expr) -> List[str]:
        """``e`` elementwise: a row's elements, or a scalar repeated."""
        if e.row:
            return self._row(e)
        return [self._simple(self._scalar(e))] * self.dim

    # -- statements ------------------------------------------------------

    def _checked(self, value: Expr, kind: str) -> str:
        if value.kind != kind:
            raise _Unlowerable(f"a {value.kind} value stored into a {kind} array")
        return self._scalar(value)

    def _stmt(self, s: BodyStmt) -> None:
        w, t = self.w, type(s)
        if t is Let:
            var = self.vars[s.name] = f"l_{_ident(s.name)}"
            w.line(f"{var} = {self._scalar(s.value)}")
        elif t is Store:
            w.line(f"if {self._scalar(s.when)}:")
            w.indent()
            if not s.writes:
                w.line("pass")
            # Every value is read before the first write, as NumPy
            # computes the masked right-hand sides before storing.
            values = [(name, self._simple(self._scalar(v))) for name, v in s.writes]
            for (name, value), (_, v) in zip(values, s.writes):
                w.line(f"{self._out_cell(name, v.kind, None)} = {value}")
            w.dedent()
        elif t is AddTo:
            test = self._scalar(s.when)
            value = self._scalar(s.value)
            w.line(f"if {test}:")
            w.line(f"{_INDENT}{self._out_cell(s.name, s.value.kind, None)} += {value}")
        elif t is TopKInsert:
            dist = self._out(s.dist, "f", -1)
            ids = self._out(s.ids, "i", -1)
            key = _ident(s.dist)
            row = self._need(
                f"rb_{key}, rk_{key}",
                f"_row(ctx.out[{s.dist!r}], ctx.out[{s.ids!r}], pt)",
            )
            base, k = row.split(", ")
            w.line(f"if {self._scalar(s.when)}:")
            w.indent()
            value = self._checked(s.value, "f")
            ident = self._checked(s.ident, "i")
            w.line(f"_topk_insert({dist}, {ids}, {base}, {k}, {value}, {ident})")
            w.dedent()
        elif t is LeafSlots:
            self._leaf_slots(s)
        else:
            raise _Unlowerable(f"no lowering for {t.__name__}")

    def _leaf_slots(self, s: LeafSlots) -> None:
        if self.slot is not None:
            raise _Unlowerable("nested LeafSlots")
        w = self.w
        start = self._simple(f"{self._field(s.start, 'i', 0)}[node]")
        count = self._simple(f"{self._field(s.count, 'i', 0)}[node]")
        bound = int(s.bound)
        slot = w.fresh("r")
        w.line(
            f"for {slot} in range({start}, {start} + "
            f"({count} if {count} < {bound} else {bound})):"
        )
        w.indent()
        self.slot, self.bucket = slot, s.bucket
        exprs = [e for st in s.body for x in st.walk() for r in x.exprs() for e in r.walk()]
        if any(isinstance(e, SlotRow) for e in exprs):
            w.line(f"sb = {self._scaled(slot)}")
        for stmt in s.body:
            self._stmt(stmt)
        if not s.body:
            w.line("pass")
        w.dedent()
        self.slot, self.bucket = None, {}


class _CallPathWalk:
    """The call-path traversal of a kernel, compiled on first use: a
    lowered walk runs it when its arrays are not as declared.  It
    keeps the emitted source and bindings, not the kernel, so a kernel
    memoizing its lowered walk (:func:`traversal_for`) is in no
    reference cycle and is freed with its plan."""

    def __init__(self, unit: "EmitUnit", name: str, label: str) -> None:
        self.source, self.bindings = unit.source, unit.bindings
        self.name, self.label = name, label
        self.fn: Optional[Callable] = None

    def __call__(self, ctx, tree, pt, root, max_visits):
        if self.fn is None:
            self.fn = _exec_scalar(self.source, self.bindings, self.name, self.label)
        return self.fn(ctx, tree, pt, root, max_visits)


@register_pass
class EmitScalarPython(EmitPass):
    """Emit the standalone per-point Python traversal (runnable Fig. 6/7).

    The function name comes from ``unit.bindings['emit_name']``
    (default ``traverse``).  The pass also fills ``unit.bindings`` with
    the runtime namespace the source closes over.

    A callback with a declared body (``spec.bodies``) is inlined as
    plain-Python arithmetic over flat views of the walk's arrays, so
    such a visit makes no NumPy call (see :class:`_ScalarBodies`).
    Every other callback is called under its own name, and a visit
    then costs little more than its callbacks:

    * callbacks get one read-only node array per visit and one point
      array per walk, shared by every callback of the visit;
    * the stack carries argument dicts only when the spec has variant
      arguments or call-site overrides; a visit then copies its dict
      when it pushes children, once plus once per call site with
      overrides.  Otherwise every callback sees the same read-only
      initial arguments;
    * child ids come from the tree's child arrays, bound once per walk.

    Visit order, arguments and updates are those of the recursive
    interpreter on the original spec and its callables, bit for bit
    (asserted by ``tests/test_emit_python.py``), and so is its
    runaway guard.  ``unit.bindings['lower_bodies'] = False`` emits
    the call path for every callback.
    """

    def can_apply(self, unit: EmitUnit) -> bool:
        return (
            unit.mode == "scalar_python"
            and unit.kernel is not None
            and not unit.source
        )

    def apply(self, unit: EmitUnit) -> None:
        kernel = unit.kernel
        spec = kernel.spec
        self._ns = ns = unit.bindings
        self._spec = spec
        self._null = spec.visits_null_children
        self._child_vars: Dict[str, str] = {}
        self._rule_args = tuple(a for a in spec.args if a.update is not None)
        self._carry = bool(self._rule_args) or any(
            call.arg_overrides for g in kernel.push_groups() for call in g.calls
        )
        name = ns.get("emit_name", "traverse")
        self._lowering = None
        if ns.get("lower_bodies", True):
            self._lowering = _ScalarBodies.for_spec(spec, ns)
        #: whether any callback or arg rule keeps the call path.
        self._calls = bool(self._rule_args)
        loop = SourceWriter()
        loop.depth = 2
        self._emit(kernel.body, loop)

        initial_args = spec.initial_args(1)
        for arr in initial_args.values():
            arr.flags.writeable = False
        ns.update(
            _node_rows=_node_rows,
            _readonly1=_readonly1,
            _asarray=np.asarray,
            _initial_args=initial_args,
        )
        w = SourceWriter()
        w.lines.extend(_SCALAR_PRELUDE.format(name=name).rstrip().split("\n"))
        w.indent()
        if self._calls:
            w.line("rows = _node_rows(tree.n_nodes)")
            w.line("pa = _readonly1(pt)")
        if self._lowering is not None and self._lowering.prologue:
            ns.update(
                _NO_VIEW=_NO_VIEW,
                _call_path=_CallPathWalk(
                    _scalar_unit(kernel, name, lower=False), name, spec.name
                ),
                _flat=_flat,
                _grid=_grid,
                _cell=_cell,
                _row=_row,
                _query_row=_query_row,
                _query_id=_query_id,
                _topk_insert=_topk_insert,
                _sqrt=math.sqrt,
            )
            self._lowering.emit_prologue(w)
        for child in _child_names(kernel):
            w.line(f"{self._child_var(child)} = tree.children[{child!r}]")
        if self._carry:
            w.line("stk = [(root, _initial_args)]")
        else:
            w.line("args = _initial_args")
            w.line("stk = [root]")
        w.line("push = stk.append")
        w.line("pop = stk.pop")
        w.line("while stk:")
        w.indent()
        w.line("node, args = pop()" if self._carry else "node = pop()")
        if self._null:
            w.line("if node >= 0:")
            w.indent()
            self._emit_visit(w)
            w.dedent()
            if self._calls:
                w.line("else:")
                w.line(f"{_INDENT}nd = _readonly1(node)")
        else:
            w.line("if node < 0:")
            w.line(f"{_INDENT}continue")
            self._emit_visit(w)
        w.lines.extend(loop.lines)
        w.dedent()
        w.line("return visits")
        unit.source = w.source()

    def _emit_visit(self, w: SourceWriter) -> None:
        w.line("visit(node)")
        w.line("if len(visits) > max_visits:")
        w.line(
            f'{_INDENT}raise RuntimeError("traversal exceeded max_visits; '
            'runaway spec?")'
        )
        if self._calls:
            w.line("nd = rows[node]")

    # -- namespace -------------------------------------------------------

    def _bind(self, prefix: str, key: str, value) -> str:
        """Bind ``value`` in the namespace under a readable identifier."""
        self._calls = True
        base = prefix + _ident(key)
        ident, i = base, 1
        while ident in self._ns and self._ns[ident] is not value:
            i += 1
            ident = f"{base}_{i}"
        self._ns[ident] = value
        return ident

    def _child_var(self, child: str) -> str:
        """The walk's local holding ``tree.children[child]``."""
        var = self._child_vars.get(child)
        if var is None:
            var = "_ch_" + _ident(child)
            while var in self._child_vars.values():
                var += "_"
            self._child_vars[child] = var
        return var

    def _child_expr(self, child: str) -> str:
        var = self._child_var(child)
        if self._null:
            return f"({var}[node] if node >= 0 else -1)"
        return f"{var}[node]"

    def _rule_expr(self, decl, rule: str, args_var: str) -> str:
        fn = self._bind("_r_", rule, self._spec.arg_rules[rule])
        dtype = self._bind("_dt_", decl.name, decl.dtype)
        return (
            f"_asarray({fn}(ctx, nd, pa, {args_var}))"
            f".astype({dtype}, copy=False)"
        )

    # -- statements ------------------------------------------------------

    def _emit(self, stmt: Stmt, w: SourceWriter) -> None:
        spec = self._spec
        lowering = self._lowering
        if isinstance(stmt, Seq):
            if not stmt.stmts:
                w.line("pass")
            for s in stmt.stmts:
                self._emit(s, w)
        elif isinstance(stmt, If):
            name = stmt.cond.name
            test = None if lowering is None else lowering.lower(name, True, w)
            if test is None:
                fn = self._bind("_c_", name, spec.conditions[name])
                test = f"{fn}(ctx, nd, pa, args)[0]"
            w.line(f"if {test}:")
            w.indent()
            self._emit(stmt.then, w)
            w.dedent()
            if stmt.orelse is not None:
                w.line("else:")
                w.indent()
                self._emit(stmt.orelse, w)
                w.dedent()
        elif isinstance(stmt, Update):
            name = stmt.fn.name
            if lowering is None or lowering.lower(name, False, w) is None:
                fn = self._bind("_u_", name, spec.updates[name])
                w.line(f"{fn}(ctx, nd, pa, args)")
        elif isinstance(stmt, Continue):
            w.line("continue")
        elif isinstance(stmt, PushGroup):
            self._emit_push_group(stmt, w)
        else:
            raise TypeError(f"cannot emit {type(stmt).__name__}")

    def _emit_push_group(self, stmt: PushGroup, w: SourceWriter) -> None:
        if not self._carry:
            for call in stmt.push_order:
                w.line(f"push({self._child_expr(call.child.name)})")
            return
        # Declaration-level rules run once per visit on its incoming
        # arguments, and every call of the visit starts from the result
        # (the interpreter evaluates them lazily at the first call).
        new_args = "args"
        if self._rule_args:
            new_args = "new_args"
            w.line("new_args = dict(args)")
            for decl in self._rule_args:
                expr = self._rule_expr(decl, decl.update, "args")
                w.line(f"new_args[{decl.name!r}] = {expr}")
        decls = {a.name: a for a in self._spec.args}
        for call in stmt.push_order:
            call_args = new_args
            if call.arg_overrides:
                call_args = w.fresh("site_args")
                w.line(f"{call_args} = dict({new_args})")
                for arg_name, rule in call.arg_overrides:
                    expr = self._rule_expr(decls[arg_name], rule, new_args)
                    w.line(f"{call_args}[{arg_name!r}] = {expr}")
            w.line(f"push(({self._child_expr(call.child.name)}, {call_args}))")


def _child_names(kernel: IterativeKernel) -> Tuple[str, ...]:
    """Child slots the kernel pushes, in first-use order."""
    seen: Dict[str, None] = {}
    for g in kernel.push_groups():
        for call in g.calls:
            seen.setdefault(call.child.name, None)
    return tuple(seen)


# -- entry points ------------------------------------------------------------


def build_emit_unit(kernel: IterativeKernel, facts: LoopFacts) -> EmitUnit:
    """Run the full pass pipeline for one (kernel, facts) pair."""
    unit = EmitUnit(kernel=kernel, facts=facts)
    run_pipeline(unit)
    if not unit.source:
        raise RuntimeError(
            f"no emitter produced source for kind={facts.kind!r} "
            f"(applied: {unit.applied})"
        )
    return unit


def emit_step_loop_source(kernel: IterativeKernel, facts: LoopFacts) -> str:
    """The emitted per-step loop source (for tests and --dump-source)."""
    return build_emit_unit(kernel, facts).source


def compile_step_loop(kernel: IterativeKernel, facts: LoopFacts):
    """Emit, ``exec``-compile, and return the specialized step loop.

    The returned function takes the executor instance as its only
    argument and runs the whole traversal loop.  Emission metadata
    rides on attributes: ``__source__`` (the emitted text),
    ``__facts__``, ``__passes__`` (pipeline provenance) and
    ``__emit_ms__`` (wall-clock emit+compile time, surfaced as the
    plan cache's codegen emit-time telemetry).
    """
    t0 = time.perf_counter()
    unit = build_emit_unit(kernel, facts)
    name = f"{kernel.spec.name}.{facts.kind}"
    ns = dict(unit.bindings)
    code = compile(unit.source, f"<codegen:{name}>", "exec")
    exec(code, ns)
    fn = ns["step_loop"]
    fn.__source__ = unit.source
    fn.__facts__ = facts
    fn.__passes__ = tuple(unit.applied)
    fn.__emit_ms__ = (time.perf_counter() - t0) * 1000.0
    if dump_sink is not None:
        dump_sink(name, unit.source)
    return fn


def step_loop_for(executor, kind: str):
    """Resolve (emitting at most once) the step loop for an executor.

    Memoized on the kernel instance keyed by the loop-facts digest, the
    same pattern ``program_for`` uses for the op program; the
    service layer adds a second cache in the shared plan cache so
    eviction and plan-epoch bumps also drop generated functions.
    """
    kernel = executor.kernel
    facts = facts_for(executor, kind)
    key = facts.digest()
    cache_ref = getattr(executor.L, "codegen_cache", None)
    if cache_ref is not None:
        # Service-managed launches delegate ownership to the shared
        # plan cache: eviction and plan-epoch bumps must drop the
        # generated function too, so no second memo may shadow it.
        return cache_ref.codegen_get_or_emit(
            getattr(executor.L, "codegen_key", None), key, kernel, facts
        )
    cache = kernel.__dict__.setdefault("_codegen_fns", {})
    fn = cache.get(key)
    if fn is None:
        fn = cache[key] = compile_step_loop(kernel, facts)
    return fn


def render_recursive(spec: TraversalSpec) -> str:
    """Render the original recursive form (the Fig. 4/5 style)."""
    unit = EmitUnit(
        kernel=None, facts=None, mode="render_recursive", spec=spec
    )
    return run_pipeline(unit).source


def render_iterative(kernel: IterativeKernel) -> str:
    """Render an autoropes (or lockstep) kernel in the Fig. 6/7/8 style."""
    unit = EmitUnit(kernel=kernel, facts=None, mode="render_iterative")
    return run_pipeline(unit).source


def emit_traversal_source(kernel: IterativeKernel, name: str = "traverse") -> str:
    """The per-point traversal's source, as :func:`compile_traversal`
    compiles it."""
    return _scalar_unit(kernel, name, lower=True).source


def compile_traversal(kernel: IterativeKernel, name: str = "traverse") -> Callable:
    """Emit and ``exec``-compile the per-point traversal of ``kernel``.

    The callable's signature is ``fn(ctx, tree, pt, root,
    max_visits=10_000_000) -> list``: it returns the visited node ids
    and applies the updates to ``ctx.out``, exactly as
    :meth:`repro.cpusim.recursive.RecursiveInterpreter.run_point` does
    on the original spec.  ``__source__`` carries the emitted text,
    which also goes to :data:`dump_sink` as ``<spec>.<name>``.
    """
    unit = _scalar_unit(kernel, name, lower=True)
    fn = _exec_scalar(unit.source, unit.bindings, name, kernel.spec.name)
    if dump_sink is not None:
        dump_sink(f"{kernel.spec.name}.{name}", unit.source)
    return fn


def _exec_scalar(source: str, bindings, name: str, label: str) -> Callable:
    ns = dict(bindings)
    exec(compile(source, f"<emitted {label}>", "exec"), ns)
    fn = ns[name]
    fn.__source__ = source
    return fn


def traversal_for(kernel: IterativeKernel) -> Callable:
    """The per-point traversal of ``kernel``, emitted on first use.

    Memoized on the kernel instance like :func:`~repro.core.compile
    .program_for`, so a plan recompile (``refresh_plan``) drops the
    function together with its plan.
    """
    fn = kernel.__dict__.get("_scalar_traversal")
    if fn is None:
        fn = compile_traversal(kernel)
        object.__setattr__(kernel, "_scalar_traversal", fn)
    return fn


def _scalar_unit(kernel: IterativeKernel, name: str, lower: bool) -> EmitUnit:
    unit = EmitUnit(
        kernel=kernel, facts=None, mode="scalar_python",
        bindings={"emit_name": name, "lower_bodies": lower},
    )
    return run_pipeline(unit)
