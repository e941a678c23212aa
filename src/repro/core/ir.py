"""Traversal IR: the abstract tree-traversal pattern of Figure 1 as an AST.

Every benchmark in the paper fits the shape::

    void recurse(Point p, TreeNode n, ...) {
        if (truncate?(p, n, ...)) return;
        update(p, n, ...);
        foreach (TreeNode child : n.children())
            recurse(p, child, ...);
    }

We capture that shape with a tiny statement language — :class:`Seq`,
:class:`If`, :class:`Update`, :class:`Return`, :class:`Recurse` — whose
conditions and updates are *opaque references* (:class:`CondRef`,
:class:`UpdateRef`) bound to vectorized numpy callbacks. The analyses in
:mod:`repro.core.callset` and the transformations in
:mod:`repro.core.autoropes` / :mod:`repro.core.lockstep` operate purely
on this structure, never on the callback semantics — that is exactly the
paper's claim of semantics-agnostic generality.

Callback conventions
--------------------

All callbacks are vectorized over a batch of (point, node) pairs:

* condition: ``fn(ctx, node, pt, args) -> bool ndarray``
* update:    ``fn(ctx, node, pt, args) -> None`` (mutates ``ctx.out``)
* arg rule:  ``fn(ctx, node, pt, args) -> ndarray`` (new value per pair)

where ``node`` and ``pt`` are equal-length int64 index arrays, ``args``
is a dict of per-pair traversal-argument value arrays, and ``ctx`` is an
:class:`EvalContext` giving access to the tree, the point set, result
arrays, and scalar parameters.

Declared bodies
---------------

A spec may also declare what a callback computes, per callback name,
in a small expression language (:class:`Body`, see "Declared bodies"
below).  The transformations never read it; a backend may lower it in
place of the call (the per-point Python traversal does).  The callable
stays the reference every engine can fall back to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

# ---------------------------------------------------------------------------
# Opaque references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondRef:
    """A boolean predicate over (point, node, args).

    Attributes
    ----------
    point_dependent:
        whether the predicate reads point state. Structure-only
        predicates (e.g. ``is_leaf``) keep a traversal unguided even
        when they select between branches.
    reads:
        tree field groups the predicate loads (drives the partial-node
        load accounting of Section 5.2).
    cost:
        instruction-issue weight (roughly, arithmetic ops evaluated).
    """

    name: str
    point_dependent: bool = True
    reads: Tuple[str, ...] = ()
    cost: float = 1.0


@dataclass(frozen=True)
class UpdateRef:
    """A side-effecting update of per-point result state."""

    name: str
    reads: Tuple[str, ...] = ()
    cost: float = 1.0


@dataclass(frozen=True)
class ChildRef:
    """Which child a recursive call descends into (a structural name).

    ``point_dependent`` exists for completeness of the guided/unguided
    analysis: a child selector computed from point state would make the
    traversal guided even with a single call set. All our benchmarks use
    fixed structural selectors, as do the paper's.
    """

    name: str
    point_dependent: bool = False


@dataclass(frozen=True)
class ArgDecl:
    """A traversal argument threaded through recursive calls.

    ``update`` of ``None`` marks the argument *traversal-invariant*: its
    value never changes, so autoropes keeps it out of the rope stack
    (Section 3.2.2, the ``c`` argument of Fig. 7). Otherwise ``update``
    names a bound arg-rule callback evaluated at each recursive call
    (the ``dsq * 0.25`` of Fig. 9), and the argument value is pushed
    alongside the rope.
    """

    name: str
    initial: float
    update: Optional[str] = None
    dtype: np.dtype = np.dtype(np.float64)
    #: whether the argument's value depends on point state. Point-
    #: independent arguments are warp-uniform under lockstep and can be
    #: "saved per warp rather than per thread" (Section 5.2).
    point_dependent: bool = False

    @property
    def invariant(self) -> bool:
        return self.update is None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for traversal-body statements."""

    def children_stmts(self) -> Tuple["Stmt", ...]:
        return ()

    def walk(self) -> Iterator["Stmt"]:
        """Pre-order traversal of the statement tree."""
        yield self
        for child in self.children_stmts():
            yield from child.walk()


@dataclass(frozen=True)
class Seq(Stmt):
    """Sequential composition."""

    stmts: Tuple[Stmt, ...]

    def __init__(self, *stmts: Stmt) -> None:
        flat = []
        for s in stmts:
            if isinstance(s, Seq):
                flat.extend(s.stmts)
            else:
                flat.append(s)
        object.__setattr__(self, "stmts", tuple(flat))

    def children_stmts(self) -> Tuple[Stmt, ...]:
        return self.stmts


@dataclass(frozen=True)
class If(Stmt):
    """Two-way branch on an opaque condition."""

    cond: CondRef
    then: Stmt
    orelse: Optional[Stmt] = None

    def children_stmts(self) -> Tuple[Stmt, ...]:
        if self.orelse is None:
            return (self.then,)
        return (self.then, self.orelse)


@dataclass(frozen=True)
class Update(Stmt):
    """Apply an opaque per-point update at the current node."""

    fn: UpdateRef


@dataclass(frozen=True)
class Return(Stmt):
    """Truncate: end this (point, node) visit."""


@dataclass(frozen=True)
class Recurse(Stmt):
    """Recursive call descending into one child.

    ``site_id`` identifies the call site for call-set analysis; it is
    assigned by :func:`number_call_sites` and must be unique within a
    spec body. ``arg_overrides`` maps argument names to arg-rule names
    evaluated *at this site only*, overriding the declaration-level
    rule; the pseudo-tail normalization uses this to thread its
    synthetic call-set/child identifiers (Section 3.2).
    """

    child: ChildRef
    site_id: int = -1
    arg_overrides: Tuple[Tuple[str, str], ...] = ()


def number_call_sites(body: Stmt) -> Stmt:
    """Return a copy of ``body`` with Recurse sites numbered 0..n-1 in
    textual (pre-order) order."""
    counter = [0]

    def rewrite(stmt: Stmt) -> Stmt:
        if isinstance(stmt, Recurse):
            new = Recurse(
                child=stmt.child,
                site_id=counter[0],
                arg_overrides=stmt.arg_overrides,
            )
            counter[0] += 1
            return new
        if isinstance(stmt, Seq):
            return Seq(*[rewrite(s) for s in stmt.stmts])
        if isinstance(stmt, If):
            return If(
                cond=stmt.cond,
                then=rewrite(stmt.then),
                orelse=None if stmt.orelse is None else rewrite(stmt.orelse),
            )
        return stmt

    return rewrite(body)


def recurse_sites(body: Stmt) -> Tuple[Recurse, ...]:
    """All Recurse statements in pre-order."""
    return tuple(s for s in body.walk() if isinstance(s, Recurse))


def for_each_child(*names: str) -> Seq:
    """Sugar for Fig. 1's ``foreach (TreeNode child : n.children())``.

    The paper's footnote 1 assumes such loops are fully unrolled (tree
    nodes have a bounded out-degree), which keeps the reduced CFG
    acyclic; this helper performs exactly that unrolling:
    ``for_each_child("c0", ..., "c7")`` is the eight recursive calls of
    the Barnes-Hut body.
    """
    if not names:
        raise ValueError("for_each_child needs at least one child slot")
    return Seq(*[Recurse(ChildRef(n)) for n in names])


# ---------------------------------------------------------------------------
# Declared bodies
# ---------------------------------------------------------------------------
#
# What the pc, knn, nn and vp callbacks compute, as data: reads of the
# node's fields, a leaf bucket's slots, the query point, ``ctx.params``
# and the query's ``ctx.out`` entries; + - *, sqrt, clip/min/max and
# comparisons; one squared-norm reduction; conditional stores and adds;
# a bounded loop over a leaf bucket's slots; and knn's stable top-k
# insert.  A value
# is a scalar or a *row* of ``Body.dim`` elements (a point's
# coordinates); arithmetic, min and max apply elementwise and broadcast
# a scalar over a row.  Each operation means what its NumPy counterpart
# does on a callback's length-1 arrays, bit for bit, so a backend that
# lowers a body must reproduce NumPy's operation order (see
# ``repro.core.passes.sq_norm_expr`` for the reduction's).

#: element kinds of a declared value: float64, int64 and bool.
KINDS = {float: "f", int: "i", bool: "b"}


class Expr:
    """A value in a declared body."""

    #: ``"f"`` (float64), ``"i"`` (int64) or ``"b"`` (bool).
    kind = "f"
    #: whether the value is a row of ``Body.dim`` elements.
    row = False

    def operands(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for op in self.operands():
            yield from op.walk()

    def __add__(self, other):
        return BinOp("+", self, lift(other))

    def __sub__(self, other):
        return BinOp("-", self, lift(other))

    def __mul__(self, other):
        return BinOp("*", self, lift(other))

    def __lt__(self, other):
        return Compare("<", self, lift(other))

    def __le__(self, other):
        return Compare("<=", self, lift(other))

    def __gt__(self, other):
        return Compare(">", self, lift(other))

    def __ge__(self, other):
        return Compare(">=", self, lift(other))

    def __and__(self, other):
        return And(self, lift(other))


def lift(value) -> Expr:
    """``value`` as an expression (a Python int or float becomes a
    :class:`Const`)."""
    if isinstance(value, Expr):
        return value
    if type(value) in (int, float):
        return Const(value)
    raise TypeError(f"cannot lift {type(value).__name__} into a declared body")


@dataclass(frozen=True, eq=False)
class Const(Expr):
    """A number literal (an int is int64, a float float64)."""

    value: Union[int, float]

    @property
    def kind(self) -> str:
        return "f" if isinstance(self.value, float) else "i"


@dataclass(frozen=True, eq=False)
class Param(Expr):
    """``ctx.params[name]``, read as a float once per walk."""

    name: str


@dataclass(frozen=True, eq=False)
class NodeField(Expr):
    """``tree.arrays[name][node]`` of a 1-D field of ``dtype``; with
    ``col``, the element ``tree.arrays[name][node, col]`` of an
    ``(n, dim)`` field, where ``col`` may be computed (a split test's
    dimension)."""

    name: str
    dtype: type = float
    col: Optional[Expr] = None

    def __post_init__(self) -> None:
        if self.col is not None:
            object.__setattr__(self, "col", lift(self.col))

    @property
    def kind(self) -> str:
        return KINDS[self.dtype]

    def operands(self) -> Tuple[Expr, ...]:
        return () if self.col is None else (self.col,)


@dataclass(frozen=True, eq=False)
class NodeRow(Expr):
    """The node's row ``tree.arrays[name][node]`` of an ``(n, dim)``
    float field."""

    name: str
    row = True


@dataclass(frozen=True, eq=False)
class QueryRow(Expr):
    """The query point's coordinates, ``ctx.points.coords[pt]``."""

    row = True


@dataclass(frozen=True, eq=False)
class QueryCoord(Expr):
    """One coordinate ``ctx.points.coords[pt, col]``; ``col`` may be
    computed."""

    col: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "col", lift(self.col))

    def operands(self) -> Tuple[Expr, ...]:
        return (self.col,)


@dataclass(frozen=True, eq=False)
class QueryId(Expr):
    """The query's dataset id, ``ctx.points.orig_ids[pt]``."""

    kind = "i"


@dataclass(frozen=True, eq=False)
class OutField(Expr):
    """The query's entry ``ctx.out[name][pt]`` of a 1-D result array,
    or with ``col`` (a literal, negative counts from the end) the
    element ``ctx.out[name][pt, col]`` of a 2-D one."""

    name: str
    dtype: type = float
    col: Optional[int] = None

    @property
    def kind(self) -> str:
        return KINDS[self.dtype]


@dataclass(frozen=True, eq=False)
class SlotField(Expr):
    """The current slot's entry of a 1-D bucket array of ``dtype``
    (inside :class:`LeafSlots` only)."""

    name: str
    dtype: type = float

    @property
    def kind(self) -> str:
        return KINDS[self.dtype]


@dataclass(frozen=True, eq=False)
class SlotRow(Expr):
    """The current slot's row of an ``(m, dim)`` float bucket array
    (inside :class:`LeafSlots` only)."""

    name: str
    row = True


@dataclass(frozen=True, eq=False)
class Var(Expr):
    """A scalar bound by an earlier :class:`Let` of the same update."""

    name: str
    kind: str = "f"


@dataclass(frozen=True, eq=False)
class BinOp(Expr):
    """``a + b``, ``a - b`` or ``a * b``, elementwise over rows."""

    op: str
    a: Expr
    b: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", lift(self.a))
        object.__setattr__(self, "b", lift(self.b))
        if self.op not in ("+", "-", "*"):
            raise ValueError(f"unknown arithmetic operator {self.op!r}")
        if "b" in (self.a.kind, self.b.kind):
            raise TypeError("arithmetic on a boolean value")

    @property
    def kind(self) -> str:
        return "f" if "f" in (self.a.kind, self.b.kind) else "i"

    @property
    def row(self) -> bool:
        return self.a.row or self.b.row

    def operands(self) -> Tuple[Expr, ...]:
        return (self.a, self.b)


@dataclass(frozen=True, eq=False)
class _Extremum(Expr):
    a: Expr
    b: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", lift(self.a))
        object.__setattr__(self, "b", lift(self.b))

    @property
    def kind(self) -> str:
        return "f" if "f" in (self.a.kind, self.b.kind) else "i"

    @property
    def row(self) -> bool:
        return self.a.row or self.b.row

    def operands(self) -> Tuple[Expr, ...]:
        return (self.a, self.b)


class Max(_Extremum):
    """``np.maximum(a, b)``: a NaN in either operand wins."""


class Min(_Extremum):
    """``np.minimum(a, b)``: a NaN in either operand wins."""


def clip(x: Expr, lo: Expr, hi: Expr) -> Expr:
    """``np.clip(x, lo, hi)``, which NumPy evaluates as
    ``minimum(maximum(x, lo), hi)``."""
    return Min(Max(x, lo), hi)


@dataclass(frozen=True, eq=False)
class SqNorm(Expr):
    """The squared norm of a row, ``np.einsum("ij,ij->i", x, x)`` of
    one row, in NumPy's summation order."""

    x: Expr

    def __post_init__(self) -> None:
        if not self.x.row or self.x.kind != "f":
            raise TypeError("SqNorm reduces a float row")

    def operands(self) -> Tuple[Expr, ...]:
        return (self.x,)


@dataclass(frozen=True, eq=False)
class Sqrt(Expr):
    """``np.sqrt`` of a squared norm (never negative, so the scalar
    ``math.sqrt`` agrees with it bit for bit)."""

    x: Expr

    def __post_init__(self) -> None:
        if not isinstance(self.x, SqNorm):
            raise TypeError("Sqrt takes a SqNorm")

    def operands(self) -> Tuple[Expr, ...]:
        return (self.x,)


@dataclass(frozen=True, eq=False)
class Compare(Expr):
    """A scalar comparison; ``op`` is one of ``< <= > >= == !=``."""

    op: str
    a: Expr
    b: Expr
    kind = "b"

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", lift(self.a))
        object.__setattr__(self, "b", lift(self.b))
        if self.op not in ("<", "<=", ">", ">=", "==", "!="):
            raise ValueError(f"unknown comparison {self.op!r}")
        if self.a.row or self.b.row:
            raise TypeError("comparisons take scalars")

    def operands(self) -> Tuple[Expr, ...]:
        return (self.a, self.b)


def ne(a, b) -> Compare:
    """``a != b`` (``!=`` itself keeps Python's identity meaning)."""
    return Compare("!=", a, b)


@dataclass(frozen=True, eq=False)
class And(Expr):
    """``a & b & ...`` of boolean scalars."""

    terms: Tuple[Expr, ...]
    kind = "b"

    def __init__(self, *terms: Expr) -> None:
        flat = []
        for t in terms:
            flat.extend(t.terms if isinstance(t, And) else (t,))
        if any(t.kind != "b" or t.row for t in flat):
            raise TypeError("And takes boolean scalars")
        object.__setattr__(self, "terms", tuple(flat))

    def operands(self) -> Tuple[Expr, ...]:
        return self.terms


class BodyStmt:
    """A statement of a declared update body."""

    def exprs(self) -> Tuple[Expr, ...]:
        return ()

    def walk(self) -> Iterator["BodyStmt"]:
        yield self


@dataclass(frozen=True, eq=False)
class Let(BodyStmt):
    """Bind ``value`` to :class:`Var` ``name`` for later statements."""

    name: str
    value: Expr

    def exprs(self) -> Tuple[Expr, ...]:
        return (self.value,)


@dataclass(frozen=True, eq=False)
class Store(BodyStmt):
    """When ``when`` holds, ``ctx.out[name][pt] = value`` for each
    write in order, every value read before the first write (a
    callback's masked stores)."""

    when: Expr
    writes: Tuple[Tuple[str, Expr], ...]

    def __init__(self, when: Expr, **writes: Expr) -> None:
        object.__setattr__(self, "when", when)
        object.__setattr__(
            self, "writes", tuple((k, lift(v)) for k, v in writes.items())
        )

    def exprs(self) -> Tuple[Expr, ...]:
        return (self.when,) + tuple(v for _, v in self.writes)


@dataclass(frozen=True, eq=False)
class AddTo(BodyStmt):
    """When ``when`` holds, ``ctx.out[name][pt] += value``."""

    name: str
    value: Expr
    when: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", lift(self.value))

    def exprs(self) -> Tuple[Expr, ...]:
        return (self.value, self.when)


@dataclass(frozen=True, eq=False)
class TopKInsert(BodyStmt):
    """knn's insert: when ``when`` holds, put ``value`` and ``ident``
    in the last column of the query's rows of ``ctx.out[dist]`` and
    ``ctx.out[ids]``, then reorder both rows by NumPy's stable argsort
    of the distances."""

    dist: str
    ids: str
    value: Expr
    ident: Expr
    when: Expr

    def exprs(self) -> Tuple[Expr, ...]:
        return (self.value, self.ident, self.when)


@dataclass(frozen=True, eq=False)
class LeafSlots(BodyStmt):
    """Run ``body`` for each valid slot of the node's leaf bucket, in
    slot order: bucket rows ``start .. start + min(count, bound) - 1``,
    where ``start`` and ``count`` name the node's int fields and
    ``bucket`` holds the arrays :class:`SlotField`/:class:`SlotRow`
    read.  Only valid slots are read; the callables' padding and
    clamping exist to keep their masked reads of invalid slots in
    range, and agree with this on every tree whose leaf ranges lie
    inside the bucket (all the builders make)."""

    start: str
    count: str
    bound: int
    bucket: Mapping[str, np.ndarray]
    body: Tuple[BodyStmt, ...]

    def walk(self) -> Iterator[BodyStmt]:
        yield self
        for s in self.body:
            yield from s.walk()


@dataclass(frozen=True, eq=False)
class Body:
    """A callback's declared body.

    ``code`` is a boolean scalar :class:`Expr` for a condition and a
    tuple of :class:`BodyStmt` for an update; rows hold ``dim``
    elements.
    """

    code: Union[Expr, Tuple[BodyStmt, ...]]
    dim: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.code, Expr):
            if self.code.kind != "b" or self.code.row:
                raise TypeError("a condition body is a boolean scalar")
        else:
            code = tuple(self.code)
            if not all(isinstance(s, BodyStmt) for s in code):
                raise TypeError("an update body is a tuple of statements")
            object.__setattr__(self, "code", code)

    @property
    def is_condition(self) -> bool:
        return isinstance(self.code, Expr)

    def exprs(self) -> Iterator[Expr]:
        """Every expression node, loop bodies included, in pre-order."""
        if self.is_condition:
            yield from self.code.walk()
            return
        for stmt in self.code:
            for s in stmt.walk():
                for root in s.exprs():
                    yield from root.walk()


# ---------------------------------------------------------------------------
# Evaluation context and specs
# ---------------------------------------------------------------------------


@dataclass
class EvalContext:
    """Everything callbacks may read or write during a traversal.

    ``tree`` is any object exposing the arrays the app's callbacks use
    (typically a :class:`repro.trees.linearize.LinearTree`). ``out``
    holds per-point result arrays the updates mutate; ``params`` holds
    run-wide scalars (correlation radius, opening-angle threshold, k).
    """

    tree: object
    points: object
    out: Dict[str, np.ndarray] = field(default_factory=dict)
    params: Dict[str, float] = field(default_factory=dict)


Callback = Callable[..., np.ndarray]


@dataclass
class TraversalSpec:
    """A complete recursive traversal: body + argument decls + bindings.

    This is what an application hands to the transformation pipeline —
    the moral equivalent of the annotated C++ the paper's ROSE pass
    consumes (Section 5.1).
    """

    name: str
    body: Stmt
    args: Tuple[ArgDecl, ...] = ()
    conditions: Mapping[str, Callback] = field(default_factory=dict)
    updates: Mapping[str, Callback] = field(default_factory=dict)
    arg_rules: Mapping[str, Callback] = field(default_factory=dict)
    annotations: frozenset = frozenset()
    #: Field group holding child pointers (charged when pushing ropes).
    child_field_group: str = "cold"
    #: Set by the pseudo-tail normalization when deferred (pushed-down)
    #: updates exist: recursive calls then visit *null* children too, as
    #: phantom entries whose only job is to pay the parent's pending
    #: update before a null-guard truncates them.
    visits_null_children: bool = False
    #: Declared bodies, by condition or update name: what the bound
    #: callable computes, for backends that inline it.  Optional per
    #: callback; the callable stays bound either way.
    bodies: Mapping[str, Body] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.body = number_call_sites(self.body)
        self.validate()

    def validate(self) -> None:
        """Check that every opaque reference has a binding and that
        declared argument-update rules exist."""
        for stmt in self.body.walk():
            if isinstance(stmt, If) and stmt.cond.name not in self.conditions:
                raise KeyError(f"unbound condition {stmt.cond.name!r}")
            if isinstance(stmt, Update) and stmt.fn.name not in self.updates:
                raise KeyError(f"unbound update {stmt.fn.name!r}")
        for arg in self.args:
            if arg.update is not None and arg.update not in self.arg_rules:
                raise KeyError(f"unbound arg rule {arg.update!r} for {arg.name!r}")
        for name, decl in self.bodies.items():
            if name in self.conditions:
                if not decl.is_condition:
                    raise TypeError(f"condition {name!r} declares an update body")
            elif name in self.updates:
                if decl.is_condition:
                    raise TypeError(f"update {name!r} declares a condition body")
            else:
                raise KeyError(f"declared body {name!r} has no bound callback")
        seen = set()
        for site in recurse_sites(self.body):
            if site.site_id in seen:
                raise ValueError("duplicate call-site ids; use number_call_sites")
            seen.add(site.site_id)

    @property
    def variant_args(self) -> Tuple[ArgDecl, ...]:
        """Arguments that must travel on the rope stack."""
        return tuple(a for a in self.args if not a.invariant)

    @property
    def invariant_args(self) -> Tuple[ArgDecl, ...]:
        return tuple(a for a in self.args if a.invariant)

    def eval_condition(
        self,
        ref: CondRef,
        ctx: EvalContext,
        node: np.ndarray,
        pt: np.ndarray,
        args: Dict[str, np.ndarray],
    ) -> np.ndarray:
        result = self.conditions[ref.name](ctx, node, pt, args)
        return np.asarray(result, dtype=bool)

    def eval_update(
        self,
        ref: UpdateRef,
        ctx: EvalContext,
        node: np.ndarray,
        pt: np.ndarray,
        args: Dict[str, np.ndarray],
    ) -> None:
        self.updates[ref.name](ctx, node, pt, args)

    def eval_arg_rule(
        self,
        name: str,
        ctx: EvalContext,
        node: np.ndarray,
        pt: np.ndarray,
        args: Dict[str, np.ndarray],
    ) -> np.ndarray:
        return np.asarray(self.arg_rules[name](ctx, node, pt, args))

    def initial_args(self, n: int) -> Dict[str, np.ndarray]:
        """Per-pair argument values at the root, for ``n`` pairs."""
        return {
            a.name: np.full(n, a.initial, dtype=a.dtype) for a in self.args
        }
