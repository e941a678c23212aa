"""Unit tests for the traversal IR (repro.core.ir)."""

import numpy as np
import pytest

from repro.core.ir import (
    ArgDecl,
    ChildRef,
    CondRef,
    EvalContext,
    If,
    Recurse,
    Return,
    Seq,
    TraversalSpec,
    Update,
    UpdateRef,
    number_call_sites,
    recurse_sites,
)


def _true(ctx, node, pt, args):
    return np.ones(len(node), dtype=bool)


def _noop(ctx, node, pt, args):
    return None


def make_spec(body, **kw):
    defaults = dict(
        conditions={"c": _true, "c2": _true},
        updates={"u": _noop, "u2": _noop},
    )
    defaults.update(kw)
    return TraversalSpec(name="t", body=body, **defaults)


class TestSeq:
    def test_flattens_nested_seqs(self):
        s = Seq(Seq(Return(), Update(UpdateRef("u"))), Return())
        assert len(s.stmts) == 3
        assert all(not isinstance(x, Seq) for x in s.stmts)

    def test_empty_seq(self):
        assert Seq().stmts == ()

    def test_walk_preorder(self):
        inner = Update(UpdateRef("u"))
        body = Seq(If(CondRef("c"), inner), Return())
        kinds = [type(s).__name__ for s in body.walk()]
        assert kinds == ["Seq", "If", "Update", "Return"]


class TestNumbering:
    def test_sites_numbered_in_preorder(self):
        body = Seq(
            If(
                CondRef("c"),
                Seq(Recurse(ChildRef("left")), Recurse(ChildRef("right"))),
                Seq(Recurse(ChildRef("right")), Recurse(ChildRef("left"))),
            )
        )
        numbered = number_call_sites(body)
        sites = recurse_sites(numbered)
        assert [s.site_id for s in sites] == [0, 1, 2, 3]
        assert [s.child.name for s in sites] == ["left", "right", "right", "left"]

    def test_overrides_preserved(self):
        body = Recurse(ChildRef("left"), arg_overrides=(("a", "r"),))
        numbered = number_call_sites(body)
        assert recurse_sites(numbered)[0].arg_overrides == (("a", "r"),)


class TestValidation:
    def test_unbound_condition_rejected(self):
        with pytest.raises(KeyError, match="unbound condition"):
            TraversalSpec(
                name="t", body=If(CondRef("missing"), Return()), conditions={}
            )

    def test_unbound_update_rejected(self):
        with pytest.raises(KeyError, match="unbound update"):
            TraversalSpec(name="t", body=Update(UpdateRef("missing")), updates={})

    def test_unbound_arg_rule_rejected(self):
        with pytest.raises(KeyError, match="unbound arg rule"):
            TraversalSpec(
                name="t",
                body=Return(),
                args=(ArgDecl("a", 1.0, update="missing"),),
            )

    def test_valid_spec_accepted(self):
        spec = make_spec(Seq(If(CondRef("c"), Return()), Update(UpdateRef("u"))))
        assert spec.name == "t"


class TestArgDecl:
    def test_invariant_classification(self):
        inv = ArgDecl("c", 2.0)
        var = ArgDecl("d", 1.0, update="r")
        assert inv.invariant and not var.invariant

    def test_variant_vs_invariant_split(self):
        spec = make_spec(
            Return(),
            args=(ArgDecl("a", 0.0, update="r"), ArgDecl("b", 1.0)),
            arg_rules={"r": lambda c, n, p, a: a["a"]},
        )
        assert [a.name for a in spec.variant_args] == ["a"]
        assert [a.name for a in spec.invariant_args] == ["b"]

    def test_initial_args_shapes_and_values(self):
        spec = make_spec(
            Return(),
            args=(ArgDecl("a", 3.5, update="r"), ArgDecl("b", -1.0)),
            arg_rules={"r": lambda c, n, p, a: a["a"]},
        )
        init = spec.initial_args(5)
        assert set(init) == {"a", "b"}
        np.testing.assert_array_equal(init["a"], np.full(5, 3.5))
        np.testing.assert_array_equal(init["b"], np.full(5, -1.0))


class TestEvaluation:
    def test_eval_condition_coerces_to_bool(self):
        spec = make_spec(
            If(CondRef("ints"), Return()),
            conditions={"ints": lambda c, n, p, a: n % 2},
        )
        ctx = EvalContext(tree=None, points=None)
        got = spec.eval_condition(
            CondRef("ints"), ctx, np.array([1, 2, 3]), np.zeros(3, int), {}
        )
        assert got.dtype == bool
        np.testing.assert_array_equal(got, [True, False, True])

    def test_eval_update_dispatches(self):
        hits = []
        spec = make_spec(
            Update(UpdateRef("rec")),
            updates={"rec": lambda c, n, p, a: hits.append(len(n))},
        )
        ctx = EvalContext(tree=None, points=None)
        spec.eval_update(UpdateRef("rec"), ctx, np.arange(4), np.arange(4), {})
        assert hits == [4]

    def test_duplicate_site_ids_rejected(self):
        # __post_init__ renumbers sites, so build a valid spec first and
        # then tamper with its body to simulate a corrupted rewrite.
        s = make_spec(Seq(Recurse(ChildRef("left")), Recurse(ChildRef("right"))))
        s.body = Seq(
            Recurse(ChildRef("left"), site_id=0),
            Recurse(ChildRef("right"), site_id=0),
        )
        with pytest.raises(ValueError, match="duplicate call-site ids"):
            s.validate()


class TestRefs:
    def test_condref_defaults(self):
        c = CondRef("x")
        assert c.point_dependent and c.reads == () and c.cost == 1.0

    def test_childref_defaults_point_independent(self):
        assert not ChildRef("left").point_dependent


class TestDeclaredBodies:
    def test_bodies_bind_to_callbacks_of_their_kind(self):
        from repro.core.ir import AddTo, Body, NodeField

        body = Seq(If(CondRef("c"), Return()), Update(UpdateRef("u")))
        leaf = Body(NodeField("is_leaf", bool))
        bump = Body((AddTo("count", 1, when=NodeField("is_leaf", bool)),))
        spec = make_spec(body, bodies={"c": leaf, "u": bump})
        assert spec.bodies["c"].is_condition and not spec.bodies["u"].is_condition
        with pytest.raises(KeyError, match="no bound callback"):
            make_spec(body, bodies={"nope": leaf})
        with pytest.raises(TypeError, match="declares an update body"):
            make_spec(body, bodies={"c": bump})
        with pytest.raises(TypeError, match="declares a condition body"):
            make_spec(body, bodies={"u": leaf})

    def test_expressions_check_their_shapes(self):
        from repro.core.ir import Body, NodeRow, QueryRow, SqNorm, Sqrt, ne

        q = QueryRow()
        d = SqNorm(q - NodeRow("center"))
        assert d.kind == "f" and not d.row and (q - 1.0).row
        with pytest.raises(TypeError):
            SqNorm(d)  # reduces a row, not a scalar
        with pytest.raises(TypeError):
            Sqrt(q)  # only a squared norm
        with pytest.raises(TypeError):
            q < d  # comparisons take scalars
        with pytest.raises(TypeError):
            Body(d)  # a condition is boolean
        assert Body(ne(d, 0.0) & (d > 1), dim=3).is_condition

    def test_normalization_carries_bodies(self):
        from repro.core.ir import Body, NodeField
        from repro.core.pseudotail import normalize_to_pseudo_tail

        spec = make_spec(
            Seq(
                Recurse(ChildRef("left")),
                Update(UpdateRef("u")),
                Recurse(ChildRef("right")),
            ),
            conditions={"c": _true},
            bodies={"c": Body(NodeField("is_leaf", bool))},
        )
        normalized = normalize_to_pseudo_tail(spec)
        assert normalized.visits_null_children
        assert normalized.bodies is spec.bodies
