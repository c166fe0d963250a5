"""Desugaring, canonicalization, and pretty-printing."""

import pytest
from conftest import load, load_raw

from food import canonicalize, desugar, parse, pretty
from food.fuzz import GenConfig, gen_program
from food.pretty import pretty_def, pretty_expr
from food.syntax import App, Constructor, Consumer, CtrCall, If, IntLit, New, Obj, PrimOp, Program, Sel, Var


def test_desugar_rewrites_bare_body_to_wildcard_clause():
    raw = load_raw("sets_fp")
    insert = next(d for d in raw.defs if isinstance(d, Consumer) and d.name == "insert")
    assert insert.body is not None and insert.clauses is None

    sugar_free = desugar(raw)
    insert2 = next(d for d in sugar_free.defs if isinstance(d, Consumer) and d.name == "insert")
    assert insert2.body is None
    assert len(insert2.clauses) == 1
    assert insert2.clauses[0].pattern.is_wildcard
    assert insert2.clauses[0].body == insert.body


def test_desugar_leaves_clause_form_and_other_defs_alone():
    raw = load_raw("sets_fp")
    out = desugar(raw)
    for before, after in zip(raw.defs, out.defs):
        if not (isinstance(before, Consumer) and before.body is not None):
            assert before == after


def test_desugar_identity_without_consumers():
    p = load("exp_oop")
    assert desugar(p) == p


def test_desugar_idempotent():
    p = load_raw("sets_fp")
    assert desugar(desugar(p)) == desugar(p)


def test_canonicalize_moves_displaced_consumer_back():
    p = load("sets_fp")
    union = next(d for d in p.defs if isinstance(d, Consumer) and d.name == "union")
    others = tuple(d for d in p.defs if d is not union)
    moved = Program((union,) + others, p.main)

    result = canonicalize(moved)
    names = [type(d).__name__ + ":" + d.name for d in result.defs]
    # Set comes first again, then its consumers in the moved program's
    # declaration order, then the constructors
    assert names == [
        "Datatype:Set",
        "Consumer:union",
        "Consumer:isEmpty",
        "Consumer:contains",
        "Consumer:insert",
        "Constructor:Empty",
        "Constructor:Insert",
        "Constructor:Union",
    ]


def test_canonicalize_orders_clauses_by_constructor_declaration():
    p = load("sets_fp")
    contains = next(d for d in p.defs if isinstance(d, Consumer) and d.name == "contains")
    reordered = Consumer(
        contains.name,
        contains.self_type,
        contains.params,
        contains.ret,
        clauses=tuple(reversed(contains.clauses)),
    )
    q = Program(tuple(reordered if d is contains else d for d in p.defs), p.main)
    out = canonicalize(q)
    fixed = next(d for d in out.defs if isinstance(d, Consumer) and d.name == "contains")
    assert [c.pattern.name for c in fixed.clauses] == ["Empty", "Insert", "Union"]


def test_canonicalize_identity_when_canonical():
    p = canonicalize(load("sets_fp"))
    assert canonicalize(p) == p


def test_canonicalize_identity_without_datatypes():
    p = load("sets_oop")
    assert canonicalize(p) == p


def test_canonicalize_idempotent_and_preserves_definitions():
    for name in ("sets_fp", "setlist_fp", "boolnorm_ctx_oop"):
        p = load(name)
        once = canonicalize(p)
        assert canonicalize(once) == once
        assert sorted(map(repr, once.defs)) == sorted(map(repr, p.defs))


def test_pretty_constructor_def():
    ctor = Constructor("Empty", (), "Set")
    assert pretty_def(ctor) == "case Empty() extends Set"


def test_pretty_minimal_program():
    assert pretty(Program((), Var("x"))) == "x\n"


def test_pretty_rejects_runtime_objects():
    with pytest.raises(ValueError):
        pretty(Program((), Obj("Empty", ())))
    assert pretty_expr(Obj("Empty", ()), runtime=True) == "obj(Empty)"


def test_parse_pretty_fixpoint_on_fuzzed_programs():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed))
        assert parse(pretty(p)) == p, f"seed {seed}"


def test_pretty_parenthesizes_exactly_where_needed():
    cases = [
        (PrimOp("-", PrimOp("-", Var("a"), Var("b")), Var("c")), "a - b - c"),
        (PrimOp("-", Var("a"), PrimOp("-", Var("b"), Var("c"))), "a - (b - c)"),
        (PrimOp("*", PrimOp("+", Var("a"), Var("b")), Var("c")), "(a + b) * c"),
        (Sel(If(Var("c"), Var("x"), Var("y")), "f", ()), "(if (c) x else y).f()"),
        (PrimOp("+", IntLit(1), If(Var("c"), IntLit(2), IntLit(3))), "1 + (if (c) 2 else 3)"),
        (If(Var("c"), If(Var("d"), IntLit(1), IntLit(2)), IntLit(3)), "if (c) if (d) 1 else 2 else 3"),
        (PrimOp("&&", PrimOp("||", Var("a"), Var("b")), Var("c")), "(a || b) && c"),
        (PrimOp("<", PrimOp("+", Var("a"), Var("b")), PrimOp("*", Var("c"), Var("d"))), "a + b < c * d"),
        (App("f", App("g", Var("x"), ()), (Sel(Var("y"), "h", (IntLit(0),)),)), "f(g(x))(y.h(0))"),
        (Sel(Sel(New("C", ()), "f", ()), "g", (CtrCall("D", (Var("x"),)),)), "new C().f().g(D(x))"),
    ]
    for e, want in cases:
        assert pretty_expr(e) == want
        assert parse(want).main == e


def test_structural_equality_ignores_positions():
    a = parse("data Set\nx")
    b = parse("\n\n  data    Set  \n\n   x\n")
    assert a == b
    assert a.defs[0].pos != b.defs[0].pos
