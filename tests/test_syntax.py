"""Node classes, desugaring, canonicalization, pretty-printing, and the generic traversal."""

import dataclasses

import pytest
from conftest import generated, load, load_raw
from test_hostile_input import NESTINGS, nest

from food import (
    TransformError,
    canonicalize,
    check,
    desugar,
    interp,
    parse,
    preprocess,
    pretty,
    syntax,
    transform_expr,
)
from food.fuzz import GenConfig
from food.interp import BoolV, IntV, ObjV
from food.pretty import pretty_def, pretty_expr
from food.syntax import (
    BOOL,
    INT,
    WILDCARD,
    App,
    Arrow,
    BoolLit,
    BoolT,
    Clause,
    Constructor,
    Consumer,
    CtrCall,
    Datatype,
    Def,
    Dtr,
    Expr,
    Generator,
    If,
    IntLit,
    Interface,
    IntT,
    Named,
    New,
    Obj,
    Param,
    Pattern,
    PrimOp,
    Program,
    Sel,
    Type,
    Var,
    children,
    contains_obj,
    fold,
    free_vars,
    node,
    rewrite_first,
    same,
    subst,
    walk,
    with_children,
)


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
        p = generated(GenConfig(seed=seed))
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


# ---------------------------------------------------------------------------
# children / with_children / walk / rewrite_first

# one node of every form, with distinct leaves so positions can be told apart
ALL_FORMS = If(
    PrimOp("==", Sel(Var("a"), "f", (Var("b"), Var("c"))), App("g", Var("d"), (IntLit(1),))),
    CtrCall("C", (New("D", (Var("e"),)), BoolLit(True))),
    Obj("E", (IntLit(2), Obj("F", ()))),
)


def test_children_lists_immediate_subexpressions_left_to_right():
    sel, app = ALL_FORMS.cond.lhs, ALL_FORMS.cond.rhs
    assert children(ALL_FORMS) == (ALL_FORMS.cond, ALL_FORMS.then, ALL_FORMS.els)
    assert children(ALL_FORMS.cond) == (sel, app)
    assert children(sel) == (Var("a"), Var("b"), Var("c"))
    assert children(app) == (Var("d"), IntLit(1))
    assert children(ALL_FORMS.then) == (New("D", (Var("e"),)), BoolLit(True))
    assert children(ALL_FORMS.els) == (IntLit(2), Obj("F", ()))
    for leaf in (Var("x"), IntLit(0), BoolLit(False), Obj("F", ()), CtrCall("G", ())):
        assert children(leaf) == ()


def test_with_children_rebuilds_every_form():
    for e in walk(ALL_FORMS):
        assert with_children(e, children(e)) == e
        kids = tuple(Var(f"k{i}") for i in range(len(children(e))))
        rebuilt = with_children(e, kids)
        assert type(rebuilt) is type(e) and children(rebuilt) == kids


def test_walk_is_pre_order():
    names = [e.name for e in walk(ALL_FORMS) if isinstance(e, Var)]
    assert names == ["a", "b", "c", "d", "e"]
    assert next(walk(ALL_FORMS)) is ALL_FORMS
    assert [type(e).__name__ for e in walk(ALL_FORMS)] == [
        "If", "PrimOp", "Sel", "Var", "Var", "Var", "App", "Var", "IntLit",
        "CtrCall", "New", "Var", "BoolLit", "Obj", "IntLit", "Obj",
    ]  # fmt: skip


def test_rewrite_first_replaces_only_the_first_match_in_pre_order():
    def bump(e):
        return IntLit(e.value + 10) if isinstance(e, IntLit) else None

    once = rewrite_first(ALL_FORMS, bump)
    assert once.cond.rhs.args == (IntLit(11),)  # the 1 inside the call, not the 2 after it
    assert once.els == ALL_FORMS.els and once.then is ALL_FORMS.then
    assert rewrite_first(ALL_FORMS, lambda e: Var("z") if e == ALL_FORMS else None) == Var("z")
    assert rewrite_first(ALL_FORMS, lambda e: None) is None


def deep(depth):
    """A chain of every compound form, ``depth`` nodes deep, built without recursion."""
    e = PrimOp("+", Var("x"), Obj("Z", ()))
    for i in range(depth):
        match i % 6:
            case 0:
                e = PrimOp("-", IntLit(i), e)
            case 1:
                e = If(BoolLit(True), e, IntLit(0))
            case 2:
                e = Sel(e, "f", (IntLit(i),))
            case 3:
                e = App("g", IntLit(i), (e,))
            case 4:
                e = CtrCall("C", (e,))
            case 5:
                e = New("D", (IntLit(i), e))
    return e


# A context for the nesting forms: S is a constructor of N, f a consumer on N
# and a destructor of I.  Per form: the variable x's type, and the outcome of
# typing the 10^5-deep term, a type or the first error.
DEEP_DEFS = desugar(
    parse("data N\ncase S(n: N) extends N\ndef f(self: N)(): N = self\ninterface I {\n  def f(): I\n}\n0")
).defs
DEEP_TYPING = {
    "parentheses": (INT, INT),
    "sums": (INT, INT),
    "constructors": (INT, "1 has type Int, expected N"),
    "objects": (INT, "S is not a class"),
    "selections": (Named("I"), Named("I")),
    "receivers": (Named("N"), Named("N")),
    "ifs": (INT, INT),
}


def test_traversals_do_not_recurse_on_deep_expressions():
    e = deep(100_000)
    assert free_vars(e) == {"x"}
    assert contains_obj(e)
    assert sum(1 for _ in walk(e)) > 100_000
    minus_one = rewrite_first(e, lambda x: IntLit(-1) if x == Var("x") else None)
    assert not free_vars(minus_one) and contains_obj(minus_one)
    assert fold(e, lambda x, kids: 1 + sum(kids)) == sum(1 for _ in walk(e))
    assert pretty_expr(e, runtime=True).count("obj(Z)") == 1
    # the printer, the typer and the checker take every nesting form at any depth
    ctx = preprocess(Program(DEEP_DEFS, IntLit(0)))
    for form, (source, tree) in NESTINGS.items():
        e, (x_type, typing) = tree(100_000), DEEP_TYPING[form]
        assert fold(e, lambda x, kids: 1 + sum(kids)) == sum(1 for _ in walk(e)), form
        # the printer drops the source's redundant parentheses
        printed = {"parentheses": "1", "sums": "1 + (" * 99_999 + "1 + 1" + ")" * 99_999}
        assert pretty(Program((), e)) == printed.get(form, source(100_000)) + "\n", form
        try:
            assert transform_expr(e, ctx, {"x": x_type})[1] == typing, form
        except TransformError as exc:
            assert str(exc) == typing, form
        if form in ("selections", "receivers"):
            typing = "unbound variable 'x'"  # the main expression binds nothing
        diagnostics = check(Program(DEEP_DEFS, e), ctx)
        assert [d.message for d in diagnostics] == ([] if isinstance(typing, Type) else [typing]), form
    value = nest(100_000, lambda v: Obj("S", (IntLit(1), v)), Obj("Z", ()))
    assert interp.format_value(value) == pretty_expr(value, runtime=True)


def test_subst_takes_any_depth():
    # one rule over fold, at the default recursion limit
    e = deep(100_000)
    out = subst(e, {"x": IntLit(7), "y": BoolLit(True)})
    assert not free_vars(out) and sum(1 for _ in walk(out)) == sum(1 for _ in walk(e))
    assert pretty_expr(out, runtime=True) == pretty_expr(e, runtime=True).replace("x", "7")
    assert subst(e, {}) is e
    # a runtime object holds values only, and is kept as it is
    obj = Obj("C", (Var("x"),))
    assert subst(obj, {"x": IntLit(7)}) is obj


def test_same_is_equality_at_any_depth():
    for form, (_, tree) in NESTINGS.items():
        assert same(tree(10_000), tree(10_000)), form
        # parentheses parse to the same leaf at every depth
        assert same(tree(10_000), tree(9_999)) == (form == "parentheses"), form
    e = deep(10_000)
    assert same(e, subst(e, {"z": IntLit(0)}))
    assert not same(e, subst(e, {"x": IntLit(7)}))
    # on shallow terms it agrees with dataclass ==, labels and arities included
    terms = [
        IntLit(1), IntLit(2), BoolLit(True), Var("x"), Var("y"), Obj("C", ()), Obj("C", (IntLit(1),)),
        CtrCall("C", ()), New("C", ()), PrimOp("+", IntLit(1), IntLit(2)), PrimOp("-", IntLit(1), IntLit(2)),
        If(BoolLit(True), IntLit(1), IntLit(2)), Sel(Var("x"), "f", ()), App("f", Var("x"), ()),
        App("g", Var("x"), ()), App("f", Var("x"), (IntLit(1),)),
    ]
    for a in terms:
        for b in terms:
            assert same(a, b) == (a == b), (a, b)


@node
class Wrapped(Expr):
    """A form no typing or contraction rule knows."""

    inner: Expr


def test_an_unknown_form_is_named_by_its_class_at_any_depth():
    # the messages name the form's class: its repr would recurse once per
    # level of the term it holds
    e = Wrapped(nest(10_000, lambda x: PrimOp("+", IntLit(1), x), IntLit(1)))
    ctx = preprocess(Program((), IntLit(0)))
    with pytest.raises(TransformError) as exc:
        transform_expr(e, ctx, {})
    assert str(exc.value) == "unknown expression form Wrapped"
    assert interp.step(e, ctx).reason == "no rule applies to Wrapped"
    assert interp.eval_program(Program((), e), ctx=ctx).reason == "no rule applies to Wrapped"


# ---------------------------------------------------------------------------
# Node classes: frozen, slotted dataclasses built by ``@node``

# positional constructor arguments of one instance of every node class
SAMPLES = {
    Named: ("D",),
    IntT: (),
    BoolT: (),
    Arrow: ((Named("D"), INT), BOOL),
    Var: ("x",),
    Sel: (Var("x"), "f", (IntLit(1),)),
    App: ("f", Var("x"), (IntLit(1),)),
    CtrCall: ("C", (IntLit(1),)),
    New: ("C", (IntLit(1),)),
    Obj: ("C", (IntLit(1),)),
    IntLit: (3,),
    BoolLit: (True,),
    PrimOp: ("+", IntLit(1), IntLit(2)),
    If: (BoolLit(True), IntLit(1), IntLit(2)),
    Param: ("x", INT),
    Pattern: ("C", ("x", "y")),
    Clause: (Pattern("C", ("x",)), Var("x")),
    Dtr: ("f", (Param("x", INT),), INT, Var("x")),
    Datatype: ("D",),
    Interface: ("I", (Dtr("f", (), INT),)),
    Constructor: ("C", (Param("x", INT),), "D"),
    Generator: ("G", (Param("x", INT),), "I", (Dtr("f", (), INT, Var("x")),)),
    Consumer: ("f", "D", (), INT, (Clause(WILDCARD, IntLit(0)),)),
    Program: ((Datatype("D"),), IntLit(1)),
}
NODE_CLASSES = list(SAMPLES)
# the interpreter's value constructors are the literal and object classes
# under their runtime names; each is checked under that name as well
VALUE_SAMPLES = {
    "IntV": (IntV, (1,)),
    "BoolV": (BoolV, (False,)),
    "ObjV": (ObjV, ("C", (IntV(1),))),
}
NODE_CASES = [pytest.param(c, args, id=c.__name__) for c, args in SAMPLES.items()] + [
    pytest.param(c, args, id=name) for name, (c, args) in VALUE_SAMPLES.items()
]


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def both_ways(cls, args=None):
    """An instance of cls, built with positional and with keyword arguments.

    Without args, the sample arguments of cls are used.
    """
    args = SAMPLES[cls] if args is None else args
    return cls(*args), cls(**dict(zip(field_names(cls), args)))


def bind_positionally(a):
    """The subjects a class pattern with one capture per positional slot binds on a."""
    cls, n = type(a), len(type(a).__match_args__)
    match a:
        case cls() if n == 0:
            return ()
        case cls(x1) if n == 1:
            return (x1,)
        case cls(x1, x2) if n == 2:
            return (x1, x2)
        case cls(x1, x2, x3) if n == 3:
            return (x1, x2, x3)
        case cls(x1, x2, x3, x4) if n == 4:
            return (x1, x2, x3, x4)
        case cls(x1, x2, x3, x4, x5) if n == 5:
            return (x1, x2, x3, x4, x5)
        case cls(x1, x2, x3, x4, x5, x6) if n == 6:
            return (x1, x2, x3, x4, x5, x6)
        case cls(x1, x2, x3, x4, x5, x6, x7) if n == 7:
            return (x1, x2, x3, x4, x5, x6, x7)
    raise AssertionError(f"no pattern bound {a!r}")


def test_samples_cover_every_node_class():
    # a slotted dataclass is a new class; the class it replaced stays a
    # subclass of the base, but is no longer what the module binds
    subclasses = {
        c
        for base in (Type, Expr, Def)
        for c in base.__subclasses__()
        if c is vars(syntax).get(c.__name__) or c is vars(interp).get(c.__name__)
    }
    assert subclasses | {Param, Pattern, Clause, Dtr, Program} == set(SAMPLES)


@pytest.mark.parametrize(("cls", "args"), NODE_CASES)
def test_node_fields_cannot_be_set_or_deleted(cls, args):
    a, _ = both_ways(cls, args)
    for name in field_names(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
    assert a == both_ways(cls, args)[0]


@pytest.mark.parametrize(("cls", "args"), NODE_CASES)
def test_node_instances_have_no_dict(cls, args):
    a, _ = both_ways(cls, args)
    assert not hasattr(a, "__dict__")
    assert set(cls.__slots__) == set(field_names(cls))


@pytest.mark.parametrize(("cls", "args"), NODE_CASES)
def test_node_equality_and_hash_agree_across_constructions(cls, args):
    a, b = both_ways(cls, args)
    assert a is not b and a == b and hash(a) == hash(b)
    assert [getattr(a, x) for x in field_names(cls)] == [getattr(b, x) for x in field_names(cls)]


@pytest.mark.parametrize(
    "cls", [c for c in NODE_CLASSES if "pos" in field_names(c)], ids=lambda c: c.__name__
)
def test_node_equality_ignores_pos(cls):
    a, _ = both_ways(cls)
    moved = dataclasses.replace(a, pos=(3, 4))
    assert a.pos is None and moved.pos == (3, 4)
    assert moved == a and hash(moved) == hash(a)


@pytest.mark.parametrize(("cls", "args"), NODE_CASES)
def test_node_replace_rebuilds_with_changed_fields(cls, args):
    a, _ = both_ways(cls, args)
    copy = dataclasses.replace(a)
    assert type(copy) is cls and copy == a and copy is not a
    for name in field_names(cls):
        changed = dataclasses.replace(a, **{name: "changed"})
        assert getattr(changed, name) == "changed"
        assert all(getattr(changed, x) is getattr(a, x) for x in field_names(cls) if x != name)


@pytest.mark.parametrize(("cls", "args"), NODE_CASES)
def test_node_repr_is_the_dataclass_repr(cls, args):
    a, _ = both_ways(cls, args)
    shown = [f"{f.name}={getattr(a, f.name)!r}" for f in dataclasses.fields(cls) if f.repr]
    assert repr(a) == f"{cls.__name__}({', '.join(shown)})"


def test_node_repr_examples():
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(IntT()) == "IntT()"
    assert repr(Datatype("D", pos=(1, 1))) == "Datatype(name='D')"
    shown = "PrimOp(op='+', lhs=IntLit(value=1), rhs=Var(name='y'))"
    assert repr(PrimOp("+", IntLit(1), Var("y"))) == shown
    assert repr(ObjV("C", (BoolV(True),))) == "Obj(name='C', args=(BoolLit(value=True),))"


@pytest.mark.parametrize(("cls", "args"), NODE_CASES)
def test_node_class_patterns_bind_positionally(cls, args):
    a, _ = both_ways(cls, args)
    assert cls.__match_args__ == tuple(field_names(cls))
    assert bind_positionally(a) == tuple(getattr(a, x) for x in field_names(cls))


def test_node_class_pattern_example():
    match PrimOp("*", IntLit(6), Var("y")):
        case PrimOp(op, lhs, rhs):
            assert (op, lhs, rhs) == ("*", IntLit(6), Var("y"))
        case _:
            raise AssertionError("PrimOp pattern did not bind")


def test_node_defaults_apply_when_omitted():
    assert Pattern("C").vars == () and WILDCARD == Pattern(None, ())
    assert Dtr("f", (), INT).body is None
    assert Consumer("f", "D", (), INT).clauses is None and Consumer("f", "D", (), INT).pos is None
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        Var("x", "y")
    with pytest.raises(TypeError):
        Var(nom="x")
