"""Node classes, the bare consumer body, canonicalization, pretty-printing, and the generic traversal."""

import builtins
import copy
import dataclasses
import gc
import sys

import pytest
from conftest import GOLDEN_SELECTIONS, corpus_text, deep_body_source, eval_source, generated, load, walk
from mutators import rewrite_first
from reference_recursive import node_repr
from test_hostile_input import NESTINGS, nest

from food import (
    ParseError,
    TransformError,
    canonicalize,
    check,
    desugar,
    eval_program,
    interp,
    parse,
    preprocess,
    pretty,
    restrict,
    syntax,
    transform,
    transform_expr,
)
from food.context import GlobalCtx
from food.diagnostics import Diagnostic
from food.fuzz import FuzzReport, GenConfig, PropFail, TrialReport, _Binding, check_properties, gen_program
from food.interp import BoolV, Done, FuelExhausted, IntV, ObjV, Stepped, Stuck
from food.pretty import pretty_def, pretty_expr, pretty_type
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
    _nodes,
    children,
    fold,
    node,
    subst,
    with_children,
)
from food.transform import TransformResult


def test_parse_reads_a_bare_body_as_one_wildcard_clause():
    head = "data D\ncase C() extends D\ndef f(self: D)(): Int = "
    sugared = parse(head + "1 + 2\nf(C())")
    assert sugared == parse(head + "match { case _ => 1 + 2 }\nf(C())")
    assert sugared.defs[2].clauses == (Clause(WILDCARD, PrimOp("+", IntLit(1), IntLit(2))),)
    assert "body" not in {f.name for f in dataclasses.fields(Consumer)}
    insert = next(d for d in load("sets_fp").defs if isinstance(d, Consumer) and d.name == "insert")
    assert [c.pattern for c in insert.clauses] == [WILDCARD]


def test_desugar_rewrites_bare_body_to_wildcard_clause():
    head = "data D\ncase C() extends D\ndef f(self: D)(): Int = "
    out = desugar(parse(head + "1 + 2\nf(C())"))
    assert out == parse(head + "match { case _ => 1 + 2 }\nf(C())")
    insert = next(d for d in desugar(load("sets_fp")).defs if isinstance(d, Consumer) and d.name == "insert")
    assert len(insert.clauses) == 1
    assert insert.clauses[0].pattern.is_wildcard


def test_desugar_leaves_clause_form_and_other_defs_alone():
    # the benchmark still calls it between parse and check
    for name in GOLDEN_SELECTIONS:
        p = load(name)
        assert desugar(p) is p


def test_desugar_identity_without_consumers():
    p = load("exp_oop")
    assert desugar(p) == p


def test_desugar_idempotent():
    p = load("sets_fp")
    assert desugar(desugar(p)) == desugar(p)


# the corpus programs with a bare consumer body, and each template's answer at n = 5
BARE_BODIES = ("sets_fp", "setlist_fp", "boolnorm_ctx_fp", "boolnorm_ctx_oop")
TEMPLATE_ANSWERS = {"peano_fp": 5, "peano_oo": 5, "countdown_fp": 15, "countdown_oo": 15}


@pytest.mark.parametrize("name", [*BARE_BODIES, *TEMPLATE_ANSWERS])
def test_parse_output_goes_through_every_layer(name):
    p = parse(eval_source(name, 5) if name in TEMPLATE_ANSWERS else corpus_text(name))
    assert check(p, preprocess(p)) == []
    transform(p)
    assert check_properties(p) == []
    result = eval_program(p)
    assert isinstance(result, Done)
    if name in TEMPLATE_ANSWERS:
        assert result.value == IntLit(TEMPLATE_ANSWERS[name])


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


def test_pretty_prints_runtime_objects_that_parse_rejects():
    # check alone rejects a runtime object in source; the printer prints it,
    # and the text does not parse: obj(C) stops at its ")", obj(C, 1) at its ","
    text = pretty(Program((), Obj("Empty", ())))
    assert text == "obj(Empty)\n"
    assert pretty_expr(Obj("Empty", ())) == "obj(Empty)"
    for source in (text, pretty(Program((), Obj("C", (IntLit(1),))))):
        with pytest.raises(ParseError):
            parse(source)


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
        for n in range(len(kids) + 1):  # a prefix, tuple or list, replaces those children and keeps the rest
            prefix = with_children(e, kids[:n])
            assert type(prefix) is type(e) and children(prefix) == (*kids[:n], *children(e)[n:])
            assert with_children(e, list(kids[:n])) == prefix


def test_walk_is_pre_order():
    names = [e.name for e in walk(ALL_FORMS) if isinstance(e, Var)]
    assert names == ["a", "b", "c", "d", "e"]
    assert next(walk(ALL_FORMS)) is ALL_FORMS
    assert [type(e).__name__ for e in walk(ALL_FORMS)] == [
        "If", "PrimOp", "Sel", "Var", "Var", "Var", "App", "Var", "IntLit",
        "CtrCall", "New", "Var", "BoolLit", "Obj", "IntLit", "Obj",
    ]  # fmt: skip


def body_exprs(program):
    """The main expression and every method and clause body of ``program``."""
    found = [program.main]
    for d in program.defs:
        if isinstance(d, Consumer):
            found += [c.body for c in d.clauses]
        elif isinstance(d, (Interface, Generator)):
            found += [m.body for m in (d.dtrs if isinstance(d, Interface) else d.funs) if m.body is not None]
    return found


def test_nodes_agrees_with_walk():
    corpus = [load(name) for name in sorted(GOLDEN_SELECTIONS)]
    programs = corpus + [generated(GenConfig(seed=seed)) for seed in range(500)]
    programs += [transform(p, selected).program for p, name in zip(corpus, sorted(GOLDEN_SELECTIONS))
                 for selected in (GOLDEN_SELECTIONS[name], None)]
    exprs = [e for p in programs for e in body_exprs(p)]
    # source bodies hold no object: nest one in the arguments of every call form
    calls = [
        lambda *args: Sel(Var("r"), "f", args),
        lambda *args: App("f", Var("r"), args),
        lambda *args: CtrCall("C", args),
        lambda *args: New("C", args),
        lambda *args: Obj("C", args),
    ]
    obj = Obj("S", (Var("v"), Obj("Z", ())))
    for outer in calls:
        for inner in calls:
            exprs.append(outer(Var("a"), inner(Var("b"))))
            for slot in range(2):
                args = [Var("a"), IntLit(1)]
                args[slot] = inner(Var("b"), obj)
                exprs += [outer(*args), PrimOp("+", IntLit(0), If(Var("c"), IntLit(1), outer(*args)))]
    for e in exprs:
        for kinds in ((Var,), (Obj,), (Obj, IntLit)):
            found = _nodes(e, kinds)
            assert sorted(map(id, found)) == sorted(id(x) for x in walk(e) if type(x) in kinds), kinds
    assert len(exprs) > 4_000 and 100 < sum(bool(_nodes(e, (Obj,))) for e in exprs) < len(exprs)


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
DEEP_DEFS = parse("data N\ncase S(n: N) extends N\ndef f(self: N)(): N = self\ninterface I {\n  def f(): I\n}\n0").defs
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
    assert _nodes(e, (Var,)) == [Var("x")]
    assert _nodes(e, (Obj,)) == [Obj("Z", ())]
    assert sum(1 for _ in walk(e)) > 100_000
    minus_one = rewrite_first(e, lambda x: IntLit(-1) if x == Var("x") else None)
    assert not _nodes(minus_one, (Var,)) and _nodes(minus_one, (Obj,))
    assert fold(e, lambda x, kids: 1 + sum(kids)) == sum(1 for _ in walk(e))
    assert pretty_expr(e).count("obj(Z)") == 1
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
    assert pretty_expr(value) == "obj(S, 1, " * 100_000 + "obj(Z)" + ")" * 100_000


def test_subst_takes_any_depth():
    # one rule over fold, at the default recursion limit
    e = deep(100_000)
    out = subst(e, {"x": IntLit(7), "y": BoolLit(True)})
    assert not _nodes(out, (Var,)) and sum(1 for _ in walk(out)) == sum(1 for _ in walk(e))
    assert pretty_expr(out) == pretty_expr(e).replace("x", "7")
    assert subst(e, {}) is e
    # a runtime object holds values only, and is kept as it is
    obj = Obj("C", (Var("x"),))
    assert subst(obj, {"x": IntLit(7)}) is obj


# Per nesting form: definitions that type its tree with the leaf 1 as a
# variable x, x's type, which is the selected type where it is named, one
# level of the tree, and that level translated (None: kept as it is).
DEEP_STYLES = {
    "parentheses": ("0", INT, lambda e: e, None),
    "sums": ("0", INT, lambda e: PrimOp("+", IntLit(1), e), None),
    "constructors": (
        "data N\ncase S(n: N) extends N\n0",
        Named("N"),
        lambda e: CtrCall("S", (e,)),
        lambda e: New("S", (e,)),
    ),
    "objects": (
        "interface N {}\nclass S(n: N) implements N {}\n0",
        Named("N"),
        lambda e: New("S", (e,)),
        lambda e: CtrCall("S", (e,)),
    ),
    "selections": (
        "interface I {\n  def f(): I\n}\n0",
        Named("I"),
        lambda e: Sel(e, "f", ()),
        lambda e: App("f", e, ()),
    ),
    "receivers": (
        "data N\ndef f(self: N)(): N = self\n0",
        Named("N"),
        lambda e: App("f", e, ()),
        lambda e: Sel(e, "f", ()),
    ),
    "ifs": ("0", INT, lambda e: If(BoolLit(True), e, IntLit(2)), None),
}


def test_translation_and_subst_take_every_nesting_form_at_any_depth():
    # translated 10^5 deep with x's type selected, then back, at the default recursion limit
    assert DEEP_STYLES.keys() == NESTINGS.keys()
    for form, (source, x_type, level, flipped) in DEEP_STYLES.items():
        program, env = parse(source), {"x": x_type}
        selected = {x_type.name} if isinstance(x_type, Named) else set()
        e, want = nest(100_000, level, Var("x")), nest(100_000, flipped or level, Var("x"))
        # the form's leaf substituted for x gives its tree; each translated level is another form's
        tree = NESTINGS[form][1]
        assert subst(e, {"x": tree(0)}) == tree(100_000), form
        out, t = transform_expr(e, restrict(preprocess(program), selected), env)
        assert t == x_type and out == want, form
        back = restrict(preprocess(transform(program, selected).program), selected)
        assert transform_expr(out, back, env) == (e, x_type), form


def test_node_equality_takes_any_depth():
    for form, (_, tree) in NESTINGS.items():
        assert tree(10_000) == tree(10_000), form
        # parentheses parse to the same leaf at every depth
        assert (tree(10_000) != tree(9_999)) == (form != "parentheses"), form
    e = deep(10_000)
    assert e == subst(e, {"z": IntLit(0)})
    assert e != subst(e, {"x": IntLit(7)})
    # the recursive compare and the explicit stack agree, labels and arities
    # included: at the bottom of a chain deeper than the recursion limit only
    # the stack reaches a pair of terms
    def chains(terms):
        return [nest(3_000, Wrapped, x) for x in terms], [nest(3_000, Wrapped, x) for x in terms]

    terms = [
        IntLit(1), IntLit(2), BoolLit(True), Var("x"), Var("y"), Obj("C", ()), Obj("C", (IntLit(1),)),
        CtrCall("C", ()), New("C", ()), PrimOp("+", IntLit(1), IntLit(2)), PrimOp("-", IntLit(1), IntLit(2)),
        If(BoolLit(True), IntLit(1), IntLit(2)), Sel(Var("x"), "f", ()), App("f", Var("x"), ()),
        App("g", Var("x"), ()), App("f", Var("x"), (IntLit(1),)),
    ]
    low, high = chains(terms)
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            assert (a == b) == (low[i] == high[j]) != (low[i] != high[j]), (a, b)
    # whole programs: a definition's pos is not compared, at any depth
    for depth in (10_000, 100_000):
        text = deep_body_source(depth)
        p, shifted = parse(text), parse("\n" + text)
        assert p.defs[2].pos != shifted.defs[2].pos and p.defs[2] == shifted.defs[2] and p == shifted
        assert p != parse(deep_body_source(depth, leaf="m"))
    # and on the corpus programs and their transforms
    programs = [load(name) for name in sorted(GOLDEN_SELECTIONS)]
    programs += [transform(q, GOLDEN_SELECTIONS[name]).program for name, q in zip(sorted(GOLDEN_SELECTIONS), programs)]
    low, high = chains(programs)
    for i, a in enumerate(programs):
        for j, b in enumerate(programs):
            assert (a == b) == (low[i] == high[j]) != (low[i] != high[j])


def test_deep_equality_falls_back_once_per_compare(monkeypatch):
    # only the outermost node compare runs the explicit stack, at any depth of
    # its caller's stack; a nested one passes the overflow up.  Caught lower,
    # a sibling compared after the deep field (If.els, Sel.args) could
    # overflow again, and an ancestor would run it over its subtree once more
    deep_eq, runs = syntax._deep_eq, []

    def counted(a, b):
        runs.append(None)
        return deep_eq(a, b)

    monkeypatch.setitem(Var.__eq__.__globals__, "_deep_eq", counted)
    a, b = deep(10_000), deep(10_000)
    callers = {
        "no wrapper": lambda: a == b,
        "one wrapper": lambda: (lambda: a == b)(),
        "two wrappers": lambda: (lambda: (lambda: a == b)())(),
        "!=": lambda: not a != b,
        # a tuple's == is not a node compare: the node inside it falls back
        "tuple ==": lambda: (a,) == (b,),
        # a record's == is the outermost node compare, and falls back itself
        "record ==": lambda: Done(a) == Done(b),
    }
    for name, equal in callers.items():
        runs.clear()
        assert equal() and len(runs) == 1, (name, len(runs))


@node
class Wrapped(Expr):
    """A form no typing or contraction rule knows."""

    inner: Expr


@node
class WrappedType(Type):
    inner: Expr


@node
class WrappedDef(Def):
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
    with pytest.raises(ValueError, match="^unknown expression Wrapped$"):
        pretty_expr(e)
    with pytest.raises(ValueError, match="^unknown expression Wrapped$"):
        pretty(Program((), e))
    with pytest.raises(ValueError, match="^unknown type WrappedType$"):
        pretty_type(WrappedType(e))
    with pytest.raises(ValueError, match="^unknown definition WrappedDef$"):
        pretty_def(WrappedDef(e))
    with pytest.raises(TransformError) as exc:
        transform(Program((WrappedDef(e),), IntLit(0)), ctx=ctx)
    assert str(exc.value) == "unknown definition form WrappedDef"


# ---------------------------------------------------------------------------
# Node classes: frozen, slotted classes, each built once by ``@node``

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
# the package's frozen records are node classes too
CTX = preprocess(Program((Datatype("D"), Constructor("C", (), "D")), IntLit(1)))
RECORD_SAMPLES = {
    Stepped: (IntLit(1),),
    Done: (IntLit(1),),
    Stuck: ("no rule applies", Var("x")),
    FuelExhausted: (IntLit(1),),
    Diagnostic: ("boom", 1, 2),
    TransformResult: (Program((), IntLit(1)), INT, ((Var("x"), Var("y")),)),
    GlobalCtx: tuple(getattr(CTX, f.name) for f in dataclasses.fields(GlobalCtx)),
    GenConfig: (1, 2, 3, 4, 5, 0.5, 0.125),
    _Binding: ("x", INT, True),
    PropFail: ("round-trip", "detail"),
    TrialReport: (1, ("D",), (PropFail("p", "d"),), "witness"),
    FuzzReport: ((TrialReport(1, (), (), ""),),),
}
BUILT_CASES = NODE_CASES + [pytest.param(c, args, id=c.__name__) for c, args in RECORD_SAMPLES.items()]


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
    # @node builds each form once: no class it was given survives as a second
    # subclass of the base.  The bases also hold this module's Wrapped forms
    gc.collect()
    every = [c for base in (Type, Expr, Def) for c in base.__subclasses__()]
    assert len({(c.__module__, c.__qualname__) for c in every}) == len(every)
    subclasses = {c for c in every if c is vars(syntax).get(c.__name__) or c is vars(interp).get(c.__name__)}
    assert subclasses | {Param, Pattern, Clause, Dtr, Program} == set(SAMPLES)


def test_node_runs_one_exec_per_class(monkeypatch):
    # dataclass only records the fields; one exec writes __init__, and ==,
    # hash and repr are shared.  Only the exec of @node's own source (the one that
    # defines outer) is counted: from Python 3.13 dataclass runs one of its own
    # even with init, repr and eq off.
    calls, real_exec = [], builtins.exec

    def counted(*args):
        calls.append(args)
        return real_exec(*args)

    with monkeypatch.context() as patched:
        patched.setattr(builtins, "exec", counted)

        @node
        class Throwaway:
            name: str
            pos: tuple[int, int] | None = dataclasses.field(default=None, compare=False, repr=False)

    assert len([args for args in calls if isinstance(args[0], str) and args[0].startswith("def outer(")]) == 1
    a = Throwaway("x", (1, 2))
    assert a == Throwaway("x") and hash(a) == hash(Throwaway("x")) and a.pos == (1, 2)
    assert repr(a) == f"{Throwaway.__qualname__}(name='x')"


@pytest.mark.parametrize(("cls", "args"), BUILT_CASES)
def test_node_fields_cannot_be_set_or_deleted(cls, args):
    a, _ = both_ways(cls, args)
    for name in field_names(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
    assert a == both_ways(cls, args)[0]


@pytest.mark.parametrize(("cls", "args"), BUILT_CASES)
def test_node_instances_have_no_dict(cls, args):
    a, _ = both_ways(cls, args)
    assert not hasattr(a, "__dict__")
    assert set(cls.__slots__) == set(field_names(cls))


@pytest.mark.parametrize(("cls", "args"), BUILT_CASES)
def test_node_equality_and_hash_agree_across_constructions(cls, args):
    a, b = both_ways(cls, args)
    assert a is not b and a == b and a.__eq__(args) is NotImplemented
    if cls is GlobalCtx:  # its maps are dicts, so it is unhashable, as a frozen dataclass is
        pytest.raises(TypeError, hash, a)
    else:
        assert hash(a) == hash(b)
    assert [getattr(a, x) for x in field_names(cls)] == [getattr(b, x) for x in field_names(cls)]


@pytest.mark.parametrize(
    "cls", [c for c in NODE_CLASSES if "pos" in field_names(c)], ids=lambda c: c.__name__
)
def test_node_equality_ignores_pos(cls):
    a, _ = both_ways(cls)
    moved = dataclasses.replace(a, pos=(3, 4))
    assert a.pos is None and moved.pos == (3, 4)
    assert moved == a and hash(moved) == hash(a)


@pytest.mark.parametrize(("cls", "args"), BUILT_CASES)
def test_node_replace_rebuilds_with_changed_fields(cls, args):
    a, _ = both_ways(cls, args)
    rebuilt = dataclasses.replace(a)
    assert type(rebuilt) is cls and rebuilt == a and rebuilt is not a
    # copies rebuild through the constructor too
    for rebuilt in (copy.copy(a), copy.deepcopy(a)):
        assert type(rebuilt) is cls and rebuilt == a and repr(rebuilt) == repr(a)
    for name in field_names(cls):
        changed = dataclasses.replace(a, **{name: "changed"})
        assert getattr(changed, name) == "changed"
        assert all(getattr(changed, x) is getattr(a, x) for x in field_names(cls) if x != name)


@pytest.mark.parametrize(("cls", "args"), BUILT_CASES)
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


def every_node(top):
    """``top`` and every node it holds, through node fields and tuples."""
    found, todo = [], [top]
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            todo += x
        elif type(x) in syntax._COMPARED:
            found.append(x)
            todo += [getattr(x, f.name) for f in dataclasses.fields(x)]
    return found


def test_node_repr_is_the_recursive_repr_on_every_node():
    programs = [load(name) for name in sorted(GOLDEN_SELECTIONS)]
    programs += [transform(q, GOLDEN_SELECTIONS[name]).program for name, q in zip(sorted(GOLDEN_SELECTIONS), programs)]
    programs += [generated(GenConfig(seed=seed)) for seed in range(500)]
    checked = 0
    for program in programs:
        for x in every_node(program):
            assert repr(x) == node_repr(x)
            checked += 1
    assert checked > 10_000


def test_node_repr_takes_any_depth():
    # the recursive repr raised RecursionError some 300 levels deep; the text
    # at depth n is the one-level wrapper's n times around the leaf's
    for form, (_, tree) in NESTINGS.items():
        leaf, once = repr(tree(0)), repr(tree(1))
        at = once.rindex(leaf)
        want = once[:at] * 100_000 + leaf + once[at + len(leaf) :] * 100_000
        e = tree(100_000)
        assert repr(e) == want, form
        assert repr(Stuck("no rule applies", e)) == f"Stuck(reason='no rule applies', expr={want})", form
        assert repr(FuelExhausted(e)) == f"FuelExhausted(last={want})", form


def test_node_hash_agrees_with_equality_on_every_node():
    # each program is built twice: equal nodes built apart hash alike, and no
    # two unequal nodes share a hash
    names = sorted(GOLDEN_SELECTIONS)

    def programs():
        loaded = [load(name) for name in names]
        transformed = [transform(q, GOLDEN_SELECTIONS[name]).program for name, q in zip(names, loaded)]
        return loaded + transformed + [gen_program(GenConfig(seed=seed)) for seed in range(500)]

    trees = [(tree(300), tree(300)) for _, tree in NESTINGS.values()]
    distinct = set()
    for a, b in [*zip(programs(), programs()), *trees]:
        for x, y in zip(every_node(a), every_node(b), strict=True):
            assert x == y and hash(x) == hash(y), x
            distinct.add(x)
    assert len(distinct) > 10_000 and len({hash(x) for x in distinct}) == len(distinct)


def at_stack_depth(depth, f):
    """f(), called with about ``depth`` frames on the stack."""
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1

    def down(k):
        return f() if k <= 0 else down(k - 1)

    return down(depth - n)


def test_node_hash_takes_any_depth():
    # the recursive hash raised RecursionError some 500 levels deep.  An equal
    # node built apart is found in a set or a dict only if both hash alike: a
    # key hashed on a deep stack is found from a shallow one, and the reverse
    for form, (_, tree) in NESTINGS.items():
        e, same = tree(100_000), tree(100_000)
        keys, table = at_stack_depth(900, lambda: {e}), {e: form}
        assert same in keys and at_stack_depth(900, lambda: table[same]) == form, form


def test_context_equality_and_repr_ignore_its_cells_and_typings():
    other = dataclasses.replace(CTX, cells={}, typings={id(CTX): None})
    assert other == CTX and repr(other) == repr(CTX) and "cells" not in repr(CTX) and "typings" not in repr(CTX)
    assert dataclasses.replace(CTX, dt=()) != CTX


def test_gen_config_replace_keeps_the_other_knobs():
    cfg = dataclasses.replace(GenConfig(seed=1), seed=2)
    assert cfg == GenConfig(seed=2) and cfg != GenConfig(seed=1) and repr(cfg).startswith("GenConfig(seed=2, max_types=3,")


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
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        Var("x", "y")
    with pytest.raises(TypeError):
        Var(nom="x")
