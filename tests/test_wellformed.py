"""Static well-formedness checks."""

import random
import time
from dataclasses import replace

import pytest
from conftest import GOLDEN_SELECTIONS, generated, load

from food import ParseError, Stuck, TransformError, canonicalize, check, eval_program, parse, preprocess, transform
from food.fuzz import GenConfig
from food.pretty import pretty, pretty_expr
from food.syntax import (
    INT,
    App,
    Arrow,
    Clause,
    Constructor,
    Consumer,
    CtrCall,
    Datatype,
    Dtr,
    FALSE,
    Generator,
    Interface,
    IntLit,
    Named,
    New,
    Obj,
    Param,
    Pattern,
    PrimOp,
    Program,
    Sel,
    TRUE,
    Var,
)


def check_src(src: str):
    p = parse(src)
    return check(p, preprocess(p))


def test_golden_programs_are_well_formed():
    for name in GOLDEN_SELECTIONS:
        p = load(name)
        assert check(p, preprocess(p)) == [], name


def test_missing_clause_is_non_exhaustive():
    p = load("sets_fp")
    contains = next(d for d in p.defs if isinstance(d, Consumer) and d.name == "contains")
    broken = replace(
        contains, clauses=tuple(c for c in contains.clauses if c.pattern.name != "Empty")
    )
    q = Program(tuple(broken if d is contains else d for d in p.defs), p.main)
    diags = check(q, preprocess(q))
    assert any("no clause for constructor Empty" in d.message for d in diags)


def test_pattern_variables_must_match_field_names():
    from conftest import corpus_text

    src = corpus_text("sets_fp").replace(
        "case Insert(s, n) => n == i || contains(s)(i)",
        "case Insert(t, n) => n == i || contains(t)(i)",
    )
    p = parse(src)
    diags = check(p, preprocess(p))
    assert any("must bind the field names" in d.message for d in diags)


def test_unbound_variable():
    diags = check_src("data Set\ncase C() extends Set\ndef f(self: Set)(): Int = match { case C() => y }\n1")
    assert any("unbound variable 'y'" in d.message for d in diags)
    for src in (
        "interface I { def f(): Int = y }\n1",
        "interface I { def f(): Int }\nclass C() implements I { def f(): Int = y }\n1",
        "y + 1",
    ):
        assert any("unbound variable 'y'" in d.message for d in check_src(src)), src


def test_generator_must_implement_exactly_the_interface():
    missing = check_src("interface I { def f(): Int }\nclass C() implements I {}\n1")
    assert any("does not implement 'f'" in d.message for d in missing)

    extra = check_src(
        "interface I { def f(): Int }\n"
        "class C() implements I { def f(): Int = 1 def g(): Int = 2 }\n1"
    )
    assert any("not declared by interface" in d.message for d in extra)

    defaulted = check_src(
        "interface I { def f(): Int = 1 }\nclass C() implements I {}\nnew C().f()"
    )
    assert defaulted == []


def test_a_method_without_a_body_is_reported_before_typing():
    # only a hand-built class reaches this: the parser gives every method a body
    p = parse("interface I { def m(): Int }\nclass A() implements I { def m(): Int = 1 }\nnew A().m()")
    a = next(d for d in p.defs if isinstance(d, Generator))
    bodiless = replace(a, funs=(replace(a.funs[0], body=None),))
    q = Program(tuple(bodiless if d is a else d for d in p.defs), p.main)
    ctx = preprocess(q)
    assert [(d.message, d.line, d.column) for d in check(q, ctx)] == [("method m of class A has no body", *a.pos)]
    assert eval_program(q, ctx=ctx) == Stuck("no destructor 'm' on A", Sel(Obj("A", ()), "m", ()))


def test_override_requires_exact_signature():
    wrong_type = check_src(
        "interface I { def f(x: Int): Int = x }\n"
        "class C() implements I { def f(x: Bool): Int = 1 }\n1"
    )
    assert any("does not match the declared signature" in d.message for d in wrong_type)

    wrong_name = check_src(
        "interface I { def f(x: Int): Int = x }\n"
        "class C() implements I { def f(y: Int): Int = y }\n1"
    )
    assert any("does not match the declared signature" in d.message for d in wrong_name)


def test_call_kind_and_arity():
    diags = check_src("data Set\ncase C(n: Int) extends Set\nC()")
    assert any("takes 1 argument(s), got 0" in d.message for d in diags)
    diags = check_src("interface I {}\nclass C() implements I {}\nC()")
    assert any("C is not a constructor" in d.message for d in diags)
    diags = check_src("data Set\ncase C() extends Set\nnew C()")
    assert any("C is not a class" in d.message for d in diags)
    diags = check_src(
        "interface I { def f(): Int }\nclass C() implements I { def f(): Int = 1 }\nnew C().g()"
    )
    assert any("has no destructor 'g'" in d.message for d in diags)
    diags = check_src(
        "interface I { def f(x: Int): Int }\n"
        "class C() implements I { def f(x: Int): Int = x }\nnew C().f()"
    )
    assert any("takes 1 argument(s), got 0" in d.message for d in diags)
    diags = check_src("data D\ncase C() extends D\ndef f(self: D)(x: Int): Int = x\nf(C())(1, 2)")
    assert any("takes 1 argument(s), got 2" in d.message for d in diags)


_OO = "interface D { def f(x: Int): Int }\nclass C(n: Int) implements D { def f(x: Int): Int = x }\n"
_FP = "data D\ncase C(n: Int) extends D\ndef f(self: D)(x: Int): Int = x\n"


# both halves of each typing rule that one case of transform_expr serves:
# selection / application, then constructor call / instantiation
@pytest.mark.parametrize(
    "src, rendered",
    [
        (_OO + "1.f(2)", "cannot select 'f' on a value of type Int"),
        (_FP + "f(1)(2)", "cannot apply consumer 'f' to a value of type Int"),
        (_OO + "new C(1).g(2)", "type D has no destructor 'g'"),
        (_FP + "g(C(1))(2)", "type D has no consumer 'g'"),
        (_OO + "new C(1).f()", "new C(1).f() takes 1 argument(s), got 0"),
        (_FP + "f(C(1))(1, 2)", "f(C(1))(1, 2) takes 1 argument(s), got 2"),
        (_FP + "C()", "C() takes 1 argument(s), got 0"),
        (_OO + "new C(1, 2)", "new C(1, 2) takes 1 argument(s), got 2"),
        (_OO + "C(1)", "C is not a constructor"),
        (_FP + "new C(1)", "C is not a class"),
        (_OO + "interface E { def h(): Int = 1.f(2) }\n1", "3:1: cannot select 'f' on a value of type Int"),
        (_FP + "def h(self: D)(): Int = f(true)(2)\n1", "4:1: cannot apply consumer 'f' to a value of type Bool"),
    ],
)
def test_dual_typing_rules_render_their_own_diagnostic(src, rendered):
    assert [d.render() for d in check_src(src)] == [rendered]


def test_runtime_objects_are_rejected():
    p = load("sets_fp")
    obj = Obj("Empty", ())
    consumer = next(d for d in p.defs if isinstance(d, Consumer))
    clause = replace(consumer.clauses[0], body=obj)
    broken = replace(consumer, clauses=(clause,) + consumer.clauses[1:])
    q = Program(tuple(broken if d is consumer else d for d in p.defs), obj)
    diags = check(q, preprocess(q))
    hits = [d for d in diags if d.message == "runtime object in source program"]
    assert [(d.line, d.column) for d in hits] == [consumer.pos, (0, 0)]


@pytest.mark.parametrize("n", [-1, 2**63])
def test_literals_the_parser_cannot_read_are_rejected(n):
    p = Program((), IntLit(n))
    assert [d.render() for d in check(p, preprocess(p))] == [f"integer literal {n} is outside 0..9223372036854775807"]


def planted_in_a_method(p: Program, body) -> tuple[Program, tuple[int, int]]:
    """p with body in place of its first class method's, and that class's position."""
    gen = next(d for d in p.defs if isinstance(d, Generator) and d.funs)
    broken = replace(gen, funs=(replace(gen.funs[0], body=body),) + gen.funs[1:])
    return Program(tuple(broken if d is gen else d for d in p.defs), p.main), gen.pos


def test_a_negative_literal_in_a_method_is_rejected_at_its_definition():
    q, pos = planted_in_a_method(load("sets_oop"), PrimOp("+", IntLit(1), IntLit(-1)))
    diags = [(d.message, d.line, d.column) for d in check(q, preprocess(q))]
    assert diags == [("integer literal -1 is outside 0..9223372036854775807", *pos)]


@pytest.mark.parametrize("value", ["3", 1.5, True])
def test_a_literal_whose_value_is_not_an_int_is_rejected(value):
    # a str fails the range test with a TypeError, and a float or a bool
    # passes it but prints as text that the parser does not read back
    message = f"integer literal value {value!r} is not an int"
    p = Program((), IntLit(value))
    assert [(d.message, d.line, d.column) for d in check(p, preprocess(p))] == [(message, 0, 0)]
    q, pos = planted_in_a_method(load("sets_oop"), PrimOp("+", IntLit(1), IntLit(value)))
    assert [(d.message, d.line, d.column) for d in check(q, preprocess(q))] == [(message, *pos)]


@pytest.mark.parametrize("lhs, rhs", [(TRUE, FALSE), (IntLit(1), IntLit(2))])
def test_an_operator_outside_the_table_is_rejected_and_prints_as_text_parse_rejects(lhs, rhs):
    # syntax.OPERATORS is the one table of the operators: the typer reports
    # any other before its operands, and the printer prints it as it is
    p = Program((), PrimOp("%", lhs, rhs))
    assert [(d.message, d.line, d.column) for d in check(p, preprocess(p))] == [("unknown operator '%'", 0, 0)]
    text = pretty(p)
    with pytest.raises(ParseError, match=f"^1:{text.index('%') + 1}: unexpected character '%'$"):
        parse(text)
    q, pos = planted_in_a_method(load("sets_oop"), PrimOp("%", lhs, rhs))
    assert [(d.message, d.line, d.column) for d in check(q, preprocess(q))] == [("unknown operator '%'", *pos)]
    with pytest.raises(TransformError) as raised:
        transform(q)
    assert [(d.message, d.line, d.column) for d in raised.value.diagnostics] == [("unknown operator '%'", *pos)]


def test_the_largest_literal_is_well_formed_and_round_trips():
    p = Program((), IntLit(2**63 - 1))
    assert check(p, preprocess(p)) == [] and parse(pretty(p)) == p


def test_binder_conflicts_are_rejected():
    # a pattern variable shadowing a consumer parameter would make the
    # evaluation substitution ambiguous
    src = (
        "data Set\ncase C(y: Int) extends Set\n"
        "def f(self: Set)(y: Int): Int = match { case C(y) => y }\n1"
    )
    diags = check_src(src)
    assert any("shadows parameter" in d.message for d in diags)

    src = "interface I { def f(): Int }\nclass C(a: Int) implements I { def f(): Int = a }\n1"
    assert check_src(src) == []
    src = (
        "interface I { def f(a: Int): Int }\n"
        "class C(a: Int) implements I { def f(a: Int): Int = a }\n1"
    )
    diags = check_src(src)
    assert any("shadows field" in d.message for d in diags)
    # the parser reads no field named self, so only a hand-built program has one
    p = Program((Datatype("D"), Constructor("C", (Param("self", INT),), "D")), IntLit(0))
    assert [d.render() for d in check(p, preprocess(p))] == ["constructor C declares reserved name 'self'"]


def test_duplicate_parameters():
    diags = check_src("data D\ncase C() extends D\ndef f(self: D)(a: Int, a: Int): Int = 1\n2")
    assert any("declares 'a' twice" in d.message for d in diags)


def test_type_errors_are_reported():
    diags = check_src("1 + true")
    assert any("expected Int" in d.message for d in diags)
    diags = check_src("if (1) 2 else 3")
    assert any("expected Bool" in d.message for d in diags)


def test_duplicate_clause():
    diags = check_src(
        "data D\ncase C() extends D\n"
        "def f(self: D)(): Int = match { case C() => 1 case C() => 2 }\n1"
    )
    assert any("two clauses for C" in d.message for d in diags)
    src = "interface I { def f(): Int }\nclass C() implements I { def f(): Int = 1 def f(): Int = 2 }\n1"
    assert [d.render() for d in check_src(src)] == ["2:1: method f of class C is defined twice"]


def test_unknown_types_in_signatures():
    diags = check_src("data D\ncase C(x: Mystery) extends D\n1")
    assert any("undeclared type Mystery" in d.message for d in diags)


def test_check_survives_canonicalize():
    for name in GOLDEN_SELECTIONS:
        p = canonicalize(load(name))
        assert check(p, preprocess(p)) == [], name


def test_check_ok_implies_transform_succeeds():
    for name, selected in GOLDEN_SELECTIONS.items():
        p = load(name)
        assert check(p, preprocess(p)) == []
        transform(p, selected)  # must not raise
        transform(p)  # all types selected


def test_a_wide_consumer_checks_and_canonicalizes_in_linear_time():
    # clauses used to be ranked with list.index and looked up in lists, so
    # 16,000 constructors took about 11 s; ranking and membership are by hash
    names = [f"C{i}" for i in range(16_000)]
    clauses = [f"case {c}() => {i}" for i, c in enumerate(names)]
    random.Random(0).shuffle(clauses)
    clauses += ["case C7() => 16000", "case Nope() => 16001", "case _ => 16002"]
    p = parse(
        "data D\n"
        + "".join(f"case {c}() extends D\n" for c in names)
        + "def f(self: D)(): Int = match {\n" + "\n".join(clauses) + "\n}\nf(C0())\n"
    )
    ctx = preprocess(p)
    start = time.perf_counter()
    diags = check(p, ctx)
    (consumer,) = [d for d in canonicalize(p).defs if isinstance(d, Consumer)]
    assert time.perf_counter() - start < 2.0
    assert [d.message for d in diags] == [
        "consumer f on D has two clauses for C7",
        "consumer f on D matches Nope, which is not a constructor of D",
    ]
    # the order list.index gives: declaration order, ties and unknown names in source order
    order = [(cl.pattern.name, pretty_expr(cl.body)) for cl in consumer.clauses]
    want = [(c, str(i)) for i, c in enumerate(names)]
    assert order == want[:8] + [("C7", "16000")] + want[8:] + [("Nope", "16001"), (None, "16002")]


def _replaced(p: Program, old, new) -> Program:
    return Program(tuple(new if d is old else d for d in p.defs), p.main)


def test_a_bodiless_method_with_an_interface_default_is_reported_once():
    # the default's fallback fills the (m, A) cell, so no "does not implement" joins it
    p = parse("interface I { def m(): Int = 2 }\nclass A() implements I { def m(): Int = 1 }\nnew A().m()")
    a = next(d for d in p.defs if isinstance(d, Generator))
    q = _replaced(p, a, replace(a, funs=(replace(a.funs[0], body=None),)))
    assert [(d.message, d.line, d.column) for d in check(q, preprocess(q))] == [
        ("method m of class A has no body", *a.pos)
    ]


def test_a_wildcard_that_is_not_last_still_covers_every_constructor():
    p = parse(
        "data D\ncase A() extends D\ncase B() extends D\n"
        "def f(self: D)(): Int = match { case A() => 1 case _ => 2 }\n1"
    )
    f = next(d for d in p.defs if isinstance(d, Consumer))
    q = _replaced(p, f, replace(f, clauses=f.clauses[::-1]))
    assert [(d.message, d.line, d.column) for d in check(q, preprocess(q))] == [
        ("consumer f on D: wildcard clause must be last", *f.pos)
    ]


def test_a_wildcard_on_another_datatype_covers_none_of_this_ones_constructors():
    # f's wildcard on D1 fills the (f, A) cell, yet A is foreign to D2, and Y has no clause
    diags = check_src(
        "data D1\ncase A() extends D1\ncase B() extends D1\n"
        "data D2\ncase X() extends D2\ncase Y() extends D2\n"
        "def f(self: D1)(): Int = match { case A() => 1 case _ => 2 }\n"
        "def f(self: D2)(): Int = match { case X() => 1 case A() => 2 }\n1"
    )
    assert [d.render() for d in diags] == [
        "8:1: consumer f on D2 matches A, which is not a constructor of D2",
        "8:1: consumer f on D2 has no clause for constructor Y",
    ]


def _drop_one(p: Program):
    """Each program with one method, clause, interface member or constructor of ``p`` removed."""
    for i, d in enumerate(p.defs):
        items = {Generator: "funs", Consumer: "clauses", Interface: "dtrs"}.get(type(d))
        if items:
            seq = getattr(d, items)
            for j in range(len(seq)):
                yield _replaced(p, d, replace(d, **{items: seq[:j] + seq[j + 1 :]}))
        elif isinstance(d, Constructor):
            yield Program(p.defs[:i] + p.defs[i + 1 :], p.main)


def _coverage_by_definitions(p: Program, ctx) -> list[tuple[str, int, int]]:
    """Coverage worked out from the definitions: a class implements its interface's
    members without a default, a consumer with no wildcard names every constructor."""
    out = []
    for d in p.defs:
        pos = d.pos or (0, 0)  # generated definitions have no position
        if isinstance(d, Generator) and d.parent in ctx.it:
            required = {m.name for m in ctx.defs[d.parent].dtrs if m.body is None}
            missing = sorted(required - {fun.name for fun in d.funs})
            out += [(f"class {d.name} does not implement {name!r}", *pos) for name in missing]
        elif isinstance(d, Consumer) and not any(cl.pattern.is_wildcard for cl in d.clauses):
            named = {cl.pattern.name for cl in d.clauses}
            out += [
                (f"consumer {d.name} on {d.self_type} has no clause for constructor {c}", *pos)
                for c in ctx.ctr[d.self_type]
                if c not in named
            ]
    return out


def test_coverage_read_off_the_cells_matches_the_definitions():
    programs = [load(name) for name in GOLDEN_SELECTIONS]
    programs += [generated(GenConfig(seed=seed, style_mix=mix)) for seed in range(120) for mix in (0.0, 0.5, 1.0)]
    kinds = set()
    for p in programs:
        for q in _drop_one(p):
            ctx = preprocess(q)
            got = [
                (d.message, d.line, d.column)
                for d in check(q, ctx)
                if " does not implement " in d.message or " has no clause for constructor " in d.message
            ]
            assert got == _coverage_by_definitions(q, ctx)
            kinds.update("class" if m.startswith("class") else "consumer" for m, *_ in got)
    assert kinds == {"class", "consumer"}


def test_names_the_parser_cannot_read_are_rejected():
    # each printed as it stands fails to parse: `data d` and `def if(self: D)…`
    data = Program((Datatype("d"),), IntLit(0))
    assert [d.message for d in check(data, preprocess(data))] == ["datatype name 'd' must start with an uppercase letter"]
    p = load("sets_fp")
    consumer = next(d for d in p.defs if isinstance(d, Consumer))
    q = Program(tuple(replace(d, name="if") if d is consumer else d for d in p.defs), p.main)
    assert "consumer name 'if' is a keyword" in [d.message for d in check(q, preprocess(q))]
    for bad in (data, q):
        with pytest.raises(ParseError):
            parse(pretty(bad))


def test_a_function_type_in_a_signature_is_rejected():
    # arrows occur only in collected signatures, and no source text declares one
    p = Program((Datatype("D"), Constructor("C", (Param("x", Arrow((INT,), INT)),), "D")), IntLit(0))
    assert [d.message for d in check(p, preprocess(p))] == ["constructor C mentions a function type"]
    with pytest.raises(ParseError):
        parse(pretty(p))


# The declared names of named_program, each a role read by one rule, and odd
# names to put in them: keywords, reserved names, letters of no case, and
# non-letters, among them a digit that \w reads (\u0663, Arabic-Indic three)
# and a combining accent that it does not (\u0301)
ROLES = {"D": "D", "C": "C", "f": "f", "g": "g", "p": "p", "I": "I", "m": "m", "q": "q", "K": "K", "h": "h"}
ODD_NAMES = (
    "x", "X", "if", "match", "true", "Int", "Bool", "self", "this", "a_b", "a1", "é", "É", "ǅ", "中",
    "_a", "1a", "", "a b", "a²", "²a", "x\u0663", "a\u0301", "Data",
)  # fmt: skip


def named_program(n: dict[str, str]) -> Program:
    """The program below, each name replaced by its entry in ``n``::

    data D
    case C(f: Int) extends D
    def g(self: D)(p: D): Int = match { case C(f) => f }
    interface I { def m(q: Int): Int  def id(): I = this }
    class K(h: Int) implements I { def m(q: Int): Int = h + q }
    g(C(1))(C(2)) + new K(3).id().m(4)
    """
    D, C, f, g, p, I, m, q, K, h = n.values()
    signature = (Param(q, INT),), INT
    return Program(
        (
            Datatype(D),
            Constructor(C, (Param(f, INT),), D),
            Consumer(g, D, (Param(p, Named(D)),), INT, (Clause(Pattern(C, (f,)), Var(f)),)),
            Interface(I, (Dtr(m, *signature), Dtr("id", (), Named(I), Var("this")))),
            Generator(K, (Param(h, INT),), I, (Dtr(m, *signature, PrimOp("+", Var(h), Var(q))),)),
        ),
        PrimOp(
            "+",
            App(g, CtrCall(C, (IntLit(1),)), (CtrCall(C, (IntLit(2),)),)),
            Sel(Sel(New(K, (IntLit(3),)), "id", ()), m, (IntLit(4),)),
        ),
    )


def test_every_checked_program_of_odd_names_prints_back_to_itself():
    assert check(named_program(ROLES), preprocess(named_program(ROLES))) == []
    accepted = rejected = 0
    for role in ROLES:
        for name in ODD_NAMES:
            p = named_program({**ROLES, role: name})
            if check(p, preprocess(p)):
                rejected += 1
                continue
            accepted += 1
            assert parse(pretty(p)) == p, (role, name)
            assert eval_program(p) == eval_program(named_program(ROLES)), (role, name)
    assert accepted > 20 and rejected > 100
