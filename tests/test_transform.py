"""The type-directed bidirectional translation."""

import dataclasses
import functools
import importlib
import itertools
import operator
import random
import time

import pytest
import reference_recursive as ref
from conftest import CORPUS, EVAL_TEMPLATES, GOLDEN_SELECTIONS, eval_source, generated, load, walk
from reference_transform import reference, reference_typed

from food import (
    ContextError,
    TransformError,
    canonicalize,
    check,
    preprocess,
    parse,
    pretty,
    restrict,
    transform,
    transform_expr,
    typecheck,
)
from food.fuzz import GenConfig
from food.interp import dtr_body, run
from food.pretty import pretty_expr
from food.syntax import (
    App,
    BOOL,
    BoolLit,
    BoolT,
    CtrCall,
    Consumer,
    Expr,
    Generator,
    If,
    INT,
    Interface,
    IntLit,
    IntT,
    Named,
    New,
    Obj,
    PREC,
    PrimOp,
    Program,
    Sel,
    Var,
    _nodes,
    children,
    fold,
    with_children,
)

TRANSFORM = importlib.import_module("food.transform")  # the module; food.transform is the function


def restricted(name, selected):
    return restrict(preprocess(load(name)), selected)


def test_selection_becomes_application_on_selected_interface():
    ctx = restricted("sets_oop", {"Set"})
    env = {"s1": Named("Set"), "s2": Named("Set")}
    e = parse("s1.isEmpty() && s2.isEmpty()").main
    out, t = transform_expr(e, ctx, env)
    assert out == PrimOp("&&", App("isEmpty", Var("s1"), ()), App("isEmpty", Var("s2"), ()))
    assert t == BOOL


def test_selection_on_unselected_interface_is_kept():
    ctx = restricted("setlist_oop", {"Set"})
    env = {"x": Named("List"), "i": INT}
    e = parse("x.contains(i)").main
    out, t = transform_expr(e, ctx, env)
    assert out == e
    assert t == BOOL


def test_new_on_selected_generator_becomes_constructor_call():
    ctx = restricted("sets_oop", {"Set"})
    env = {"this": Named("Set"), "i": INT}
    e = parse("new Insert(this, i)").main
    out, t = transform_expr(e, ctx, env)
    assert out == CtrCall("Insert", (Var("self"), Var("i")))
    assert t == Named("Set")


def test_a_body_is_kept_unless_a_call_flips_or_its_receiver_moves():
    e = parse("s.union(s).isEmpty() && new Empty().isEmpty()").main
    env = {"s": Named("Set"), "this": Named("Set")}
    assert transform_expr(e, restricted("sets_oop", set()), env) == (e, BOOL)
    assert transform_expr(e, restricted("sets_oop", set()), env)[0] is e
    # no call, but the receiver of the selected Set takes the other style's name
    assert transform_expr(Var("this"), restricted("sets_oop", {"Set"}), env) == (Var("self"), Named("Set"))


def test_application_on_selected_datatype_becomes_selection():
    ctx = restricted("sets_fp", {"Set"})
    env = {"s": Named("Set"), "i": INT}
    out, t = transform_expr(parse("contains(s)(i)").main, ctx, env)
    assert out == Sel(Var("s"), "contains", (Var("i"),))
    assert t == BOOL


def test_typecheck_examples():
    assert typecheck(load("sets_oop")) == BoolT()
    assert typecheck(parse("if (true) 1 else 2")) == IntT()
    with pytest.raises(TransformError) as exc:
        typecheck(parse("f(x)(1)"))
    assert "unbound variable 'x'" in str(exc.value)
    # a runtime object's tag must be a declared constructor or class
    with pytest.raises(TransformError) as exc:
        TRANSFORM.type_expr(Obj("Nope", ()), preprocess(parse("1")), {})
    assert str(exc.value) == "object tag Nope has no signature"


@pytest.mark.parametrize(
    "source,target,selected",
    [
        ("sets_oop", "sets_fp", {"Set"}),
        ("sets_fp", "sets_oop", {"Set"}),
        ("exp_oop", "exp_fp", {"Exp"}),
        ("exp_fp", "exp_oop", {"Exp"}),
        ("boolnorm_ctx_oop", "boolnorm_ctx_fp", {"Context"}),
        ("boolnorm_ctx_fp", "boolnorm_ctx_oop", {"Context"}),
    ],
)
def test_golden_transforms(source, target, selected):
    result = transform(load(source), selected)
    assert canonicalize(result.program) == canonicalize(load(target))


def test_empty_selection_is_identity():
    for name in GOLDEN_SELECTIONS:
        p = load(name)
        result = transform(p, set())
        assert result.program == p


def test_mixed_program_transforms_only_the_selected_half():
    p = load("setlist_oop")
    result = transform(p, {"Set"})
    out = result.program
    # the List hierarchy is untouched
    assert [d for d in out.defs if getattr(d, "name", "") in ("List", "Nil", "Cons")] == [
        d for d in p.defs if getattr(d, "name", "") in ("List", "Nil", "Cons")
    ]
    # the two receivers of contains go different ways in one pass
    assert isinstance(out.main, PrimOp)
    assert isinstance(out.main.lhs, App)
    assert isinstance(out.main.rhs, Sel)


def test_both_directions_in_one_pass():
    p = load("boolnorm_ctx_oop")  # Expr is functional, Context object-oriented
    result = transform(p, {"Context", "Expr"})
    out = result.program
    assert any(isinstance(d, Interface) and d.name == "Expr" for d in out.defs)
    assert any(isinstance(d, Consumer) and d.self_type == "Context" for d in out.defs)
    back = transform(out, {"Context", "Expr"})
    assert canonicalize(back.program) == canonicalize(p)
    assert back.program_type == result.program_type


def test_round_trip_preserves_type_and_syntax():
    for name, selected in GOLDEN_SELECTIONS.items():
        p = load(name)
        once = transform(p, selected)
        twice = transform(once.program, selected)
        assert canonicalize(twice.program) == canonicalize(p), name
        assert once.program_type == twice.program_type == typecheck(p), name


def assert_selections_compose(p, chains):
    """T_C(...T_B(T_A(P))) is T_{A^B^...^C}(P) up to canonicalize, and both type
    as P, for each chain (A, B, ..., C) in ``chains``: each type's part of the
    matrix is transposed on its own, so selections compose by symmetric
    difference, and a choice of style can be revised without regret.  Every
    program a chain passes through is well formed, and made once."""
    t = typecheck(p)
    made = {(): (p, preprocess(p))}  # a chain's prefix -> (the program it ends on, its context)
    directs = {}
    for chain in chains:
        for k in range(1, len(chain)):
            if chain[:k] not in made:
                prev, ctx = made[chain[: k - 1]]
                out = transform(prev, chain[k - 1], ctx=ctx).program
                made[chain[:k]] = out, preprocess(out)
                assert check(*made[chain[:k]]) == [], [sorted(s) for s in chain[:k]]
        whole = functools.reduce(operator.xor, chain)
        if whole not in directs:
            direct = transform(p, whole, ctx=made[()][1]).program
            assert typecheck(direct) == t, sorted(whole)
            directs[whole] = canonicalize(direct)
        prev, ctx = made[chain[:-1]]
        last = transform(prev, chain[-1], ctx=ctx).program
        assert canonicalize(last) == directs[whole], [sorted(s) for s in chain]
        assert typecheck(last) == t, [sorted(s) for s in chain]


def corpus_selections():
    """(name, program, its types, every subset of them) for each corpus file."""
    for path in sorted(CORPUS.glob("*.food")):
        p = parse(path.read_text())
        types = preprocess(p).type_names()
        subsets = [frozenset(s) for k in range(len(types) + 1) for s in itertools.combinations(types, k)]
        yield path.stem, p, types, subsets


def seeded_chains(types, rng, steps, count):
    """count chains of steps selections, each type in each selection with probability 1/2."""
    return [tuple(frozenset(t for t in types if rng.random() < 0.5) for _ in range(steps)) for _ in range(count)]


def test_selections_compose_by_symmetric_difference():
    corpus_pairs = 0
    for _, p, _, subsets in corpus_selections():
        pairs = list(itertools.product(subsets, subsets))
        assert_selections_compose(p, pairs)
        corpus_pairs += len(pairs)
    assert corpus_pairs == 560
    for seed in range(400):
        for mix in (0, 0.5, 1):
            p = generated(GenConfig(seed=seed, style_mix=mix))
            rng = random.Random(f"{seed}/{mix}")
            assert_selections_compose(p, seeded_chains(preprocess(p).type_names(), rng, 2, 3))


def test_three_step_chains_compose_by_symmetric_difference():
    # every chain of a corpus file with at most 2 types, 300 seeded chains of
    # each file with 4, and 2 seeded chains of each generated program
    corpus_triples = wide = 0
    for name, p, types, subsets in corpus_selections():
        if len(types) <= 2:
            triples = list(itertools.product(subsets, repeat=3))
            corpus_triples += len(triples)
        else:
            triples = seeded_chains(types, random.Random(name), 3, 300)
            wide += 1
        assert_selections_compose(p, triples)
    assert (corpus_triples, wide) == (160, 2)
    for seed in range(200):
        for mix in (0, 0.5, 1):
            p = generated(GenConfig(seed=seed, style_mix=mix))
            rng = random.Random(f"{seed}/{mix}/3")
            assert_selections_compose(p, seeded_chains(preprocess(p).type_names(), rng, 3, 2))


def test_type_preservation_across_translation():
    for name, selected in GOLDEN_SELECTIONS.items():
        p = load(name)
        result = transform(p, selected)
        assert typecheck(result.program) == typecheck(p), name


def test_substitution_hygiene():
    fp = transform(load("sets_oop"), {"Set"}).program
    for d in fp.defs:
        if isinstance(d, Consumer):
            assert all(Var("this") not in _nodes(c.body, (Var,)) for c in d.clauses)
    oo = transform(load("sets_fp"), {"Set"}).program
    for d in oo.defs:
        if isinstance(d, Interface):
            assert all(m.body is None or Var("self") not in _nodes(m.body, (Var,)) for m in d.dtrs)


def test_transformed_programs_stay_well_formed():
    for name, selected in GOLDEN_SELECTIONS.items():
        out = transform(load(name), selected).program
        assert check(out, preprocess(out)) == [], name


def test_ill_typed_program_is_rejected_with_expression_context():
    p = parse("data D\ncase C(n: Int) extends D\nC(true)")
    with pytest.raises(TransformError) as exc:
        transform(p, {"D"})
    assert "true" in str(exc.value) and "Int" in str(exc.value)


def test_unknown_selected_type_is_rejected():
    with pytest.raises(ContextError):
        transform(load("sets_fp"), {"Nope"})


def test_clause_naming_no_constructor_is_rejected_under_a_selection():
    # the clause is typed where it stands, so E is reported even though the
    # consumer is eliminated and its clauses move into the classes
    p = parse(
        "data D\ncase C() extends D\n"
        "def f(self: D)(): Int = match { case C() => 1  case E() => 2 }\nf(C())"
    )
    with pytest.raises(TransformError) as exc:
        transform(p, {"D"})
    assert [d.render() for d in exc.value.diagnostics] == [
        "3:1: pattern E in consumer f does not match a constructor of that arity"
    ]


def test_every_definitions_typing_error_is_raised_at_its_definition():
    p = parse(
        "interface I { def m(): Int = true }\n"
        "class K() implements I { def m(): Int = this.m() + false }\n"
        "data D\ncase C() extends D\n"
        "def f(self: D)(): Bool = match { case C() => 1 }\n"
        "f(C())"
    )
    with pytest.raises(TransformError) as exc:
        transform(p, set())
    assert list(exc.value.diagnostics) == check(p, preprocess(p))
    assert [d.render() for d in exc.value.diagnostics] == [
        "1:1: default m in I has type Bool, declared Int",
        "2:1: false has type Bool, expected Int",
        "5:1: consumer f on D has type Int, declared Bool",
    ]


# ---------------------------------------------------------------------------
# Type once: check keeps its typing on the context for transform


def member_bodies(d):
    """The expressions a definition holds: defaults, methods and clauses."""
    if isinstance(d, Interface):
        return [m.body for m in d.dtrs if m.body is not None]
    if isinstance(d, Generator):
        return [f.body for f in d.funs]
    return [c.body for c in d.clauses] if isinstance(d, Consumer) else []


def test_check_then_transform_types_each_body_once(monkeypatch):
    real, typed = TRANSFORM._typing, []

    def counted(ctx, env, names, e, kids):
        typed.append(e)
        return real(ctx, env, names, e, kids)

    monkeypatch.setattr(TRANSFORM, "_typing", counted)
    programs = [load(name) for name in sorted(GOLDEN_SELECTIONS)] + [generated(GenConfig(seed=s)) for s in range(20)]
    for program in programs:
        bodies = [program.main, *(b for d in program.defs for b in member_bodies(d))]
        nodes = sum(1 for b in bodies for _ in walk(b))
        ctx = preprocess(program)
        typed.clear()
        assert check(program, ctx) == [] and len(typed) == nodes
        for selected in (None, frozenset()):
            typed.clear()
            kept = transform(program, selected, ctx)
            assert typed == []  # read from the context, not typed again
            assert kept == transform(program, selected)  # a fresh context: typed again
            assert len(typed) == nodes


def test_transform_of_another_program_types_it_for_itself():
    # the kept typing belongs to the program check passed, not to the context
    p1 = load("sets_oop")
    p2 = Program(p1.defs, PrimOp("+", IntLit(1), BoolLit(True)))
    ctx = preprocess(p1)
    assert check(p1, ctx) == []
    with pytest.raises(TransformError) as exc:
        transform(p2, {"Set"}, ctx)
    assert [d.message for d in exc.value.diagnostics] == ["true has type Bool, expected Int"]
    assert [d.message for d in check(p2, ctx)] == ["true has type Bool, expected Int"]


def test_a_wide_datatype_transforms_in_linear_time():
    # constructor membership and each consumer's clauses are indexed once per
    # transform; a tuple and clause scan per constructor took 2.2 s at 8,000
    names = [f"C{i}" for i in range(16_000)]
    clauses = [f"case {c}() => {i}" for i, c in enumerate(names)]
    random.Random(0).shuffle(clauses)
    p = parse(
        "data D\n"
        + "".join(f"case {c}() extends D\n" for c in names)
        + "def f(self: D)(): Int = match {\n" + "\n".join(clauses) + "\n}\n"
        + "def g(self: D)(): Int = match {\n  case C7() => 7\n  case _ => 0\n}\n"
        + "f(C0())\n"
    )
    ctx = preprocess(p)
    assert check(p, ctx) == []  # which keeps the typing for transform
    start = time.perf_counter()
    out = transform(p, {"D"}, ctx).program
    assert time.perf_counter() - start < 2.0
    members = {c: f"  def f(): Int = {i}\n" for i, c in enumerate(names)}
    members["C7"] += "  def g(): Int = 7\n"
    classes = "".join(f"class {c}() implements D {{\n{members[c]}}}\n" for c in names)
    assert pretty(out) == "interface D {\n  def f(): Int\n  def g(): Int = 0\n}\n" + classes + "new C0().f()\n"


def test_a_wide_interface_transforms_and_looks_up_in_linear_time():
    # each member body is read off the context's matrix, built once per def
    # map; a method scan per member and class took 4.1 s to transform, and
    # 2.2 s to look every body up, at 8,000 members
    n = 8_000
    members = [f"m{i}" for i in range(n)]
    classes = {"A": 0, "B": n}  # class -> what its method m_i adds to i
    p = parse(
        "interface I {\n"
        + "".join(f"  def {m}(): Int\n" for m in members)
        + "}\n"
        + "".join(
            f"class {c}(x: Int) implements I {{\n"
            + "".join(f"  def {m}(): Int = {k + i}\n" for i, m in enumerate(members))
            + "}\n"
            for c, k in classes.items()
        )
        + "new A(0).m0()\n"
    )
    start = time.perf_counter()
    ctx = preprocess(p)
    found = [dtr_body(m, c, ctx) for m in members for c in classes]
    assert time.perf_counter() - start < 2.0
    assert found == [(("x",), (), IntLit(k + i)) for i in range(n) for k in classes.values()]
    assert check(p, ctx) == []  # which keeps the typing for transform
    start = time.perf_counter()
    out = transform(p, {"I"}, ctx).program
    assert time.perf_counter() - start < 2.0
    consumers = "".join(
        f"def {m}(self: I)(): Int = match {{\n"
        + "".join(f"  case {c}(x) => {k + i}\n" for c, k in classes.items())
        + "}\n"
        for i, m in enumerate(members)
    )
    constructors = "".join(f"case {c}(x: Int) extends I\n" for c in classes)
    assert pretty(out) == "data I\n" + consumers + constructors + "m0(A(0))\n"


def test_it2dt_lists_clauses_in_class_order_with_the_wildcard_last():
    # each consumer made from an interface member has one clause per class
    # that defines the member, in the classes' source order, then the
    # member's default body, if any, as the wildcard
    consumers = 0
    for seed in range(500):
        p = generated(GenConfig(seed=seed, style_mix=1.0))
        out = transform(p).program
        made = {(d.self_type, d.name): d for d in out.defs if isinstance(d, Consumer)}
        for i in (d for d in p.defs if isinstance(d, Interface)):
            classes = [g for g in p.defs if isinstance(g, Generator) and g.parent == i.name]
            for m in i.dtrs:
                want = [g.name for g in classes if m.name in {f.name for f in g.funs}]
                want += ["_"] * (m.body is not None)
                got = [c.pattern.name if not c.pattern.is_wildcard else "_" for c in made[(i.name, m.name)].clauses]
                assert got == want, (seed, i.name, m.name)
                consumers += 1
    assert consumers >= 500


def test_only_a_passing_typing_is_kept():
    p = load("exp_fp")
    ctx = preprocess(p)
    bad = Program(p.defs, Var("nowhere"))
    assert [d.message for d in check(bad, ctx)] == ["unbound variable 'nowhere'"]
    with pytest.raises(TransformError):
        transform(bad, None, ctx)
    assert ctx.typings == {}
    transform(p, frozenset(), ctx)
    assert list(ctx.typings) == [id(p)]
    assert check(p, ctx) == [] and list(ctx.typings) == [id(p)]
    assert restrict(ctx, frozenset()).typings is ctx.typings


# ---------------------------------------------------------------------------
# The printer, a pre-order loop, and the typing and translation of
# transform_expr, a fold over syntax.fold and a rebuild loop, against the
# recursive code they replaced (reference_recursive): the same text,
# translation and type, or the same error text, on every input.
# The translation also renames the receiver of a selected type, which the
# definition layer did after typing, by substitution: the reference's
# translation is renamed that way.


def typing_inputs(monkeypatch, program):
    """Each (expression, context, environment) that ``transform`` types, with
    every type selected and with none, as ``check`` does."""
    inputs = []
    real = TRANSFORM.type_expr

    def record(e, ctx, env, names=None):
        inputs.append((e, ctx, dict(env)))
        return real(e, ctx, env, names)

    with monkeypatch.context() as m:
        m.setattr(TRANSFORM, "type_expr", record)
        for selected in (None, frozenset()):
            try:
                transform(program, selected)
            except TransformError:
                pass  # the expressions typed before the error are recorded
    return inputs


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (TransformError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_prints_and_types_as_reference(e, ctx, env):
    assert outcome(pretty_expr, e) == outcome(ref.pretty_expr, e), e
    assert outcome(transform_expr, e, ctx, env) == outcome(reference_typed, e, ctx, env), e


def ill_typed_variants(e):
    """``e`` with one fault or many, so that the recursive code's order picks the error.

    For each of ``true``, ``1`` and an unbound ``z``: every leaf in turn
    replaced by it, then every leaf, then every other one.  Then, with every
    other leaf ``z``, every call renamed to an unknown ``g``, and every call
    without its last argument.
    """
    leaves = sum(1 for x in walk(e) if not children(x))

    def rebuilt(leaf, call=lambda x: x):
        count = itertools.count()

        def rule(x, kids):
            if not kids:
                return leaf(next(count), x)
            x = with_children(x, tuple(kids))
            return call(x) if isinstance(x, (Sel, App, CtrCall, New)) else x

        return fold(e, rule)

    for new in (BoolLit(True), IntLit(1), Var("z")):
        for i in range(leaves):
            yield rebuilt(lambda j, x, i=i, new=new: new if j == i else x)
        yield rebuilt(lambda j, x, new=new: new)
        yield rebuilt(lambda j, x, new=new: new if j % 2 else x)

    def every_other(j, x):
        return Var("z") if j % 2 else x

    yield rebuilt(every_other, lambda x: dataclasses.replace(x, name="g"))
    yield rebuilt(every_other, lambda x: dataclasses.replace(x, args=x.args[:-1]) if x.args else x)


def programs(seeds=range(2000)):
    """The corpus, then ``gen_program`` at each seed."""
    for path in sorted(CORPUS.glob("*.food")):
        yield parse(path.read_text())
    for seed in seeds:
        yield generated(GenConfig(seed=seed))


def test_printer_and_typer_match_the_recursive_reference(monkeypatch):
    count = 0
    for program in programs():
        for e, ctx, env in typing_inputs(monkeypatch, program):
            assert_prints_and_types_as_reference(e, ctx, env)
            count += 1
    assert count > 20_000


# Every expression form, as a label, its number of children and a builder
# from them; each call form takes two arguments, so that a separator shows.
FORMS = [
    *[(op, 2, lambda lhs, rhs, op=op: PrimOp(op, lhs, rhs)) for op in PREC],
    ("if", 3, If),
    ("Sel", 3, lambda recv, *args: Sel(recv, "f", args)),
    ("App", 1, lambda recv: App("f", recv, ())),
    ("App with arguments", 3, lambda recv, *args: App("f", recv, args)),
    ("CtrCall", 2, lambda *args: CtrCall("C", args)),
    ("New", 2, lambda *args: New("C", args)),
    ("Obj", 2, lambda *args: Obj("C", args)),
    ("Var", 0, lambda: Var("x")),
    ("IntLit", 0, lambda: IntLit(7)),
    ("BoolLit", 0, lambda: BoolLit(False)),
    ("CtrCall()", 0, lambda: CtrCall("D", ())),
    ("New()", 0, lambda: New("D", ())),
    ("Obj()", 0, lambda: Obj("D", ())),
]


def test_printer_parenthesizes_every_form_in_every_slot_as_the_reference():
    # the precedence rule, exhaustively: each form in each child slot of each
    # form, its own children and the other slots filled with variables
    for outer, arity, build in FORMS:
        for slot in range(arity):
            for inner, inner_arity, inner_build in FORMS:
                kids = [Var(f"a{i}") for i in range(arity)]
                kids[slot] = inner_build(*[Var(f"b{i}") for i in range(inner_arity)])
                e = build(*kids)
                assert outcome(pretty_expr, e) == outcome(ref.pretty_expr, e), (outer, slot, inner)
                if not _nodes(e, (Obj,)):
                    assert parse(pretty_expr(e)).main == e, (outer, slot, inner)


def test_error_order_matches_the_recursive_reference(monkeypatch):
    # ill-typed main expressions and bodies: receiver, own check and
    # arguments must fail in the recursive code's order.  Seeds 0..1999 agree
    # too, in about two minutes; the first 200 keep this test near 10 s.
    errors = 0
    for program in programs(range(200)):
        for e, ctx, env in typing_inputs(monkeypatch, program):
            for variant in ill_typed_variants(e):
                assert_prints_and_types_as_reference(variant, ctx, env)
                errors += isinstance(outcome(transform_expr, variant, ctx, env)[0], str)
    assert errors > 25_000


def test_single_type_selections_translate_as_the_recursive_reference():
    # with every type selected or none, every call flips or none does; with
    # one type selected, calls that flip sit beside calls that are kept, each
    # decided by its own listed type in the translation's post-order
    bodies = flips = 0
    for program in programs(range(200)):
        ctx = preprocess(program)
        typed = [(e, env) for e, env, _ in TRANSFORM.type_program(program, ctx)[0]]
        variants = [(v, env) for e, env in typed for v in ill_typed_variants(e)]
        for t in sorted(ctx.type_names()):
            rctx = restrict(ctx, {t})
            for e, env in typed:
                out, _ = transform_expr(e, rctx, env)
                assert (out, _) == reference_typed(e, rctx, env), (t, e)
                bodies, flips = bodies + 1, flips + (out != e)
            for v, env in variants:
                assert outcome(transform_expr, v, rctx, env) == outcome(reference_typed, v, rctx, env), (t, v)
    assert bodies > 4_000 and flips > 1_000


@pytest.mark.parametrize("template", sorted(EVAL_TEMPLATES))
def test_run_states_print_and_type_as_the_recursive_reference(template):
    # runtime objects occur only in run states; the fuzzer types each state
    # in the context with no type selected
    program = parse(eval_source(template, 4))
    ctx = restrict(preprocess(program), frozenset())
    states = [s for s in run(program.main, ctx, 1000) if isinstance(s, Expr)]
    assert len(states) > 20
    for state in states:
        for variant in (state, *ill_typed_variants(state)):
            assert_prints_and_types_as_reference(variant, ctx, {})


def reference_inputs():
    """(name, program, selection) for the rule-by-rule reference: the corpus files and
    ``gen_program`` seeds 0..299 at each style mix, each under no type, every type,
    each single type and one seeded random subset."""
    named = [(path.stem, parse(path.read_text())) for path in sorted(CORPUS.glob("*.food"))]
    for seed in range(300):
        for mix in (0, 0.5, 1):
            named.append((f"seed {seed} mix {mix}", generated(GenConfig(seed=seed, style_mix=mix))))
    for name, program in named:
        types = sorted(preprocess(program).type_names())
        rng = random.Random(name)
        subset = set(rng.sample(types, rng.randint(0, len(types))))
        for selected in (set(), set(types), *({t} for t in types), subset):
            yield name, program, selected


def test_transform_applies_the_definition_rules_of_the_rule_by_rule_reference():
    # exactly, with no canonicalize: each output definition, its members and
    # clauses in the order the paper's rules list them
    count = 0
    for name, program, selected in reference_inputs():
        assert transform(program, selected).program == reference(program, selected), (name, sorted(selected))
        count += 1
    assert count == 4_498
