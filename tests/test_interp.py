"""Small-step semantics, lookup functions, and fuel-bounded evaluation."""

import itertools
import random
import time
from collections import Counter, deque
from dataclasses import replace

import reference_step
from conftest import EVAL_TEMPLATES, GOLDEN_SELECTIONS, eval_source, generated, load
from mutators import MUTATORS
from reference_step import states as reference_states

from food import (
    BoolV,
    Done,
    FuelExhausted,
    IntV,
    ObjV,
    Stuck,
    check,
    csm_body,
    dtr_body,
    eval_program,
    parse,
    preprocess,
    restrict,
    step,
    transform,
    transform_expr,
    translate_ctx,
)
from food.fuzz import GenConfig
import food.interp
from food.interp import DEFAULT_FUEL, Stepped, run, states
from food.pretty import pretty_expr
from food.syntax import (
    App,
    BOOL,
    BoolLit,
    Clause,
    Constructor,
    CtrCall,
    Expr,
    FALSE,
    Generator,
    If,
    INT,
    IntLit,
    Interface,
    New,
    Obj,
    OPERATORS,
    PrimOp,
    Program,
    Sel,
    SMALL_INTS,
    TRUE,
    Var,
    WILDCARD,
)


def test_fig1_subtraction_evaluates_to_one():
    result = eval_program(load("exp_oop"))
    assert result == Done(IntV(1))
    p = load("exp_fp")
    *steps, outcome = run(p.main, preprocess(p), DEFAULT_FUEL)
    assert outcome == Done(IntV(1))
    assert steps[0] == p.main


def test_constructor_call_builds_object_in_two_steps():
    p = parse("data Set\ncase Empty() extends Set\ncase Insert(s: Set, n: Int) extends Set\nInsert(Empty(), 3)")
    *steps, outcome = run(p.main, preprocess(p), DEFAULT_FUEL)
    assert outcome == Done(ObjV("Insert", (ObjV("Empty", ()), IntV(3))))
    assert len(steps) == 3  # initial expression plus two reductions


def test_contains_union_is_true_within_thirty_steps():
    p = load("sets_fp")
    q = Program(p.defs, parse("contains(Union(Insert(Empty(), 1), Insert(Empty(), 2)))(2)").main)
    *steps, outcome = run(q.main, preprocess(q), DEFAULT_FUEL)
    assert outcome == Done(BoolV(True))
    assert len(steps) <= 30


def test_dtr_body_lookup():
    ctx = preprocess(load("sets_oop"))
    # Empty overrides union, so the class body wins over the default
    assert dtr_body("union", "Empty", ctx) == ((), ("that",), Var("that"))
    # Insert inherits union from the interface default, with no fields bound
    assert dtr_body("union", "Insert", ctx) == (
        (),
        ("that",),
        New("Union", (Var("this"), Var("that"))),
    )
    fields, params, body = dtr_body("isEmpty", "Union", ctx)
    assert fields == ("s1", "s2") and params == ()
    assert body == PrimOp("&&", Sel(Var("s1"), "isEmpty", ()), Sel(Var("s2"), "isEmpty", ()))
    assert dtr_body("nothing", "Empty", ctx) is None


def test_csm_body_lookup():
    ctx = preprocess(load("sets_fp"))
    assert csm_body("union", "Empty", ctx) == ((), ("that",), Var("that"))
    # the wildcard clause covers Insert, binding no pattern variables
    assert csm_body("union", "Insert", ctx) == (
        (),
        ("that",),
        CtrCall("Union", (Var("self"), Var("that"))),
    )
    assert csm_body("contains", "Empty", ctx) == ((), ("i",), BoolLit(False))
    assert csm_body("nothing", "Empty", ctx) is None


def lookup_pairs(ctx):
    """Every (member, class-or-constructor) pair the context's definitions name, plus misses."""
    members = {"nope"}
    for key, d in ctx.defs.items():
        if isinstance(key, tuple):
            members.add(key[0])
        elif isinstance(d, Interface):
            members.update(m.name for m in d.dtrs)
        elif isinstance(d, Generator):
            members.update(fun.name for fun in d.funs)
    names = {k for k in ctx.defs if isinstance(k, str)} | {"Nope"}
    return [(f, c) for f in sorted(members) for c in sorted(names)]


def assert_body_table_matches_oracle(ctx):
    # the cell table is not compared, printed or dumped, and holds a cell on a
    # class or constructor exactly where a lookup finds a body
    unfilled = replace(ctx, cells={})
    found = set()
    for f, c in lookup_pairs(ctx):
        assert dtr_body(f, c, ctx) == reference_step.dtr_body(f, c, ctx), (f, c)
        assert csm_body(f, c, ctx) == reference_step.csm_body(f, c, ctx), (f, c)
        if dtr_body(f, c, ctx) or csm_body(f, c, ctx):
            found.add((f, c))
    variants = {k for k, d in ctx.defs.items() if isinstance(d, (Generator, Constructor))}
    assert {key for key in ctx.cells if key[1] in variants} == found
    assert ctx == unfilled and repr(ctx) == repr(unfilled)
    assert ctx.duality_parts() == unfilled.duality_parts()
    assert ctx.dump() == unfilled.dump()


def test_body_table_matches_the_table_less_lookup():
    programs = [(load(name), selected) for name, selected in GOLDEN_SELECTIONS.items()]
    for style in (0.0, 1.0):
        for seed in range(300):
            p = generated(GenConfig(seed=seed, style_mix=style))
            programs.append((p, set(preprocess(p).type_names()[::2])))
    for p, selected in programs:
        ctx = preprocess(p)
        narrowed = restrict(ctx, selected)
        translated = translate_ctx(narrowed)
        # both keep the def map, so they carry its cells
        assert translated.cells is narrowed.cells is ctx.cells
        for c in (ctx, narrowed, translated, preprocess(transform(p, selected).program)):
            assert_body_table_matches_oracle(c)


def test_a_wide_consumer_looks_every_constructor_up_in_linear_time():
    # the context's matrix is built once per def map; a clause scan per
    # constructor took 1.46 s at 8,000 constructors.  An unchecked consumer
    # keeps the first clause naming C, and otherwise the first wildcard
    names = [f"C{i}" for i in range(16_000)]
    clauses = [f"case {c}(x) => {i}" for i, c in enumerate(names) if c != "C3"]
    random.Random(0).shuffle(clauses)
    clauses += ["case C7(y) => 16000", "case _ => 16001"]
    p = parse(
        "data D\n"
        + "".join(f"case {c}(n: Int) extends D\n" for c in names)
        + "def f(self: D)(): Int = match {\n" + "\n".join(clauses) + "\n}\nf(C0(0))\n"
    )
    consumer = p.defs[-1]
    p = Program((*p.defs[:-1], replace(consumer, clauses=(*consumer.clauses, Clause(WILDCARD, IntLit(-1))))), p.main)
    start = time.perf_counter()
    ctx = preprocess(p)
    found = [csm_body("f", c, ctx) for c in names]
    assert time.perf_counter() - start < 2.0
    assert found == [((), (), IntLit(16001)) if c == "C3" else (("x",), (), IntLit(i)) for i, c in enumerate(names)]


def test_contractions_call_subst_and_lookups_through_module_globals(monkeypatch):
    # the benchmark's tracer counts these calls by rebinding the three names
    # in food.interp, so a contraction must call each of them there; flat
    # code binds environments and substitutes nothing, and a run that ends in
    # a value hands nothing to the machine
    counts = Counter()

    def count_calls(module, name):
        fn = getattr(module, name)

        def counted(*args):
            counts[module.__name__, name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("subst", "dtr_body", "csm_body"):
        count_calls(food.interp, name)
    for name in ("_bind", "dtr_body", "csm_body"):
        count_calls(reference_step, name)
    for template in EVAL_TEMPLATES:
        for n in (0, 3, 12):
            p = parse(eval_source(template, n))
            ctx = preprocess(p)
            counts.clear()
            assert isinstance(eval_program(p, ctx=ctx), Done)
            assert isinstance(list(reference_states(p.main, ctx, 100_000))[-1], Done)
            # the oracle binds once per Sel / App contraction
            assert counts["food.interp", "subst"] == 0 < counts["reference_step", "_bind"]
            for name in ("dtr_body", "csm_body"):
                assert counts["food.interp", name] == counts["reference_step", name], (template, n, name)


def test_set_mains_agree_on_false():
    assert eval_program(load("sets_oop")) == Done(BoolV(False))
    assert eval_program(load("sets_fp")) == Done(BoolV(False))


def test_zero_fuel_on_non_value_main():
    out = eval_program(load("sets_fp"), fuel=0)
    assert isinstance(out, FuelExhausted)
    out = eval_program(Program((), IntLit(7)), fuel=0)
    assert out == Done(IntV(7))


def test_trace_of_single_constructor():
    p = parse("data D\ncase Empty() extends D\nEmpty()")
    assert list(run(p.main, preprocess(p), DEFAULT_FUEL)) == [
        CtrCall("Empty", ()),
        Obj("Empty", ()),
        Done(ObjV("Empty", ())),
    ]


def test_stuck_trace_is_flagged():
    src = (
        "data D\ncase C0() extends D\ncase C1() extends D\n"
        "def f(self: D)(): Int = match { case C1() => 1 }\n"
        "f(C0())"
    )
    p = parse(src)
    *steps, outcome = run(p.main, preprocess(p), DEFAULT_FUEL)
    assert isinstance(outcome, Stuck)
    assert "no consumer 'f' covers C0" in outcome.reason
    assert steps[-1] == App("f", Obj("C0", ()), ())


def test_step_is_deterministic_and_done_only_on_values():
    ctx = preprocess(load("sets_fp"))
    e = load("sets_fp").main
    assert step(e, ctx) == step(e, ctx)
    assert isinstance(step(e, ctx), Stepped)
    assert step(IntLit(3), ctx) == Done(IntV(3))


def test_ctr_and_new_build_identical_objects():
    fp = parse("data D\ncase C(n: Int) extends D\nC(1 + 1)")
    oo = parse("interface D {}\nclass C(n: Int) implements D {}\nnew C(1 + 1)")
    assert eval_program(fp) == eval_program(oo) == Done(ObjV("C", (IntV(2),)))


def test_short_circuit_consumes_one_step():
    ctx = preprocess(parse("x"))
    assert step(PrimOp("&&", BoolLit(False), Var("boom")), ctx) == Stepped(BoolLit(False))
    assert step(PrimOp("||", BoolLit(True), Var("boom")), ctx) == Stepped(BoolLit(True))
    assert step(PrimOp("&&", BoolLit(True), BoolLit(False)), ctx) == Stepped(BoolLit(False))


def test_integers_wrap_to_64_bits():
    big = 2**62
    p = Program((), PrimOp("*", IntLit(big), IntLit(4)))
    assert eval_program(p) == Done(IntV(0))
    q = Program((), PrimOp("-", IntLit(-(2**63)), IntLit(1)))
    assert eval_program(q) == Done(IntV(2**63 - 1))


INT64_EDGES = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1)


def test_arithmetic_and_comparisons_agree_with_the_reference_at_the_64_bit_edges():
    # the machine wraps only a result outside int64; the reference wraps every one
    ctx = preprocess(Program((), IntLit(0)))
    for op in ("+", "-", "*", "==", "<=", "<"):
        for a, b in itertools.product(INT64_EDGES, repeat=2):
            e = PrimOp(op, IntLit(a), IntLit(b))
            want = list(reference_states(e, ctx, 1))
            assert list(run(e, ctx, 1)) == want, (op, a, b)
            assert eval_program(Program((), e), 1, ctx) == want[-1], (op, a, b)
    for op, a, b in (("+", 2**63 - 1, 1), ("*", -(2**63), -1)):
        assert eval_program(Program((), PrimOp(op, IntLit(a), IntLit(b)))) == Done(IntV(-(2**63)))


def test_the_machine_contracts_exactly_the_operators_of_the_table():
    # the machine's contraction step is the one home of the rules: every
    # operator of syntax.OPERATORS has one, which takes literals of its
    # operand type to a literal of its result type, and any other operator
    # gets stuck
    ctx = preprocess(Program((), IntLit(0)))
    literals = {INT: (IntLit(7), IntLit(3)), BOOL: (TRUE, FALSE)}
    for op, (_, operand, result) in OPERATORS.items():
        e = PrimOp(op, *literals[operand])
        for out in (eval_program(Program((), e), ctx=ctx), deque(states(e, ctx, DEFAULT_FUEL), 1)[0]):
            assert type(out) is Done and type(out.value) is type(literals[result][0]), (op, out)
    e = PrimOp("%", IntLit(1), IntLit(2))
    for out in (eval_program(Program((), e), ctx=ctx), deque(states(e, ctx, DEFAULT_FUEL), 1)[0]):
        assert out == Stuck("unknown operator '%'", e)


def test_the_parser_and_the_machine_share_their_literal_nodes():
    # syntax builds true, false and -5..256 once; the parser reads them and the machine computes them
    assert parse("7").main is eval_program(parse("3 + 4")).value is SMALL_INTS[12]
    assert parse("true").main is eval_program(parse("1 < 2")).value is TRUE
    assert parse("false").main is eval_program(parse("2 < 1")).value is FALSE
    assert parse("0").main is eval_program(parse("5 - 5")).value


def test_arithmetic_results_in_the_small_int_range_are_shared_nodes():
    # every + - * result in -5..256 is one node, built at import, in the
    # machine and in flat code; a result just outside the range is a fresh node
    ctx = preprocess(Program((), IntLit(0)))

    def results(n):
        for op, a, b in (("+", n - 3, 3), ("-", n + 7, 7), ("*", n, 1)):
            e = PrimOp(op, IntLit(a), IntLit(b))
            yield eval_program(Program((), e), 1, ctx).value, list(run(e, ctx, 1))[-1].value

    for n in range(-5, 257):
        for first, second in zip(results(n), results(n)):
            assert first[0] is first[1] is second[0] is second[1] == IntLit(n), n
    for n in (-6, 257):
        for first, second in zip(results(n), results(n)):
            values = {id(v) for v in (*first, *second)}
            assert len(values) == 4 and first == second == (IntLit(n), IntLit(n)), n


def test_calls_that_bind_no_fields_or_no_parameters_agree_across_disciplines():
    # a consumer's default and wildcard clause and an interface's default
    # bind no fields, and members with no parameters bind none: the call
    # binds only its receiver then, and flat code agrees with the
    # substituting machine and the reference at every fuel
    p = parse(
        "data D\ncase C(x: Int) extends D\ncase E() extends D\n"
        "def f(self: D)(n: Int): Int = match {\n  case C(x) => x + n\n  case _ => n\n}\n"
        "def g(self: D)(): Int = match {\n  case C(x) => x\n  case E() => 0\n}\n"
        "def h(self: D)(n: Int): Int = n + 1\n"
        "interface I {\n  def d(n: Int): Int = n * 2\n  def z(): Int = 3\n  def m(): Int\n}\n"
        "class K(y: Int) implements I {\n  def m(): Int = y\n}\n"
        "f(C(1))(2) + f(E())(3) + g(C(4)) + g(E()) + h(C(8))(9) + new K(5).d(6) + new K(5).z() + new K(7).m()\n"
    )
    ctx = preprocess(p)
    assert check(p, ctx) == []
    cells = {key: cell[:2] for key, cell in ctx.cells.items()}
    assert cells[("f", "E")] == cells[("h", "C")] == ((), ("n",)) and cells[("d", "K")] == ((), ("n",))
    assert cells[("g", "C")] == (("x",), ()) and cells[("z", "K")] == cells[("g", "E")] == ((), ())
    assert eval_program(p, 200, ctx) == Done(IntV(42))
    assert_same_outcome(p, ctx, range(60))
    assert_same_states(p.main, ctx)


def test_binding_on_unchecked_contexts():
    # check rejects these binders, so only a hand-built context reaches them:
    # the receiver is bound, then the fields, then the parameters, and the
    # later binding wins; defaults and wildcards bind no fields
    p = parse(
        "data D\ncase C(x: Int) extends D\n"
        "def f(self: D)(x: Int): Int = match {\n  case C(x) => x\n}\n"
        "def h(self: D)(): Int = match {\n  case _ => 5\n}\n"
        "interface E {\n  def g(x: Int): Int\n  def d(): Int = 7\n}\n"
        "class K(x: Int) implements E {\n  def g(x: Int): Int = x\n}\n"
        "f(C(1))(2)\n"
    )
    ctx = preprocess(p)
    assert len(check(p, ctx)) == 2
    cases = [
        (App("f", Obj("C", (IntLit(1),)), (IntLit(2),)), Done(IntV(2))),
        (Sel(Obj("K", (IntLit(1),)), "g", (IntLit(2),)), Done(IntV(2))),
        (App("f", Obj("C", ()), (IntLit(2),)), "arity mismatch applying 'f' to C"),
        (Sel(Obj("K", (IntLit(1), IntLit(3))), "g", (IntLit(2),)), "arity mismatch invoking 'g' on K"),
        (App("h", Obj("C", (IntLit(1), IntLit(2), IntLit(3))), ()), Done(IntV(5))),
        (Sel(Obj("K", (IntLit(1), IntLit(2))), "d", ()), Done(IntV(7))),
    ]
    for e, want in cases:
        want = Stuck(want, e) if isinstance(want, str) else want
        assert eval_program(Program((), e), 10, ctx) == want, e
        assert drained(e, ctx, 10) == list(reference_states(e, ctx, 10))[-1] == want, e


def test_every_step_of_a_trace_preserves_the_type():
    p = load("sets_fp")
    ctx = preprocess(p)
    tctx = restrict(ctx, frozenset())
    *steps, _ = run(p.main, ctx, DEFAULT_FUEL)
    types = {transform_expr(e, tctx, {})[1] for e in steps}
    assert len(types) == 1


def test_semantics_preserved_across_transformation():
    for name, selected in (("sets_oop", {"Set"}), ("boolnorm_ctx_fp", {"Context"})):
        p = load(name)
        q = transform(p, selected).program
        assert eval_program(p) == eval_program(q), name


def test_format_value():
    assert pretty_expr(IntV(-3)) == "-3"
    assert pretty_expr(BoolV(True)) == "true"
    assert pretty_expr(ObjV("Insert", (ObjV("Empty", ()), IntV(3)))) == "obj(Insert, obj(Empty), 3)"


def test_done_carries_the_final_state():
    programs = [load(name) for name in GOLDEN_SELECTIONS] + [
        parse(eval_source(name, n)) for name in EVAL_TEMPLATES for n in (0, 3, 12)
    ]
    assert len(programs) == 20
    for p in programs:
        *steps, outcome = run(p.main, preprocess(p), DEFAULT_FUEL)
        assert outcome == Done(steps[-1]), p.main


def test_an_object_is_a_value_whatever_its_arguments():
    # check rejects every runtime object in source, so only a hand-built
    # program reaches this: the machine takes any Obj as a value, unevaluated
    # arguments and all, and returns it as it is
    e = Obj("C", (PrimOp("+", IntLit(1), IntLit(2)), Var("x")))
    ctx = preprocess(Program((), e))
    assert eval_program(Program((), e)) == Done(e)
    assert list(run(e, ctx, DEFAULT_FUEL)) == [e, Done(e)]


# ---------------------------------------------------------------------------
# The substituting discipline against the recursive reference step

FUEL_LADDER = (0, 1, 3, 17, 200)


def assert_same_states(e, ctx):
    for fuel in FUEL_LADDER:
        assert list(run(e, ctx, fuel)) == list(reference_states(e, ctx, fuel)), fuel


def test_machine_matches_reference_on_generated_programs():
    for seed in range(300):
        p = generated(GenConfig(seed=seed, diverge_prob=1.0 if seed % 7 == 0 else 0.0))
        assert_same_states(p.main, preprocess(p))


def test_machine_matches_reference_on_eval_templates():
    for name in EVAL_TEMPLATES:
        for n in (0, 1, 4, 9):
            p = parse(eval_source(name, n))
            assert_same_states(p.main, preprocess(p))


def stuck_terms():
    """A context, and terms that get stuck below evaluated subterms and inside every kind of context."""
    src = (
        "data D\ncase C0() extends D\ncase C1() extends D\n"
        "def f(self: D)(): Int = match { case C1() => 1 }\n"
        "interface E { def g(): Int }\nclass K() implements E { def g(): Int = 1 }\n"
        "f(C0())"
    )
    p = parse(src)
    terms = [
        p.main,
        Sel(Obj("K", ()), "g", (IntLit(1),)),
        PrimOp("+", IntLit(1), Expr()),
        Var("x"),
        If(IntLit(1), IntLit(2), IntLit(3)),
        PrimOp("+", BoolLit(True), IntLit(1)),
        PrimOp("&&", IntLit(1), Var("boom")),
        PrimOp("%", IntLit(1), IntLit(2)),
        CtrCall("Nope", ()),
        New("C0", ()),
        Sel(IntLit(1), "f", ()),
        Sel(Obj("C0", ()), "f", ()),
        App("f", IntLit(3), ()),
        App("g", Obj("C0", ()), ()),
        App("f", Obj("C1", ()), (IntLit(1),)),
        PrimOp("+", PrimOp("*", IntLit(2), IntLit(3)), CtrCall("C1", (Var("y"),))),
        Sel(New("Nope", (IntLit(1),)), "f", ()),
        App("f", CtrCall("C1", ()), (PrimOp("-", IntLit(1), IntLit(1)), If(Var("z"), IntLit(0), IntLit(1)))),
    ]
    return preprocess(p), terms


def test_machine_matches_reference_on_stuck_terms():
    ctx, terms = stuck_terms()
    for e in terms:
        assert isinstance(list(run(e, ctx, 200))[-1], Stuck), e
        assert_same_states(e, ctx)


def test_a_substituting_run_lists_no_children():
    # the machine has no environment, so each frame is read back by one
    # with_children call on the values it holds: interp.py does not even bind
    # children, as listing a node's children would cost a second pass
    assert not hasattr(food.interp, "children")
    for name in EVAL_TEMPLATES:
        p = parse(eval_source(name, 20))
        ctx = preprocess(p)
        *states, outcome = run(p.main, ctx, 100_000)
        assert isinstance(outcome, Done) and len(states) > 100
        for e, after in zip(states, states[1:]):
            assert step(e, ctx) == Stepped(after)
        assert step(states[-1], ctx) == outcome
        assert list(run(p.main, ctx, 7)) == [*states[:8], FuelExhausted(states[7])]
    ctx, terms = stuck_terms()
    for e in terms:
        assert isinstance(list(run(e, ctx, 200))[-1], Stuck) and isinstance(step(e, ctx), (Stepped, Stuck))


def test_fuel_boundary_at_a_depth_the_recursive_step_cannot_reach():
    n = 2000
    for name in ("peano_fp", "peano_oo"):
        p = parse(eval_source(name, n))
        ctx = preprocess(p)
        assert eval_program(p, 7 * n + 5, ctx) == Done(IntV(n))
        out = eval_program(p, 7 * n + 4, ctx)
        assert isinstance(out, FuelExhausted)
        # drain the stream and plug only its last state, which the outcome
        # leaves valid; run would plug every one of the 14,004 states
        (redex, _, _, plug), outcome = deque(states(p.main, ctx, 7 * n + 4), maxlen=2)
        assert outcome == out and out.last == plug(redex)


# ---------------------------------------------------------------------------
# Flat code against the substituting machine


def drained(e, ctx, fuel):
    """The outcome of the machine substituting at calls, as ``run`` steps it."""
    for out in states(e, ctx, fuel):
        pass
    return out


def assert_same_outcome(p, ctx, fuels=FUEL_LADDER):
    for fuel in fuels:
        assert eval_program(p, fuel, ctx) == drained(p.main, ctx, fuel), fuel


def test_eval_program_matches_the_substituting_machine():
    for name in GOLDEN_SELECTIONS:
        p = load(name)
        assert_same_outcome(p, preprocess(p))
    for name in EVAL_TEMPLATES:
        for n in (0, 1, 4, 9):
            p = parse(eval_source(name, n))
            assert_same_outcome(p, preprocess(p), range(7 * n + 7))
    for seed in range(300):
        p = generated(GenConfig(seed=seed, diverge_prob=1.0 if seed % 7 == 0 else 0.0))
        assert_same_outcome(p, preprocess(p))
    ctx, terms = stuck_terms()
    for e in terms:
        assert_same_outcome(Program((), e), ctx)
    for mutate in MUTATORS.values():
        for seed in range(50):
            p = mutate(generated(GenConfig(seed=seed)))
            assert_same_outcome(p, preprocess(p))


def test_eval_program_takes_a_method_body_of_any_depth():
    # the value climbs back through 10^5 frames on a list, not the Python stack
    n = 100_000
    body = "1 + (" * n + "n" + ")" * n
    p = parse(f"data D\ncase C() extends D\ndef f(self: D)(n: Int): Int = {body}\nf(C())(1)\n")
    ctx = preprocess(p)
    assert check(p, ctx) == []
    assert eval_program(p, 2 * n, ctx) == Done(IntV(n + 1))
    assert isinstance(eval_program(p, n // 2, ctx), FuelExhausted)


def test_flat_code_reads_each_operand_in_place_or_off_the_stack():
    # a binary operation reads a variable or a literal operand in place and
    # takes any other off the stack: for every operator of the table, with
    # each operand in each of those places and bound to values that an
    # operand swap would change, flat code reaches the stream's value in the
    # stream's steps
    places = {INT: ("a", "7", "(a + 0)"), BOOL: ("p", "true", "(p && true)")}
    others = {INT: ("b", "3", "(b * 1)"), BOOL: ("q", "false", "(q || false)")}
    cases = 0
    for op, (_, operand, _) in OPERATORS.items():
        for lhs, rhs in itertools.product(places[operand], others[operand]):
            for body in (f"{lhs} {op} {rhs}", f"{rhs} {op} {lhs}"):
                p = parse(
                    "data D\ncase C() extends D\n"
                    f"def m(self: D)(a: Int, b: Int, p: Bool, q: Bool): Int = {body}\n"
                    "m(C())(7, 3, true, false)\n"
                )
                ctx = preprocess(p)
                out, stream = food.interp._execute(p.main, ctx, DEFAULT_FUEL), drained(p.main, ctx, DEFAULT_FUEL)
                assert type(out) is Done and out == stream and out.steps == stream.steps, body
                cases += 1
    assert cases == 2 * 9 * len(OPERATORS)
    # a hand-built variable whose name is a node is no literal read in place
    ctx = preprocess(Program((), IntLit(0)))
    for e, name in ((PrimOp("+", Var(IntLit(1)), IntLit(2)), IntLit(1)), (PrimOp("*", IntLit(2), Var(IntLit(3))), IntLit(3))):
        want = Stuck(f"unbound variable {name!r}", Var(name))
        assert eval_program(Program((), e), DEFAULT_FUEL, ctx) == drained(e, ctx, DEFAULT_FUEL) == want


def test_flat_code_returns_through_ten_thousand_calls_and_counts_their_steps():
    # count(build(Z())(n)) returns through n calls on flat code's stack of
    # returns and reaches its value in exactly 7n + 5 steps; one step less,
    # flat code stops and eval_program ends where the stream does
    n = 10_000
    for name in ("peano_fp", "peano_oo"):
        p = parse(eval_source(name, n))
        ctx = preprocess(p)
        out = food.interp._execute(p.main, ctx, 7 * n + 5)
        assert out == eval_program(p, 7 * n + 5, ctx) == Done(IntV(n)) and out.steps == 7 * n + 5
        assert food.interp._execute(p.main, ctx, 7 * n + 4) is None
        out, stream = eval_program(p, 7 * n + 4, ctx), drained(p.main, ctx, 7 * n + 4)
        assert type(out) is FuelExhausted and out == stream and out.steps == stream.steps == 7 * n + 4


def test_flat_code_runs_a_tail_call_loop_with_no_return():
    # the countdown's one call is in tail position, so it pushes no return,
    # and Peano's count calls in an operand, so it does; 10^5 iterations
    # reach the value in exactly 5k + 4 steps, and one step less flat code
    # stops and eval_program ends where the stream does
    k = 100_000
    kinds = {}
    for name in EVAL_TEMPLATES:
        p = parse(eval_source(name, 0))
        ctx = preprocess(p)
        for (f, _), (_, _, body) in ctx.cells.items():
            calls = [ins[0] for ins in food.interp._compile(body, ctx) if ins[0] in (food.interp._CALL, food.interp._TAIL)]
            kinds.setdefault(f, set()).update(calls)
    assert kinds == {
        "sum": {food.interp._TAIL},
        "build": {food.interp._TAIL},
        "count": {food.interp._CALL},
    }
    p = parse(eval_source("countdown_fp", k))
    ctx = preprocess(p)
    out = food.interp._execute(p.main, ctx, 5 * k + 4)
    assert out == eval_program(p, 5 * k + 4, ctx) == Done(IntV(k * (k + 1) // 2)) and out.steps == 5 * k + 4
    assert food.interp._execute(p.main, ctx, 5 * k + 3) is None
    out, stream = eval_program(p, 5 * k + 3, ctx), drained(p.main, ctx, 5 * k + 3)
    assert type(out) is FuelExhausted and out == stream and out.steps == stream.steps == 5 * k + 3


def test_operands_that_are_not_integers_in_place_fill_their_slots_one_by_one():
    # a binary operator whose operands are integers in place starts with both
    # values; these operands are not, so the machine falls back to filling
    # the slots in order: a variable bound to a boolean (the program is not
    # checked), a field or pattern variable bound to an unevaluated argument
    # of a hand-built object, an unbound variable
    p = parse(
        "interface I { def m(b: Bool, n: Int): Int def r(b: Bool, n: Int): Bool"
        " def g(n: Int): Int def h(n: Int): Bool def u(n: Int): Int def w(n: Int): Bool }\n"
        "class A(x: Int) implements I { def m(b: Bool, n: Int): Int = b + n"
        " def r(b: Bool, n: Int): Bool = n < b def g(n: Int): Int = x * n def h(n: Int): Bool = n <= x"
        " def u(n: Int): Int = n - z def w(n: Int): Bool = z == n }\n"
        "data D\ncase C(y: Int) extends D\n"
        "def f(self: D)(n: Int): Int = match { case C(y) => y - n }\n"
        "def k(self: D)(n: Int): Bool = match { case C(y) => n == y }\n1"
    )
    ctx = preprocess(p)
    a, c = Obj("A", (PrimOp("+", IntLit(2), IntLit(3)),)), Obj("C", (PrimOp("*", IntLit(2), IntLit(3)),))
    cases = [
        (Sel(a, "m", (BoolLit(True), IntLit(1))), Stuck("+ on non-integers", PrimOp("+", BoolLit(True), IntLit(1)))),
        (Sel(a, "r", (BoolLit(False), IntLit(1))), Stuck("< on non-integers", PrimOp("<", IntLit(1), BoolLit(False)))),
        (Sel(a, "g", (IntLit(4),)), Done(IntV(20))),
        (Sel(a, "h", (IntLit(4),)), Done(BoolV(True))),
        (App("f", c, (IntLit(4),)), Done(IntV(2))),
        (App("k", c, (IntLit(6),)), Done(BoolV(True))),
        (Sel(a, "u", (IntLit(4),)), Stuck("unbound variable 'z'", Var("z"))),
        (Sel(a, "w", (IntLit(4),)), Stuck("unbound variable 'z'", Var("z"))),
    ]
    for e, outcome in cases:
        assert eval_program(Program((), e), 200, ctx) == outcome, e
        assert_same_outcome(Program((), e), ctx)
        assert_same_states(e, ctx)


def test_both_disciplines_contract_the_same_redexes_in_the_same_order():
    # the outcomes agree above; here they agree at every fuel up to a bound,
    # and at sampled larger ones, so flat code takes the stream's steps in
    # the same order, stopping where the fuel runs out: there eval_program's
    # last state, the machine's, is the state the stream plugs, and both
    # count the same steps
    rng = random.Random(614)
    programs = [load(name) for name in GOLDEN_SELECTIONS]
    programs += [parse(eval_source(name, n)) for name in EVAL_TEMPLATES for n in (0, 1, 4, 9)]
    programs += [generated(GenConfig(seed=seed, diverge_prob=1.0 if seed % 7 == 0 else 0.0)) for seed in range(300)]
    cases = [(p.main, preprocess(p)) for p in programs]
    ctx, terms = stuck_terms()
    cases += [(e, ctx) for e in terms]
    counted = 0
    for e, ctx in cases:
        for fuel in (*range(40), *sorted(rng.sample(range(40, 2_000), 3)), 2_000):
            by_env = eval_program(Program((), e), fuel, ctx)
            (redex, _, _, plug), by_subst = deque(states(e, ctx, fuel), maxlen=2)
            assert by_env == by_subst and by_env.steps == by_subst.steps, (e, fuel)
            counted += by_env.steps
            if type(by_env) is not FuelExhausted:
                break  # every larger fuel ends the same way
            assert by_env.last == plug(redex) and by_env.steps == fuel, (e, fuel)
    assert counted > 50_000, counted


def test_every_outcome_counts_its_steps():
    # Peano takes 7n + 5 steps and the countdown 5k + 4, in both styles, in
    # the machine and in flat code; a run whose outcome counts k steps yields k + 1
    # states, and the count takes no part in == or repr
    for name in EVAL_TEMPLATES:
        for n in (0, 1, 4, 9, 30):
            p = parse(eval_source(name, n))
            ctx = preprocess(p)
            want = 7 * n + 5 if name.startswith("peano") else 5 * n + 4
            *stream, outcome = states(p.main, ctx, DEFAULT_FUEL)
            assert type(outcome) is Done and outcome.steps == want == len(stream) - 1
            assert eval_program(p, want, ctx).steps == want
            for fuel in (0, want // 2, want - 1):
                out = eval_program(p, fuel, ctx)
                *stream, last = states(p.main, ctx, fuel)
                assert type(out) is FuelExhausted and out.steps == last.steps == fuel == len(stream) - 1
    ctx, terms = stuck_terms()
    for e in terms:
        *stream, outcome = states(e, ctx, DEFAULT_FUEL)
        out = eval_program(Program((), e), DEFAULT_FUEL, ctx)
        assert type(out) is Stuck and out.steps == outcome.steps == len(stream) - 1, e
    assert Done(IntLit(3), 5) == Done(IntLit(3), 7) and hash(Done(IntLit(3), 5)) == hash(Done(IntLit(3)))
    assert repr(Stuck("why", Var("x"), 4)) == "Stuck(reason='why', expr=Var(name='x'))"
    assert repr(FuelExhausted(IntLit(1), 9)) == "FuelExhausted(last=IntLit(value=1))"
