"""Small-step semantics, lookup functions, and fuel-bounded evaluation."""

from collections import Counter, deque
from dataclasses import replace

import reference_step
from conftest import EVAL_TEMPLATES, GOLDEN_SELECTIONS, eval_source, generated, load
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
    desugar,
    dtr_body,
    eval_program,
    parse,
    preprocess,
    restrict,
    step,
    trace,
    transform,
    transform_expr,
    translate_ctx,
)
from food.fuzz import MUTATORS, GenConfig
import food.interp
from food.interp import Stepped, format_value, run
from food.syntax import (
    App,
    BoolLit,
    CtrCall,
    Expr,
    Generator,
    If,
    IntLit,
    Interface,
    New,
    Obj,
    PrimOp,
    Program,
    Sel,
    Var,
)


def test_fig1_subtraction_evaluates_to_one():
    result = eval_program(load("exp_oop"))
    assert result == Done(IntV(1))
    t = trace(load("exp_fp"))
    assert t.outcome == Done(IntV(1))
    assert t.steps[0] == load("exp_fp").main


def test_constructor_call_builds_object_in_two_steps():
    p = parse("data Set\ncase Empty() extends Set\ncase Insert(s: Set, n: Int) extends Set\nInsert(Empty(), 3)")
    t = trace(p)
    assert t.outcome == Done(ObjV("Insert", (ObjV("Empty", ()), IntV(3))))
    assert len(t.steps) == 3  # initial expression plus two reductions


def test_contains_union_is_true_within_thirty_steps():
    p = load("sets_fp")
    q = Program(p.defs, parse("contains(Union(Insert(Empty(), 1), Insert(Empty(), 2)))(2)").main)
    t = trace(q)
    assert t.outcome == Done(BoolV(True))
    assert len(t.steps) <= 30


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
    unfilled = replace(ctx, bodies={})
    pairs = lookup_pairs(ctx)
    for _ in range(2):  # the first round fills the table, the second reads it
        for f, c in pairs:
            assert dtr_body(f, c, ctx) == reference_step.dtr_body(f, c, ctx), (f, c)
            assert csm_body(f, c, ctx) == reference_step.csm_body(f, c, ctx), (f, c)
    assert len(ctx.bodies) == 2 * len(pairs)
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
        assert translated.bodies is not narrowed.bodies
        for c in (ctx, narrowed, translated, preprocess(transform(p, selected).program)):
            assert_body_table_matches_oracle(c)


def test_contractions_call_subst_and_lookups_through_module_globals(monkeypatch):
    # the benchmark's tracer counts these calls by rebinding the three names
    # in food.interp, so a contraction must call each of them there; the
    # environment machine substitutes only to read a state back, and a run
    # that ends in a value reads none back
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
            p = desugar(parse(eval_source(template, n)))
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
    t = trace(p)
    assert t.steps == (CtrCall("Empty", ()), Obj("Empty", ()))
    assert t.outcome == Done(ObjV("Empty", ()))


def test_stuck_trace_is_flagged():
    src = (
        "data D\ncase C0() extends D\ncase C1() extends D\n"
        "def f(self: D)(): Int = match { case C1() => 1 }\n"
        "f(C0())"
    )
    t = trace(parse(src))
    assert isinstance(t.outcome, Stuck)
    assert "no consumer 'f' covers C0" in t.outcome.reason
    assert t.steps[-1] == App("f", Obj("C0", ()), ())


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


def test_every_step_of_a_trace_preserves_the_type():
    p = load("sets_fp")
    ctx = preprocess(p)
    tctx = restrict(ctx, frozenset())
    t = trace(p)
    types = {transform_expr(e, tctx, {})[1] for e in t.steps}
    assert len(types) == 1


def test_semantics_preserved_across_transformation():
    for name, selected in (("sets_oop", {"Set"}), ("boolnorm_ctx_fp", {"Context"})):
        p = load(name)
        q = transform(p, selected).program
        assert eval_program(p) == eval_program(q), name


def test_format_value():
    assert format_value(IntV(-3)) == "-3"
    assert format_value(BoolV(True)) == "true"
    assert format_value(ObjV("Insert", (ObjV("Empty", ()), IntV(3)))) == "obj(Insert, obj(Empty), 3)"


def test_done_carries_the_final_state():
    programs = [load(name) for name in GOLDEN_SELECTIONS] + [
        desugar(parse(eval_source(name, n))) for name in EVAL_TEMPLATES for n in (0, 3, 12)
    ]
    assert len(programs) == 20
    for p in programs:
        t = trace(p)
        assert t.outcome == Done(t.steps[-1]), p.main


def test_an_object_is_a_value_whatever_its_arguments():
    # check rejects every runtime object in source, so only a hand-built
    # program reaches this: the machine takes any Obj as a value, unevaluated
    # arguments and all, and returns it as it is
    e = Obj("C", (PrimOp("+", IntLit(1), IntLit(2)), Var("x")))
    assert eval_program(Program((), e)) == trace(Program((), e)).outcome == Done(e)
    assert trace(Program((), e)).steps == (e,)


# ---------------------------------------------------------------------------
# The refocusing machine against the recursive reference step

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
            p = desugar(parse(eval_source(name, n)))
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


def test_fuel_boundary_at_a_depth_the_recursive_step_cannot_reach():
    n = 2000
    for name in ("peano_fp", "peano_oo"):
        p = desugar(parse(eval_source(name, n)))
        ctx = preprocess(p)
        assert eval_program(p, 7 * n + 5, ctx) == Done(IntV(n))
        out = eval_program(p, 7 * n + 4, ctx)
        assert isinstance(out, FuelExhausted)
        # drain the substituting machine and plug only its final (focus,
        # frames); run would plug every one of the 14,004 states
        (focus, frames), outcome = deque(food.interp._machine(p.main, ctx, 7 * n + 4), maxlen=2)
        assert outcome == out and out.last == food.interp._plug_all(focus, frames)


# ---------------------------------------------------------------------------
# The environment machine against the substituting machine


def drained(e, ctx, fuel):
    """The outcome of the substituting machine, which ``run`` and ``trace`` step."""
    for out in food.interp._machine(e, ctx, fuel):
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
            p = desugar(parse(eval_source(name, n)))
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
    p = desugar(parse(f"data D\ncase C() extends D\ndef f(self: D)(n: Int): Int = {body}\nf(C())(1)\n"))
    ctx = preprocess(p)
    assert check(p, ctx) == []
    assert eval_program(p, 2 * n, ctx) == Done(IntV(n + 1))
    assert isinstance(eval_program(p, n // 2, ctx), FuelExhausted)
