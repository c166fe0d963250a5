"""Program generation and the property drivers."""

import importlib
from collections import Counter
from dataclasses import replace

import pytest
import reference_recursive as ref
from conftest import EVAL_TEMPLATES, GOLDEN_SELECTIONS, deep_body_source, eval_source, generated, load, walk
from mutators import MUTATORS, mutate_swap_clause_bodies
from reference_step import typed_run as reference_typed_run

from food import FoodError, TransformError, check, eval_program, fuzz, parse, preprocess, transform
from food.fuzz import (
    GenConfig,
    PropFail,
    _typed_run,
    check_properties,
    gen_program,
    run_properties,
    shrink,
)
from food.interp import Done, FuelExhausted, states
from food.syntax import (
    App,
    BoolLit,
    Consumer,
    Datatype,
    FALSE,
    Generator,
    IntLit,
    Interface,
    Obj,
    PrimOp,
    Program,
    Sel,
    TRUE,
    Var,
)

TRANSFORM = importlib.import_module("food.transform")  # the module; food.transform is the function


def type_names(p):
    return {d.name for d in p.defs if isinstance(d, (Datatype, Interface))}


def test_same_seed_gives_identical_programs():
    cfg = GenConfig(seed=7)
    assert gen_program(cfg) == gen_program(cfg)
    assert gen_program(cfg) != gen_program(replace(cfg, seed=8))


def test_single_type_programs_pass_check():
    for style in (0.0, 1.0):
        p = generated(GenConfig(seed=1, max_types=1, style_mix=style))
        assert check(p, preprocess(p)) == []
        assert len(type_names(p)) == 1


def test_generated_programs_pass_check():
    for seed in range(200):
        p = generated(GenConfig(seed=seed))
        assert check(p, preprocess(p)) == [], f"seed {seed}"


def test_generated_programs_transform_both_ways():
    for seed in range(50):
        p = generated(GenConfig(seed=seed))
        names = type_names(p)
        once = transform(p, names)
        transform(once.program, names)


def test_overload_submode_produces_shared_names():
    # with several types, some seed overloads a consumer/destructor name
    # across two types at the generator's reuse probability
    for seed in range(40):
        cfg = GenConfig(seed=seed, max_types=3)
        p = generated(cfg)
        ops: dict[str, set[str]] = {}
        for d in p.defs:
            if isinstance(d, Consumer):
                ops.setdefault(d.name, set()).add(d.self_type)
            elif isinstance(d, Interface):
                for m in d.dtrs:
                    ops.setdefault(m.name, set()).add(d.name)
        if any(len(types) > 1 for types in ops.values()):
            assert check(p, preprocess(p)) == []
            return
    raise AssertionError("no overloaded program generated")


def test_divergent_programs_exhaust_fuel_on_both_sides():
    cfg = GenConfig(seed=3, diverge_prob=1.0)
    p = generated(cfg)
    assert isinstance(eval_program(p, fuel=500), FuelExhausted)
    q = transform(p, type_names(p)).program
    assert isinstance(eval_program(q, fuel=500), FuelExhausted)


def test_golden_corpus_passes_all_properties():
    for name, selected in GOLDEN_SELECTIONS.items():
        fails = check_properties(load(name), selected, fuel=100_000)
        assert not fails, (name, [(f.prop, f.detail) for f in fails])


PEANO_BUILD = {
    "fp": (
        "data Nat\n"
        "case Z() extends Nat\n"
        "case S(n: Nat) extends Nat\n"
        "def build(self: Nat)(k: Int): Nat = if (k == 0) self else build(S(self))(k - 1)\n"
        "build(Z())(300)\n"
    ),
    "oo": (
        "interface Nat {\n"
        "  def build(k: Int): Nat = if (k == 0) this else new S(this).build(k - 1)\n"
        "}\n"
        "class Z() implements Nat {}\n"
        "class S(n: Nat) implements Nat {}\n"
        "new Z().build(300)\n"
    ),
}


DEEP_PROGRAMS = {**PEANO_BUILD, "deep-body": deep_body_source(3000)}


@pytest.mark.parametrize("style", sorted(DEEP_PROGRAMS))
def test_properties_hold_on_a_deep_result(style):
    # the Peano programs end in a 300-deep S(...) object on both sides, and
    # the deep body makes whole programs 3,000 deep; results and programs are
    # compared with ==, which falls back to an explicit stack that deep
    program = parse(DEEP_PROGRAMS[style])
    assert check_properties(program) == []


def member_bodies(p):
    """Every member body of ``p``, then its main expression."""
    for d in p.defs:
        if isinstance(d, Interface):
            yield from (m.body for m in d.dtrs if m.body is not None)
        elif isinstance(d, Generator):
            yield from (f.body for f in d.funs)
        elif isinstance(d, Consumer):
            yield from (c.body for c in d.clauses)
    yield p.main


def test_the_battery_types_each_side_once(monkeypatch):
    # check keeps the typing of the source and of the transformed program,
    # so the transforms, the lookup-duality cells and the
    # typed runs' state 0 type nothing again.  The typed run types the redexes
    # it meets, which start as subterms of the main expression, so calls made
    # inside it are not counted here.
    typed, sides = Counter(), []
    real_typing, real_check, real_run = TRANSFORM.type_count, fuzz.check, fuzz._typed_run
    counting = [True]

    def typing(e, *args):
        typed[id(e)] += counting[0]
        return real_typing(e, *args)

    def check(p, ctx):  # the battery checks the source and the transformed program
        sides.append(p)
        return real_check(p, ctx)

    def typed_run(*args):
        counting[0] = False
        try:
            return real_run(*args)
        finally:
            counting[0] = True

    monkeypatch.setattr(TRANSFORM, "type_count", typing)
    monkeypatch.setattr(fuzz, "check", check)
    monkeypatch.setattr(fuzz, "_typed_run", typed_run)
    cases = [(load(name), selected) for name, selected in GOLDEN_SELECTIONS.items()]
    cases += [(generated(GenConfig(seed=seed)), None) for seed in range(20)]
    for program, selected in cases:
        typed.clear()
        sides.clear()
        assert check_properties(program, selected) == []
        assert len(sides) == 2
        # one call of the typing loop per body of each side
        expected = Counter(id(body) for side in sides for body in member_bodies(side))
        assert +typed == expected


def test_the_battery_translates_each_body_once(monkeypatch):
    # transform translates every member body and the main expression once,
    # and returns the translated definitions' cells for lookup-duality, so the
    # battery translates nothing itself; fuzz binds no _translated of its own
    # that the count below would miss
    assert not hasattr(fuzz, "_translated")
    translated, bodies = [0], [0]
    real_translated, real_transform = TRANSFORM._translated, fuzz.transform

    def counted(*args):
        translated[0] += 1
        return real_translated(*args)

    def transform(program, *args, **kwargs):
        bodies[0] += sum(1 for _ in member_bodies(program))
        return real_transform(program, *args, **kwargs)

    monkeypatch.setattr(TRANSFORM, "_translated", counted)
    monkeypatch.setattr(fuzz, "transform", transform)
    for seed in range(20):
        translated[0] = bodies[0] = 0
        assert check_properties(generated(GenConfig(seed=seed))) == []
        assert translated[0] == bodies[0] > 0


def test_typed_run_prints_a_state_with_objects_in_an_error():
    # the ill-typed if holds a runtime object once f's body is entered
    p = parse(
        "data D\ncase C(n: Int) extends D\n"
        "def f(self: D)(): Int = match { case C(n) => if (true) self else n }\n"
        "f(C(1))"
    )
    assert _typed_run(p, preprocess(p), 100) == (
        None,
        "step result fails to type: branches of if (true) obj(C, 1) else 1 have different types D and Int",
    )


@pytest.mark.parametrize("name", ["peano_fp", "peano_oo"])
def test_typed_run_takes_a_4000_deep_peano_run(name):
    # 28,005 states, whose Peano number grows to 4,000 objects deep; each step
    # types its redex and contractum only, and no compare or hash recurses
    p = parse(eval_source(name, 4000))
    assert _typed_run(p, preprocess(p), 100_000) == (Done(IntLit(4000)), None)


@pytest.mark.parametrize(
    "name, kind, member",
    [("sets_oop", "wrong-substitution-fp", "destructor"), ("sets_fp", "wrong-substitution-oo", "consumer")],
)
def test_lookup_duality_names_the_direction_that_failed(name, kind, member):
    fails = check_properties(load(name), {"Set"}, mutate=MUTATORS[kind])
    assert [f.detail for f in fails if f.prop == "lookup-duality"] == [
        f"{member} insert on {c} does not survive translation" for c in ("Empty", "Insert", "Union")
    ]


def test_lookup_duality_compares_a_cells_kind():
    # the mutator drops class C1's f1, whose body equals the interface
    # default: the consumer's clause for C1 becomes the default's fallback
    # cell, equal field by field to the own cell it was
    report = run_properties(GenConfig(seed=4, style_mix=0.0), 1, fuel=20_000, mutate=MUTATORS["drop-override"])
    assert [f.detail for f in report.trials[0].failures if f.prop == "lookup-duality"] == [
        "consumer f1 on C1 does not survive translation"
    ]


SHARED_BODY = """
interface I1 { def m(): Int }
class P() implements I1 { def m(): Int = 1 }
interface I2 { def m(): Int }
class Q() implements I2 { def m(): Int = 2 }
interface J { def g(): Int }
class A(x: I1) implements J { def g(): Int = x.m() }
class B(x: I2) implements J { def g(): Int = x.m() }
new A(new P()).g() + new B(new Q()).g()
"""


def test_lookup_duality_holds_where_one_body_sits_in_two_cells():
    # B's g body becomes A's very object: x is an I1 in A and an I2 in B, so
    # with I1 selected the one object translates to x.m() in one cell and to
    # m(x) in the other, and each cell is compared with its own translation
    p = parse(SHARED_BODY)
    assert check_properties(p, {"J", "I1"}) == []
    a, b = (d for d in p.defs if d.name in ("A", "B"))
    shared = replace(b, funs=(replace(b.funs[0], body=a.funs[0].body),))
    q = replace(p, defs=tuple(shared if d is b else d for d in p.defs))
    assert q.defs[-1].funs[0].body is q.defs[-2].funs[0].body
    assert check_properties(q, {"J", "I1"}) == []


def test_zero_trials_gives_empty_passing_report():
    report = run_properties(GenConfig(seed=0), trials=0)
    assert report.trials == () and report.ok


def test_small_fuzz_run_is_clean():
    report = run_properties(GenConfig(seed=99, diverge_prob=0.02), trials=60, fuel=20_000)
    assert report.ok, report.failures_by_prop()
    assert len(report.trials) == 60
    assert all(t.witness == "" for t in report.trials)


def test_planted_mutant_fails_eval_and_shrinks_small():
    # seed found by scanning: the clause-body swap flips the meaning of a
    # consumer the main expression actually calls
    seed = 8
    p = generated(GenConfig(seed=seed))
    names = type_names(p)

    def rerun(q):
        return check_properties(q, names & type_names(q), 2000, mutate_swap_clause_bodies)

    fails = rerun(p)
    assert any(f.prop == "eval-agreement" for f in fails)
    witness = shrink(p, "eval-agreement", rerun)
    assert len(witness.defs) <= 3
    assert any(f.prop == "eval-agreement" for f in rerun(witness))


SHRINK_PARTS = """
data Exp
case Lit(n: Int) extends Exp
case Neg(e: Exp) extends Exp
def eval(self: Exp)(): Int = match {
  case Lit(n) => n
  case _ => 0
}
interface Shape {
  def area(): Int
  def sides(): Int = 0
}
class Square(k: Int) implements Shape {
  def area(): Int = k * k
  def sides(): Int = 4
}
eval(Lit(1))
"""


def test_shrink_drops_clauses_methods_and_members():
    p = parse(SHRINK_PARTS)
    exp, _, _, ev, shape, square = p.defs

    def witness(name):
        # the stub property fails while the named definition is present
        return shrink(p, "stub", lambda q: [PropFail("stub", "")] * any(d.name == name for d in q.defs))

    assert witness("eval") == Program((exp, replace(ev, clauses=())), IntLit(0))
    assert witness("Square") == Program((replace(shape, dtrs=()), replace(square, funs=())), IntLit(0))
    assert witness("Shape") == Program((replace(shape, dtrs=()),), IntLit(0))


def test_shrink_does_not_swallow_a_rerun_error():
    with pytest.raises(FoodError, match="unknown selected type Nope"):
        shrink(load("exp_fp"), "stub", lambda q: transform(q, {"Nope"}))


def test_every_mutator_leaves_untargeted_programs_alone():
    p = load("exp_oop")
    assert MUTATORS["drop-wildcard"](p) == p  # no consumer at all on the OO side


# The first == sits in a call argument and the first - under an if branch;
# the later ones must stay as they are.
PRIM_TARGETS = """
data T
case A(n: Int) extends T
def f(self: T)(k: Int): Int = match {
  case A(n) => if (g(self)(n == k)) n else if (n == 0) k - n else 0 - 1
}
def g(self: T)(b: Bool): Bool = b
0
"""


@pytest.mark.parametrize(
    "kind, before, after",
    [("flip-comparison", "n == k", "n <= k"), ("swap-prim-operands", "k - n", "n - k")],
)
def test_prim_mutators_hit_the_first_target_in_pre_order(kind, before, after):
    p = parse(PRIM_TARGETS)
    assert MUTATORS[kind](p) == parse(PRIM_TARGETS.replace(before, after))


# ---------------------------------------------------------------------------
# The typed run's measure is the typing loop with a memo of the runtime
# objects it typed: on the terms a run meets, it gives what the recursive
# typer gives, and counts every node, whether or not the memo is shared.


def redexes_and_contracta(p, fuel=2000):
    """Each redex and contractum that ``interp.states`` yields on p's run, in order."""
    for out in states(p.main, preprocess(p), fuel):
        if type(out) is not tuple:
            return
        yield out[0]
        if out[1] is not None:
            yield out[1]


def reference_type(e, ctx):
    """The recursive typer's type of closed e, or its error's text."""
    try:
        return ref.transform_expr(e, ctx, {})[1]
    except TransformError as exc:
        return str(exc)


def test_the_typing_loop_measures_every_redex_and_contractum_as_the_reference():
    programs = [load(name) for name in sorted(GOLDEN_SELECTIONS)]
    programs += [parse(eval_source(name, n)) for name in sorted(EVAL_TEMPLATES) for n in range(13)]
    programs += [generated(GenConfig(seed=seed)) for seed in range(100)]
    # the runs of transformed programs with a planted fault reach states that do not type
    for seed in range(0, 100, 4):
        q = transform(generated(GenConfig(seed=seed))).program
        for mutate in MUTATORS.values():
            try:
                preprocess(m := mutate(q))
            except FoodError:
                continue
            programs.append(m)
    terms = errors = objects = 0
    for p in programs:
        ctx, shared = preprocess(p), {}  # one memo per run, as the typed run keeps
        for e in redexes_and_contracta(p):
            expected = reference_type(e, ctx), sum(1 for _ in walk(e))
            for memo in (None, shared):
                t, count = TRANSFORM.type_count(e, ctx, {}, None, memo)
                assert (str(t()) if callable(t) else t, count) == expected, e
            terms += 1
            errors += type(expected[0]) is str
        objects += len(shared)
    assert terms > 9_000 and errors > 10 and objects > 500, (terms, errors, objects)


# ---------------------------------------------------------------------------
# The typed run stops at the first repeated state; the reference runs on.

TYPED_RUN_FUELS = (0, 1, 2, 3, 4, 5, 6, 7, 17, 200, 1001)


def assert_typed_run_matches_reference(p, fuels=TYPED_RUN_FUELS):
    ctx = preprocess(p)
    for fuel in fuels:
        assert _typed_run(p, ctx, fuel) == reference_typed_run(p, ctx, fuel), fuel


def test_typed_run_matches_reference_on_generated_programs():
    for seed in range(300):
        for diverge_prob in (1.0, 0.0) if seed % 4 == 0 else (1.0,):
            p = generated(GenConfig(seed=seed, diverge_prob=diverge_prob))
            q = transform(p, type_names(p)).program
            assert_typed_run_matches_reference(p)
            assert_typed_run_matches_reference(q)


def test_typed_run_matches_reference_on_mutated_programs():
    for seed in range(0, 300, 4):
        for diverge_prob in (1.0, 0.0):
            p = generated(GenConfig(seed=seed, diverge_prob=diverge_prob))
            q = transform(p, type_names(p)).program
            for mutate in MUTATORS.values():
                m = mutate(q)
                if m == q:
                    continue
                try:
                    preprocess(m)
                except FoodError:
                    continue
                assert_typed_run_matches_reference(m, (0, 3, 17, 200))


# The loop runs through f and g (period 2) or f, g and h (period 3).  Calls on
# a constructor call enter it after one step, the if after five, and calls on
# an object at once; up(0) counts up and never repeats a state.
LOOP_FP = """
data T
case Go() extends T
def f(self: T)(): Int = g(self)
def g(self: T)(): Int = {back}
def h(self: T)(): Int = f(self)
def up(self: T)(k: Int): Int = up(self)(k + 1)
0
"""
LOOP_OO = """
interface T {
  def f(): Int
  def g(): Int
  def h(): Int
  def up(k: Int): Int
}
class Go() implements T {
  def f(): Int = this.g()
  def g(): Int = {back}
  def h(): Int = this.f()
  def up(k: Int): Int = this.up(k + 1)
}
0
"""


def loop_programs(style: str, period: int) -> dict[str, Program]:
    fp = style == "fp"
    template = LOOP_FP if fp else LOOP_OO
    back = {(True, 2): "f(self)", (True, 3): "h(self)", (False, 2): "this.f()", (False, 3): "this.h()"}
    defs = parse(template.replace("{back}", back[fp, period])).defs
    ctor = parse("Go()" if fp else "new Go()").main
    obj = Obj("Go", ())

    def call(name, recv, *args):
        return App(name, recv, args) if fp else Sel(recv, name, args)

    after_prefix = parse("if (1 + 2 * 3 == 7) 1 else 0").main
    mains = {
        "after one step": call("f", ctor),
        "after five steps": replace(after_prefix, then=call("f", ctor)),
        "at once": call("f", obj),
        "never": call("up", ctor, IntLit(0)),
    }
    return {where: Program(defs, main) for where, main in mains.items()}


@pytest.mark.parametrize("style", ["fp", "oo"])
@pytest.mark.parametrize("period", [2, 3])
def test_typed_run_matches_reference_on_hand_written_loops(style, period):
    for where, p in loop_programs(style, period).items():
        assert_typed_run_matches_reference(p, (*range(40), 200, 1001))
        if where == "never":
            continue
        # the whole run would take 10**9 steps; the reference takes as many
        # as reach the same position in the cycle
        ctx = preprocess(p)
        out, detail = _typed_run(p, ctx, 10**9)
        assert detail is None and isinstance(out, FuelExhausted)
        assert (out, detail) == reference_typed_run(p, ctx, 1000 + (10**9 - 1000) % period)


def test_the_typed_run_counts_the_steps_of_its_outcome():
    # a typed run that ends early on a repeated state jumps to the state the
    # fuel ends on, and counts the steps the machine counts there: all the fuel
    for style in ("fp", "oo"):
        for period in (2, 3):
            for p in loop_programs(style, period).values():
                ctx = preprocess(p)
                for fuel in (*range(40), 200, 1001):
                    out, detail = _typed_run(p, ctx, fuel)
                    assert detail is None and out.steps == eval_program(p, fuel, ctx).steps, fuel
            p = loop_programs(style, period)["at once"]
            out, _ = _typed_run(p, preprocess(p), 10**9)
            assert type(out) is FuelExhausted and out.steps == 10**9


def test_typed_run_matches_reference_on_ill_typed_programs():
    p = loop_programs("fp", 2)["at once"]
    bad_main = Program(p.defs, PrimOp("+", IntLit(1), BoolLit(True)))
    assert_typed_run_matches_reference(bad_main)
    assert _typed_run(bad_main, preprocess(bad_main), 5)[1].startswith("main expression does not type")
    # f is declared Int but its body is a Bool, so the second step changes
    # the type of the state
    bad_step = parse(LOOP_FP.replace("{back}", "f(self)").replace("= g(self)", "= g(self) == 0"))
    bad_step = Program(bad_step.defs, loop_programs("fp", 2)["after one step"].main)
    assert_typed_run_matches_reference(bad_step)
    assert _typed_run(bad_step, preprocess(bad_step), 5)[1] == "type changed from Int to Bool during evaluation"


def test_typed_run_matches_reference_on_an_object_in_a_body():
    # subst leaves a runtime object's fields as they are, so the k inside
    # f's body stays unbound when f is called, and the step's result does
    # not type; typing f's body with k bound would miss that
    p = parse(OBJECT_IN_A_BODY)
    f = next(d for d in p.defs if isinstance(d, Consumer) and d.name == "f")
    body = Obj("A", (Var("k"),))
    p = Program(tuple(replace(f, clauses=(replace(f.clauses[0], body=body),)) if d is f else d for d in p.defs), p.main)
    assert_typed_run_matches_reference(p)
    assert _typed_run(p, preprocess(p), 5)[1] == "step result fails to type: unbound variable 'k'"


OBJECT_IN_A_BODY = """
data T
case A(n: Int) extends T
def f(self: T)(k: Int): T = self
def g(self: T)(): Int = 0
g(f(A(1))(2))()
"""


# ---------------------------------------------------------------------------
# Every branch of the battery can fire: each case plants a fault that the
# branch under test reports.  with_main replaces the transformed program's
# main expression.


def with_main(e):
    return lambda p: Program(p.defs, e)


def append_first_def(p):
    return Program(p.defs + p.defs[:1], p.main)


def one_step_more(p):
    # the same value, reached one step later: 0 + main
    return Program(p.defs, PrimOp("+", IntLit(0), p.main))


def drop_set_interface(p):
    # the interface and its classes go, so the selection names no type of p2
    return fuzz._without_def(p, next(i for i, d in enumerate(p.defs) if d.name == "Set"))


BRANCHES = {
    "reparse failed": (
        lambda: load("sets_oop"), None, 100_000, with_main(Var("if")),
        PropFail("parse-pretty", "transformed program reparse failed: 23:1: expected (, found 'end of input'"),
    ),
    "no round-trip": (
        lambda: load("sets_oop"), None, 100_000, with_main(Var("true")),
        PropFail("parse-pretty", "transformed program does not round-trip"),
    ),
    "one side terminates": (
        lambda: generated(GenConfig(seed=3, diverge_prob=1.0)), None, 2000, with_main(IntLit(0)),
        PropFail("eval-agreement", "only one side terminated within fuel"),
    ),
    "different result": (
        lambda: load("exp_oop"), None, 100_000, with_main(IntLit(0)),
        PropFail("eval-agreement", "terminating results differ"),
    ),
    "different step count": (
        lambda: load("exp_oop"), None, 100_000, one_step_more,
        PropFail("eval-agreement", "step counts differ"),
    ),
    "different type": (
        lambda: load("exp_oop"), None, 100_000, with_main(BoolLit(True)),
        PropFail("type-preservation", "transformed program has a different type"),
    ),
    "no preprocess": (
        lambda: load("sets_oop"), None, 100_000, append_first_def,
        PropFail("round-trip", "transformed program does not preprocess: 2:1: duplicate definition of Set"),
    ),
    "ctx-duality raises": (
        lambda: load("sets_oop"), None, 100_000, drop_set_interface,
        PropFail("ctx-duality", "unknown selected type Set"),
    ),
    "source does not preprocess": (
        lambda: Program((Datatype("D"), Datatype("D")), IntLit(0)), None, 100_000, None,
        PropFail("wellformed", "preprocess failed: duplicate definition of D"),
    ),
    "unknown selected type": (
        lambda: load("sets_oop"), {"Nope"}, 100_000, None,
        PropFail("transform", "unknown selected type Nope"),
    ),
}


@pytest.mark.parametrize("case", sorted(BRANCHES))
def test_battery_branch_fires(case):
    program, selected, fuel, mutate, expected = BRANCHES[case]
    assert expected in check_properties(program(), selected, fuel, mutate)


def test_skip_identity_fires_when_the_empty_selection_changes_the_program(monkeypatch):
    real_transform = fuzz.transform

    def transform(program, selected, *args, **kwargs):
        result = real_transform(program, selected, *args, **kwargs)
        return result if selected else replace(result, program=Program(program.defs, IntLit(0)))

    monkeypatch.setattr(fuzz, "transform", transform)
    assert PropFail("skip-identity", "transform with no selected types changed the program") in check_properties(
        load("sets_oop")
    )


# a runtime object with no arguments, and one whose printed text has a ","
PLANTED_OBJECTS = (Obj("Planted", ()), Obj("Planted", (IntLit(1),)))


def planted(p, kind, obj):
    """p with obj in place of its main expression, or of its first body of one kind; None when p has none."""
    if kind == "main":
        return Program(p.defs, obj)
    for i, d in enumerate(p.defs):
        if kind == "clause" and type(d) is Consumer and d.clauses:
            d = replace(d, clauses=(replace(d.clauses[0], body=obj), *d.clauses[1:]))
        elif kind == "method" and type(d) is Generator and d.funs:
            d = replace(d, funs=(replace(d.funs[0], body=obj), *d.funs[1:]))
        elif kind == "default" and type(d) is Interface and any(m.body is not None for m in d.dtrs):
            j = next(j for j, m in enumerate(d.dtrs) if m.body is not None)
            d = replace(d, dtrs=(*d.dtrs[:j], replace(d.dtrs[j], body=obj), *d.dtrs[j + 1 :]))
        else:
            continue
        return Program(p.defs[:i] + (d,) + p.defs[i + 1 :], p.main)
    return None


def reported_wherever_planted(nodes, message):
    """Plant each of nodes in the main expression, and in each kind of member body, of
    every corpus file's transformed program: the battery raises nothing, and reports
    a parse-pretty and a wf-preservation that ends in message."""
    kinds = Counter()
    for name in sorted(GOLDEN_SELECTIONS):
        program = load(name)
        target = transform(program).program
        for kind in ("main", "clause", "method", "default"):
            if planted(target, kind, nodes[0]) is None:
                continue
            kinds[kind] += 1
            for e in nodes:
                fails = check_properties(program, None, 100_000, lambda p: planted(p, kind, e))
                assert "parse-pretty" in {f.prop for f in fails}, (name, kind, e)
                wf = [f.detail for f in fails if f.prop == "wf-preservation"]
                assert any(d.endswith(message) for d in wf), (name, kind, e)
    assert set(kinds) == {"main", "clause", "method", "default"}, kinds


def test_a_runtime_object_in_the_transformed_program_is_reported_not_raised():
    # check alone rejects a runtime object in source, and the printer prints
    # it as text that parse rejects
    reported_wherever_planted(PLANTED_OBJECTS, "runtime object in source program")


def test_an_unknown_operator_in_the_transformed_program_is_reported_not_raised():
    # the typer rejects an operator outside syntax.OPERATORS, and the printer
    # prints it with its own text, which parse rejects
    reported_wherever_planted((PrimOp("%", IntLit(1), IntLit(2)), PrimOp("%", TRUE, FALSE)), "unknown operator '%'")


def test_a_free_receiver_is_a_wf_preservation():
    # check owns the receiver scoping rule: a free 'self' or 'this' in the
    # transformed program is its unbound variable, a wf-preservation, and no
    # other label reports it again as a hygiene fault or a failed typing
    for mix, kind, name in ((0.0, "wrong-substitution-oo", "self"), (0.5, "wrong-substitution-fp", "this")):
        report = run_properties(GenConfig(seed=0, style_mix=mix), 1, fuel=20_000, mutate=MUTATORS[kind])
        assert PropFail("wf-preservation", f"unbound variable {name!r}") in report.trials[0].failures
    for seed in range(20):
        for mix in (0.0, 0.5, 1.0):
            p = generated(GenConfig(seed=seed, style_mix=mix))
            for mutate in (None, *MUTATORS.values()):
                props = {f.prop for f in check_properties(p, None, 20_000, mutate)}
                assert "substitution-hygiene" not in props
                assert not {"wf-preservation", "type-preservation"} <= props
