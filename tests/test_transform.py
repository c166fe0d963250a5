"""The type-directed bidirectional translation."""

import pytest
from conftest import GOLDEN_SELECTIONS, load

from food import (
    ContextError,
    TransformError,
    canonicalize,
    check,
    preprocess,
    parse,
    restrict,
    transform,
    transform_expr,
    typecheck,
)
from food.syntax import (
    App,
    BOOL,
    BoolT,
    CtrCall,
    Consumer,
    INT,
    Interface,
    IntT,
    Named,
    PrimOp,
    Sel,
    Var,
    free_vars,
)


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
    assert out == CtrCall("Insert", (Var("this"), Var("i")))
    assert t == Named("Set")


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
    back = transform(out.program if hasattr(out, "program") else out, {"Context", "Expr"})
    assert canonicalize(back.program) == canonicalize(p)
    assert back.program_type == result.program_type


def test_round_trip_preserves_type_and_syntax():
    for name, selected in GOLDEN_SELECTIONS.items():
        p = load(name)
        once = transform(p, selected)
        twice = transform(once.program, selected)
        assert canonicalize(twice.program) == canonicalize(p), name
        assert once.program_type == twice.program_type == typecheck(p), name


def test_type_preservation_across_translation():
    for name, selected in GOLDEN_SELECTIONS.items():
        p = load(name)
        result = transform(p, selected)
        assert typecheck(result.program) == typecheck(p), name


def test_substitution_hygiene():
    fp = transform(load("sets_oop"), {"Set"}).program
    for d in fp.defs:
        if isinstance(d, Consumer):
            assert all("this" not in free_vars(c.body) for c in d.clauses)
    oo = transform(load("sets_fp"), {"Set"}).program
    for d in oo.defs:
        if isinstance(d, Interface):
            assert all(m.body is None or "self" not in free_vars(m.body) for m in d.dtrs)


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
