"""Global-context construction, restriction, and duality translation."""

import pytest
from conftest import load

from food import ContextError, parse, preprocess, restrict, transform, translate_ctx
from food.diagnostics import Diagnostic
from food.syntax import (
    Arrow,
    BoolT,
    Clause,
    Constructor,
    Consumer,
    Datatype,
    Dtr,
    Generator,
    INT,
    IntLit,
    IntT,
    Interface,
    Named,
    Program,
    WILDCARD,
)


def ctx_of(name):
    return preprocess(load(name))


def test_set_interface_context_table():
    ctx = ctx_of("sets_oop")
    assert ctx.it == ("Set",)
    assert ctx.dt == ()
    assert ctx.dtr["Set"] == ("isEmpty", "contains", "insert", "union")
    assert ctx.gen["Set"] == ("Empty", "Insert", "Union")
    assert ctx.ctr["Set"] == () and ctx.csm["Set"] == ()
    assert ctx.dtr_sig[("insert", "Set")] == Arrow((IntT(),), Named("Set"))
    assert ctx.sig["Insert"] == Arrow((Named("Set"), IntT()), Named("Set"))


def test_set_datatype_context_table():
    ctx = ctx_of("sets_fp")
    assert ctx.dt == ("Set",)
    assert ctx.ctr["Set"] == ("Empty", "Insert", "Union")
    assert ctx.csm["Set"] == ("isEmpty", "contains", "insert", "union")
    assert ctx.sig[("contains", "Set")] == Arrow(
        (Named("Set"),), Arrow((IntT(),), BoolT())
    )


def test_empty_program_context():
    ctx = preprocess(parse("x"))
    assert ctx.dt == () and ctx.it == ()
    assert ctx.sig == {} and ctx.dtr_sig == {} and ctx.defs == {}


def test_duplicate_names_rejected():
    with pytest.raises(ContextError):
        preprocess(parse("data Set\ndata Set\nx"))
    with pytest.raises(ContextError):
        preprocess(parse("data Set\ncase C() extends Set\ncase C() extends Set\nx"))
    # consumer identity is the (name, datatype) pair, so this is fine
    preprocess(load("setlist_fp"))
    with pytest.raises(ContextError):
        preprocess(
            parse(
                "data Set\ncase C() extends Set\n"
                "def f(self: Set)(): Int = 1\ndef f(self: Set)(): Int = 2\nx"
            )
        )
    with pytest.raises(ContextError) as exc:
        preprocess(parse("interface I { def f(): Int def f(): Int }\n1"))
    assert str(exc.value) == "1:1: duplicate destructor f in interface I"


def test_undeclared_parents_rejected():
    with pytest.raises(ContextError):
        preprocess(parse("case C() extends Nowhere\nx"))
    with pytest.raises(ContextError):
        preprocess(parse("class C() implements Nowhere {}\nx"))
    with pytest.raises(ContextError):
        preprocess(parse("def f(self: Nowhere)(): Int = 1\nx"))
    # a consumer on an interface is as bad as on an undeclared type
    with pytest.raises(ContextError):
        preprocess(parse("interface I {}\ndef f(self: I)(): Int = 1\nx"))


D = Datatype("D")

# each of preprocess's five diagnostics: a source, the same program built by
# hand, whose definitions have no position, the message, and where it sits in
# the source
PREPROCESS_ERRORS = [
    ("data D\ndata D\n1", (D, D), "duplicate definition of D", (2, 1)),
    (
        "data D\n interface I { def f(): Int def f(): Int }\n1",
        (D, Interface("I", (Dtr("f", (), INT, None),) * 2)),
        "duplicate destructor f in interface I",
        (2, 2),
    ),
    (
        "data D\ncase C() extends Nowhere\n1",
        (D, Constructor("C", (), "Nowhere")),
        "constructor C extends Nowhere, which is not a declared datatype",
        (2, 1),
    ),
    (
        "data D\n\n  class K() implements Nowhere {}\n1",
        (D, Generator("K", (), "Nowhere", ())),
        "class K implements Nowhere, which is not a declared interface",
        (3, 3),
    ),
    (
        "data D\ndata E\n\n\ndef f(self: Nowhere)(): Int = 1\n1",
        (D, Datatype("E"), Consumer("f", "Nowhere", (), INT, (Clause(WILDCARD, IntLit(1)),))),
        "consumer f needs a declared datatype, got Nowhere",
        (5, 1),
    ),
]


@pytest.mark.parametrize("source, defs, message, pos", PREPROCESS_ERRORS)
def test_preprocess_places_each_diagnostic_at_its_definition(source, defs, message, pos):
    built = Program(defs, IntLit(1))
    assert parse(source) == built  # positions take no part in ==
    with pytest.raises(ContextError) as exc:
        preprocess(parse(source))
    assert exc.value.diagnostics == (Diagnostic(message, *pos),)
    with pytest.raises(ContextError) as exc:
        preprocess(built)
    assert exc.value.diagnostics == (Diagnostic(message, 0, 0),)
    assert str(exc.value) == message


def test_restrict_empties_unselected_types():
    ctx = restrict(ctx_of("setlist_oop"), {"Set"})
    assert ctx.it == ("Set",)
    assert ctx.gen["List"] == () and ctx.dtr["List"] == ()
    # signatures and definitions survive for the skip rules
    assert ("contains", "List") in ctx.dtr_sig
    assert "Cons" in ctx.defs


def test_restrict_identity_and_empty():
    full = ctx_of("setlist_fp")
    assert restrict(full, {"Set", "List"}) == full
    none = restrict(full, set())
    assert none.dt == () and none.it == ()
    assert all(v == () for v in none.ctr.values())
    assert all(v == () for v in none.csm.values())
    assert none.sig == full.sig


def test_restrict_unknown_name():
    with pytest.raises(ContextError):
        restrict(ctx_of("sets_fp"), {"Nope"})


def test_restrict_idempotent():
    full = ctx_of("setlist_oop")
    once = restrict(full, {"Set"})
    assert restrict(once, {"Set"}) == once


def test_translate_ctx_maps_interface_table_to_datatype_table():
    oo = restrict(ctx_of("sets_oop"), {"Set"})
    fp = restrict(ctx_of("sets_fp"), {"Set"})
    assert translate_ctx(oo).duality_parts() == fp.duality_parts()
    assert translate_ctx(fp).duality_parts() == oo.duality_parts()


def test_translate_ctx_is_an_involution():
    for name in ("sets_oop", "sets_fp", "setlist_oop", "setlist_fp"):
        ctx = restrict(ctx_of(name), {"Set"})
        assert translate_ctx(translate_ctx(ctx)).duality_parts() == ctx.duality_parts()


def test_translate_ctx_leaves_skip_entries_alone():
    ctx = restrict(ctx_of("setlist_oop"), {"Set"})
    out = translate_ctx(ctx)
    # the unselected List hierarchy keeps its destructor signature as is
    assert out.dtr_sig[("contains", "List")] == ctx.dtr_sig[("contains", "List")]
    assert ("contains", "List") not in out.sig
    assert out.gen["List"] == () and out.ctr["List"] == ()


def test_translate_ctx_matches_preprocess_of_transformed_program():
    for name in ("setlist_oop", "setlist_fp"):
        p = load(name)
        q = transform(p, {"Set"}).program
        got = restrict(preprocess(q), {"Set"})
        want = translate_ctx(restrict(preprocess(p), {"Set"}))
        assert got.duality_parts() == want.duality_parts()


def test_every_signature_key_has_a_definition():
    for name in ("sets_oop", "sets_fp", "setlist_fp", "boolnorm_ctx_oop"):
        ctx = ctx_of(name)
        for key in ctx.sig:
            assert key in ctx.defs
        for f, d in ctx.dtr_sig:
            assert d in ctx.defs


def test_dump_is_deterministic():
    a = ctx_of("setlist_fp").dump()
    b = ctx_of("setlist_fp").dump()
    assert a == b
    assert "csm[Set]: isEmpty, contains, insert, union" in a
    assert "sig[contains@Set]: (Set) -> (Int) -> Bool" in a
