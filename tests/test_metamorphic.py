"""Metamorphic relations: a program means the same whatever the order of its definitions and its names.

FOOD programs have no definition order: ``preprocess`` registers every type
before it reads the members that name one.  Every corpus file and every
generated program declares each type before its members, so only a shuffle
shows a layer that reads the definitions in order.  Nor does a program's
meaning depend on its names: renaming every type, constructor, class and
member by a bijection renames the value and the transformed program, so a
layer that orders definitions or members by name shows (Chen, Kuo, Liu, Poon,
Towey, Tse and Zhou, "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys, 2018).
"""

import dataclasses
import random

import pytest
from conftest import GOLDEN_SELECTIONS, fold, generated, load

from food import check, eval_program, preprocess, transform
from food.fuzz import GenConfig
from food.interp import Done
from food.syntax import (
    App,
    Clause,
    Constructor,
    Consumer,
    CtrCall,
    Datatype,
    Dtr,
    Generator,
    Interface,
    Named,
    New,
    Obj,
    Param,
    Pattern,
    Program,
    Sel,
    with_children,
)


def by_name(defs):
    """The definitions sorted by kind and name, each with its members and clauses sorted by name.

    The rebuilt definitions keep no position, and a wildcard clause stays last.
    """
    out = []
    for d in defs:
        cls = type(d)
        if cls is Interface:
            d = Interface(d.name, tuple(sorted(d.dtrs, key=lambda m: m.name)))
        elif cls is Generator:
            d = Generator(d.name, d.fields, d.parent, tuple(sorted(d.funs, key=lambda m: m.name)))
        elif cls is Consumer:
            clauses = sorted(d.clauses, key=lambda c: (c.pattern.is_wildcard, c.pattern.name or ""))
            d = Consumer(d.name, d.self_type, d.params, d.ret, tuple(clauses))
        out.append(d)
    return sorted(out, key=lambda d: (type(d).__name__, d.name, getattr(d, "self_type", "")))


def assert_order_free(program, selected, rng):
    """A shuffle of program's definitions checks, evaluates and transforms as program does."""
    shuffled = Program(tuple(rng.sample(program.defs, len(program.defs))), program.main)
    ctx = preprocess(shuffled)
    assert check(shuffled, ctx) == []
    assert eval_program(shuffled, ctx=ctx) == eval_program(program)
    want, got = transform(program, selected), transform(shuffled, selected, ctx)
    assert by_name(got.program.defs) == by_name(want.program.defs)
    assert (got.program.main, got.program_type) == (want.program.main, want.program_type)


@pytest.mark.parametrize("name", sorted(GOLDEN_SELECTIONS))
def test_corpus_meaning_ignores_definition_order(name):
    program, rng = load(name), random.Random(name)
    for _ in range(10):
        assert_order_free(program, GOLDEN_SELECTIONS[name], rng)


@pytest.mark.parametrize("mix", [0, 0.5, 1])
def test_generated_meaning_ignores_definition_order(mix):
    for seed in range(300):
        program = generated(GenConfig(seed=seed, style_mix=mix))
        rng = random.Random(seed)
        names = sorted(d.name for d in program.defs if type(d) in (Datatype, Interface))
        assert_order_free(program, set(rng.sample(names, rng.randint(0, len(names)))), rng)


# ---------------------------------------------------------------------------
# Renaming


def declared_names(program):
    """Every type, constructor, class and member name that program declares."""
    names = set()
    for d in program.defs:
        names.add(d.name)
        names.update(m.name for m in getattr(d, "dtrs", getattr(d, "funs", ())))
    return names


def bijection(program, rng):
    """A seeded map of program's declared names onto fresh names of the same case, one to one.

    One name maps to one fresh name everywhere, so a member name that several
    types share stays shared.
    """
    names = sorted(declared_names(program))
    upper, lower = [n for n in names if n[0].isupper()], [n for n in names if n[0].islower()]
    fresh_upper = [f"Rn{k}" for k in rng.sample(range(10 * len(names)), len(upper))]
    fresh_lower = [f"rn{k}" for k in rng.sample(range(10 * len(names)), len(lower))]
    assert not set(names) & {*fresh_upper, *fresh_lower}
    return dict(zip(upper + lower, fresh_upper + fresh_lower))


def rename_type(t, names):
    return Named(names[t.name]) if type(t) is Named else t


def rename_params(params, names):
    return tuple(Param(p.name, rename_type(p.type, names)) for p in params)


def rename_expr(e, names):
    """e with every call's, construction's and object's name renamed; variables keep theirs."""

    def rule(x, kids):
        x = with_children(x, kids)
        return dataclasses.replace(x, name=names[x.name]) if type(x) in (Sel, App, CtrCall, New, Obj) else x

    return fold(e, rule)


def rename_dtr(m, names):
    body = None if m.body is None else rename_expr(m.body, names)
    return Dtr(names[m.name], rename_params(m.params, names), rename_type(m.ret, names), body)


def rename(program, names):
    """program with its declared names mapped by names, wherever they occur."""
    defs = []
    for d in program.defs:
        cls = type(d)
        if cls is Datatype:
            d = Datatype(names[d.name])
        elif cls is Interface:
            d = Interface(names[d.name], tuple(rename_dtr(m, names) for m in d.dtrs))
        elif cls is Constructor:
            d = Constructor(names[d.name], rename_params(d.fields, names), names[d.parent])
        elif cls is Generator:
            funs = tuple(rename_dtr(m, names) for m in d.funs)
            d = Generator(names[d.name], rename_params(d.fields, names), names[d.parent], funs)
        else:
            clauses = tuple(
                Clause(Pattern(c.pattern.name and names[c.pattern.name], c.pattern.vars), rename_expr(c.body, names))
                for c in d.clauses
            )
            params, ret = rename_params(d.params, names), rename_type(d.ret, names)
            d = Consumer(names[d.name], names[d.self_type], params, ret, clauses)
        defs.append(d)
    return Program(tuple(defs), rename_expr(program.main, names))


def assert_name_free(program, selected, rng):
    """A renaming of program checks, evaluates to the renamed value and transforms to the renamed transform."""
    names = bijection(program, rng)
    renamed = rename(program, names)
    ctx = preprocess(renamed)
    assert check(renamed, ctx) == []
    want = eval_program(program)
    assert type(want) is Done, want
    assert eval_program(renamed, ctx=ctx) == Done(rename_expr(want.value, names))
    got = transform(renamed, {names[t] for t in selected}, ctx).program
    assert got == rename(transform(program, selected).program, names)


@pytest.mark.parametrize("name", sorted(GOLDEN_SELECTIONS))
def test_corpus_meaning_ignores_names(name):
    program, rng = load(name), random.Random(name)
    for _ in range(10):
        assert_name_free(program, GOLDEN_SELECTIONS[name], rng)


@pytest.mark.parametrize("mix", [0, 0.5, 1])
def test_generated_meaning_ignores_names(mix):
    for seed in range(300):
        program = generated(GenConfig(seed=seed, style_mix=mix))
        rng = random.Random(seed)
        names = sorted(d.name for d in program.defs if type(d) in (Datatype, Interface))
        assert_name_free(program, set(rng.sample(names, rng.randint(0, len(names)))), rng)
