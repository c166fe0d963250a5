"""Metamorphic relations: a program means the same whatever the order of its definitions.

FOOD programs have no definition order: ``preprocess`` registers every type
before it reads the members that name one.  Every corpus file and every
generated program declares each type before its members, so only a shuffle
shows a layer that reads the definitions in order (Chen, Kuo, Liu, Poon,
Towey, Tse and Zhou, "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys, 2018).
"""

import random

import pytest
from conftest import GOLDEN_SELECTIONS, generated, load

from food import check, eval_program, preprocess, transform
from food.fuzz import GenConfig
from food.syntax import Consumer, Datatype, Generator, Interface, Program


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
