"""Acceptance criteria, one test per criterion.

Criteria 2-5 share a single 1000-program fuzz corpus (seeded, so reruns are
identical); each criterion asserts zero failures among the properties it owns.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import time

import pytest
from conftest import CORPUS, GOLDEN_SELECTIONS, load

from food import canonicalize, eval_program, pretty, transform
from food.fuzz import GenConfig, MUTATORS, check_properties, run_properties
from food.interp import Done, IntV

FUEL = 100_000
TRIALS = 1_000

GOLDEN_PAIRS = [
    ("sets_oop", "sets_fp", {"Set"}),
    ("sets_fp", "sets_oop", {"Set"}),
    ("exp_oop", "exp_fp", {"Exp"}),
    ("exp_fp", "exp_oop", {"Exp"}),
]

# property names owned by each of criteria 2-5; a transform failure counts
# against the round trip since the second pass cannot even start
ROUND_TRIP_PROPS = {"transform", "round-trip", "type-preservation", "skip-identity"}
SEMANTICS_PROPS = {"eval-agreement"}
TYPE_SAFETY_PROPS = {"type-safety"}
DUALITY_PROPS = {"ctx-duality", "lookup-duality"}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


@pytest.fixture(scope="module")
def fuzz_corpus():
    cfg = GenConfig(seed=20260809, diverge_prob=0.01)
    start = time.time()
    rep = run_properties(cfg, TRIALS, fuel=FUEL)
    return rep, time.time() - start


def test_criterion_1_golden_transforms():
    start = time.time()
    for source, target, selected in GOLDEN_PAIRS:
        got = canonicalize(transform(load(source), selected).program)
        want = canonicalize(load(target))
        assert got == want, f"{source} -> {target}"
    for name in ("setlist_oop", "setlist_fp"):
        out = pretty(canonicalize(transform(load(name), {"Set"}).program))
        expected = (CORPUS / "expected" / f"{name}.sel_set.food").read_text()
        assert out == expected, name
        # the unselected List half survives byte for byte
        source_text = (CORPUS / f"{name}.food").read_text()
        list_lines = [
            l
            for l in source_text.splitlines()
            if l.startswith(("data List", "interface List", "class Nil", "class Cons", "case Nil", "case Cons"))
        ]
        assert list_lines and all(l in expected.splitlines() for l in list_lines), name
    elapsed = time.time() - start
    report(1, "golden transforms", elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_round_trip(fuzz_corpus):
    rep, _ = fuzz_corpus
    for name, selected in GOLDEN_SELECTIONS.items():
        p = load(name)
        once = transform(p, selected)
        twice = transform(once.program, selected)
        assert canonicalize(twice.program) == canonicalize(p), name
        assert once.program_type == twice.program_type, name
    bad = sum(n for prop, n in rep.failures_by_prop().items() if prop in ROUND_TRIP_PROPS)
    report(2, "round trip", len(rep.trials) >= 1000 and bad == 0, f"{len(rep.trials)} programs, {bad} failures")


def test_criterion_3_semantics_preservation(fuzz_corpus):
    rep, elapsed = fuzz_corpus
    for name, selected in GOLDEN_SELECTIONS.items():
        p = load(name)
        q = transform(p, selected).program
        assert eval_program(p, FUEL) == eval_program(q, FUEL), name
    bad = sum(n for prop, n in rep.failures_by_prop().items() if prop in SEMANTICS_PROPS)
    report(
        3,
        "semantics preservation",
        len(rep.trials) >= 1000 and bad == 0,
        f"{len(rep.trials)} programs, {bad} disagreements, corpus ran in {elapsed:.0f}s",
    )


def test_criterion_4_type_safety(fuzz_corpus):
    rep, _ = fuzz_corpus
    bad = sum(n for prop, n in rep.failures_by_prop().items() if prop in TYPE_SAFETY_PROPS)
    report(4, "type safety", len(rep.trials) >= 500 and bad == 0, f"{len(rep.trials)} programs, {bad} failures")


def test_criterion_5_context_and_lookup_duality(fuzz_corpus):
    rep, _ = fuzz_corpus
    for name, selected in GOLDEN_SELECTIONS.items():
        fails = [f for f in check_properties(load(name), selected, FUEL) if f.prop in DUALITY_PROPS]
        assert not fails, (name, fails)
    bad = sum(n for prop, n in rep.failures_by_prop().items() if prop in DUALITY_PROPS)
    report(5, "context and lookup duality", len(rep.trials) >= 500 and bad == 0, f"{bad} failures")


def test_criterion_6_type_directed_dispatch():
    oo_out = pretty(canonicalize(transform(load("setlist_oop"), {"Set"}).program))
    assert "contains(Insert(Empty(), 3))(3) && new Cons(4, new Nil()).contains(3)" in oo_out
    fp_out = pretty(canonicalize(transform(load("setlist_fp"), {"Set"}).program))
    assert "new Insert(new Empty(), 3).contains(3) && contains(Cons(4, Nil()))(3)" in fp_out
    ok = oo_out == (CORPUS / "expected" / "setlist_oop.sel_set.food").read_text() and fp_out == (
        CORPUS / "expected" / "setlist_fp.sel_set.food"
    ).read_text()
    report(6, "type-directed dispatch", ok)


def test_criterion_7_mutation_sensitivity():
    catching = ROUND_TRIP_PROPS | SEMANTICS_PROPS | TYPE_SAFETY_PROPS | DUALITY_PROPS
    plan = [
        ("swap-clause-bodies", "sets_oop", {"Set"}),
        ("swap-prim-operands", "exp_oop", {"Exp"}),
        ("drop-wildcard", "sets_oop", {"Set"}),
        ("rename-pattern-var", "sets_oop", {"Set"}),
        ("wrong-substitution-fp", "sets_oop", {"Set"}),
        ("wrong-substitution-oo", "sets_fp", {"Set"}),
        ("drop-consumer", "sets_oop", {"Set"}),
        ("swap-ctor-fields", "sets_oop", {"Set"}),
        ("flip-comparison", "sets_oop", {"Set"}),
        ("drop-override", "sets_fp", {"Set"}),
    ]
    assert len(plan) == 10
    missed = []
    for kind, name, selected in plan:
        fails = check_properties(load(name), selected, FUEL, mutate=MUTATORS[kind])
        if not ({f.prop for f in fails} & catching):
            missed.append(kind)
    report(7, "mutation sensitivity", not missed, f"10 mutants, missed: {missed or 'none'}")


def test_criterion_8_boolnorm_case_study():
    oo, fp = load("boolnorm_ctx_oop"), load("boolnorm_ctx_fp")
    selected = {"Context"}
    ok = canonicalize(transform(oo, selected).program) == canonicalize(fp)
    ok &= canonicalize(transform(fp, selected).program) == canonicalize(oo)
    for p in (oo, fp):
        once = transform(p, selected)
        twice = transform(once.program, selected)
        ok &= canonicalize(twice.program) == canonicalize(p)
    results = {name: eval_program(load(name), FUEL) for name in ("boolnorm_ctx_oop", "boolnorm_ctx_fp")}
    ok &= results["boolnorm_ctx_oop"] == results["boolnorm_ctx_fp"]
    ok &= results["boolnorm_ctx_oop"] == Done(IntV(-3))
    report(8, "boolean-formula normalizer port", ok)
