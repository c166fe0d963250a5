"""Concrete-syntax parsing and diagnostics."""

import functools
import random
import sys

import pytest
import reference_parser
from conftest import CORPUS, corpus_text, generated
from reference_lexer import tokens as reference_tokens

from food import ParseError, parse, pretty
from food.fuzz import GenConfig
from food.parser import _Parser, _tokens
from food.syntax import (
    KEYWORDS,
    is_identifier,
    App,
    BoolLit,
    Consumer,
    CtrCall,
    Generator,
    If,
    IntLit,
    Interface,
    New,
    OPERATORS,
    PrimOp,
    Sel,
    Var,
)


def test_parse_set_interface_program_has_four_definitions():
    p = parse(corpus_text("sets_oop"))
    assert len(p.defs) == 4
    assert isinstance(p.defs[0], Interface)
    assert all(isinstance(d, Generator) for d in p.defs[1:])
    assert [d.name for d in p.defs] == ["Set", "Empty", "Insert", "Union"]


def test_parse_bare_variable_program():
    p = parse("x")
    assert p.defs == ()
    assert p.main == Var("x")


def test_wildcard_must_be_last():
    # the rule is the checker's, so the parser keeps the clauses in source order
    src = "def f(self: D)(): Bool = match { case _ => true case C() => false }\nx"
    (consumer,) = parse(src).defs
    assert [c.pattern.name for c in consumer.clauses] == [None, "C"]


@pytest.mark.parametrize(
    "src",
    [
        "def f(self: D)(this: Int): Int = 1\nx",
        "def f(self: D)(): Bool = match { case C(self) => true }\nx",
        "case C(this: Int) extends D\nx",
        "class C(self: Int) implements D {}\nx",
        "interface D { def f(self: Int): Int }\nx",
    ],
)
def test_reserved_binders_rejected(src):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert any("reserved" in d.message for d in exc.value.diagnostics)


def test_diagnostics_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse("data Set\ndata 7\nx")
    d = exc.value.diagnostics[0]
    assert (d.line, d.column) == (2, 6)


def test_lexer_accepts_only_ascii_digits():
    with pytest.raises(ParseError) as exc:
        parse("1 + 2\u00b2")
    d = exc.value.diagnostics[0]
    assert "unexpected character '\u00b2'" in d.message
    assert (d.line, d.column) == (1, 6)


def test_integer_literals_fit_in_64_bits():
    assert parse("9223372036854775807").main == IntLit(2**63 - 1)
    assert parse("007").main == IntLit(7)
    for src in ("9223372036854775808", "99999999999999999999999 + 0", "1" * 5000):
        with pytest.raises(ParseError) as exc:
            parse(src)
        d = exc.value.diagnostics[0]
        assert "does not fit in 64 bits" in d.message
        assert (d.line, d.column) == (1, 1)


def test_is_identifier_is_what_the_lexer_reads_as_one_identifier():
    # the checker judges declared names by syntax.is_identifier: it must agree
    # with the lexer's tokens on every character, alone and after a letter
    def one_token(text):
        kinds, texts, _ = _tokens(text)
        return kinds in (["ident", "eof"], ["kw", "eof"]) and texts[0] == text

    texts = ["", "a b", "_a", "a_", "1a", *KEYWORDS, *(t for cp in range(0x10000) for t in (chr(cp), "a" + chr(cp)))]
    found = [t for t in texts if is_identifier(t) != one_token(t)]
    assert found == [] and sum(map(is_identifier, texts)) > 40_000


def test_common_literals_are_shared_nodes():
    # true, false and 0..256 map to nodes built once; any other integer text
    # builds its own node, equal to the one its value gives
    for text in ("0", "256", "true", "false"):
        first = parse(f"f(x)({text}, {text})").main.args
        assert first[0] is first[1] is parse(text).main
    assert parse("007").main == IntLit(7) and parse("257").main == IntLit(257)


def test_recovery_reports_one_error_per_definition():
    src = "data 1\ndata Set\nclass C() implements\nx"
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert len(exc.value.diagnostics) == 2


def test_missing_main_expression():
    with pytest.raises(ParseError) as exc:
        parse("data Set")
    assert any("main expression" in d.message for d in exc.value.diagnostics)


def test_zero_argument_selection_requires_parens():
    with pytest.raises(ParseError):
        parse("new Empty().isEmpty")
    p = parse("new Empty().isEmpty()")
    assert p.main == Sel(New("Empty", ()), "isEmpty", ())


def test_consumer_application_forms():
    assert parse("isEmpty(s)").main == App("isEmpty", Var("s"), ())
    assert parse("isEmpty(s)()").main == App("isEmpty", Var("s"), ())
    assert parse("contains(s)(3)").main == App("contains", Var("s"), (IntLit(3),))
    with pytest.raises(ParseError):
        parse("f()")


def test_second_argument_list_must_open_on_same_line():
    # a parenthesized main expression after a one-list application is not a
    # second argument list
    src = "def g(self: D)(): Bool = f(self)\n(1 + 2) < 3"
    p = parse(src)
    consumer = p.defs[0]
    assert isinstance(consumer, Consumer)
    assert consumer.clauses[0].body == App("f", Var("self"), ())
    assert isinstance(p.main, PrimOp)


def test_operator_precedence_and_associativity():
    assert parse("1 + 2 * 3").main == PrimOp("+", IntLit(1), PrimOp("*", IntLit(2), IntLit(3)))
    assert parse("1 - 2 - 3").main == PrimOp("-", PrimOp("-", IntLit(1), IntLit(2)), IntLit(3))
    assert parse("a || b && c").main == PrimOp("||", Var("a"), PrimOp("&&", Var("b"), Var("c")))
    assert parse("1 + 2 <= 3 && true").main == PrimOp(
        "&&", PrimOp("<=", PrimOp("+", IntLit(1), IntLit(2)), IntLit(3)), BoolLit(True)
    )
    assert parse("(1 + 2) * 3").main == PrimOp("*", PrimOp("+", IntLit(1), IntLit(2)), IntLit(3))


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_each_operator_lexes_glued_to_its_operands_as_one_token(op):
    # the lexer reads its operator spellings from the operator table
    for lhs, rhs, kind in (("a", "b", "ident"), ("1", "2", "int")):
        assert _tokens(lhs + op + rhs) == ([kind, op, kind, "eof"], [lhs, op, rhs, ""], ["", "", "", ""])


def test_if_expression_nests_and_parenthesizes():
    p = parse("if (a) 1 else 2 + 3")
    assert p.main == If(Var("a"), IntLit(1), PrimOp("+", IntLit(2), IntLit(3)))
    q = parse("1 + (if (a) 2 else 3)")
    assert q.main == PrimOp("+", IntLit(1), If(Var("a"), IntLit(2), IntLit(3)))


def test_comments_and_separators():
    src = "// leading comment\ndata Set // trailing\n; ;\ncase Empty() extends Set\nEmpty()"
    p = parse(src)
    assert [d.name for d in p.defs] == ["Set", "Empty"]
    assert p.main == CtrCall("Empty", ())


def test_reserved_type_names():
    with pytest.raises(ParseError):
        parse("data Int\nx")
    with pytest.raises(ParseError):
        parse("data Bool\nx")


def test_constructor_reference_requires_arguments():
    with pytest.raises(ParseError):
        parse("Empty")


def test_accepted_inputs_carry_no_diagnostics():
    # parse either returns a Program or raises; a returned Program is clean
    p = parse(corpus_text("setlist_fp"))
    assert p is not None


# ---------------------------------------------------------------------------
# The split lexer against the character-at-a-time reference, and the
# explicit-stack parser against the recursive-descent reference.


@functools.cache
def generated_sources() -> tuple[str, ...]:
    """pretty(gen_program(...)) for seeds 0..1999, in both styles."""
    return tuple(
        pretty(generated(GenConfig(seed=seed, style_mix=style_mix)))
        for seed in range(2000)
        for style_mix in (0.0, 1.0)
    )


def diagnostics(exc):
    return ("error", [(d.message, d.line, d.column) for d in exc.diagnostics])


def lexed(src):
    """food.parser's tokens as (kind, text, line, column), or the error's diagnostics."""
    try:
        p = _Parser(src)
    except ParseError as exc:
        return diagnostics(exc)
    return [(kind, text, *p.where(j)) for j, (kind, text) in enumerate(zip(p.kinds, p.texts))]


def reference_lexed(src):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in reference_tokens(src)]
    except ParseError as exc:
        return diagnostics(exc)


def assert_lexes_as_reference(src):
    assert lexed(src) == reference_lexed(src), src


def parsed(parse_fn, src):
    """The program and its definitions' positions, or the error's diagnostics."""
    try:
        p = parse_fn(src)
    except ParseError as exc:
        return diagnostics(exc)
    return p, [d.pos for d in p.defs]


def assert_parses_as_reference(src):
    """Compare with the reference; False, with nothing compared, where the
    reference runs out of recursion depth."""
    try:
        expected = parsed(reference_parser.parse, src)
    except RecursionError:
        return False
    assert parsed(parse, src) == expected, src
    return True


def test_lexer_matches_reference_on_corpus():
    for path in sorted(CORPUS.glob("*.food")):
        assert_lexes_as_reference(path.read_text())


def test_lexer_matches_reference_on_generated_programs():
    for src in generated_sources()[:1000]:
        assert_lexes_as_reference(src)


HOSTILE_SOURCES = [
    "",
    "x //",
    "//",
    "x\n//",
    "/",
    "a / b",
    "\u00b2",
    "x\u00b2",
    "1 + 2\u00b2",
    "_x",
    "_",
    "x_1 _ y",
    "12abc",
    "007",
    "\u0663",
    "1\u0663",
    "a\r\nb\r\n c",
    "a\u2028b\n c",
    "a\x85b\x0b\x0c\x1c\n  d",
    "\n\n\n   x",
    "x\n  \u00b2",
    "==>=<=<&&||&|",
    "caf\u00e9 \u00e9t\u00e9 \u03bb",
    "data Set // \u00b2 in a comment\n\u00b2",
    "x // \r\x0b\u2028\x85\n  $",
    "1 ///2\n/",
    "a //\n\n // b\n\u00b2",
]


@pytest.mark.parametrize("src", HOSTILE_SOURCES)
def test_lexer_matches_reference_on_hostile_input(src):
    assert_lexes_as_reference(src)


def test_parser_matches_reference_on_corpus():
    for path in sorted(CORPUS.glob("*.food")):
        assert assert_parses_as_reference(path.read_text())


@pytest.mark.parametrize(
    "src",
    HOSTILE_SOURCES
    + ["f(a,)", "f(x)\n(1)", "1 + if (a) 1 else 2", "if (a) 1 else 2 + 3"]
    + ["1 + Int", "this(x)", "new s()", "x.G()", "(1", "f(x", "f(x)(1", "if x", "a < b < c", "x.f(1 2)"]
    + ["def f(self: D)(): Int = if (a) 1 case 1\nx", "data D; case C(x: Int) extends D\nC(1).x"],
)
def test_parser_matches_reference_on_hostile_input(src):
    assert assert_parses_as_reference(src)


def test_parser_matches_reference_on_generated_programs():
    for src in generated_sources():
        assert assert_parses_as_reference(src)


# comments, put after the last token of a line or of the input: two in a row,
# one holding a character that is no letter or ASCII digit, and empty ones
COMMENTS = ("// a note", "// a\n// b", " // \u00b2 \u0663", "//")


def commented(src: str, seed: int) -> str:
    """src with comments at one to three seeded line ends, the end of input among them."""
    rng = random.Random(seed)
    ends = [at for at, c in enumerate(src) if c == "\n"] + [len(src)]
    for at in sorted(rng.sample(ends, min(len(ends), rng.randint(1, 3))), reverse=True):
        src = src[:at] + rng.choice(COMMENTS) + src[at:]
    return src


def test_comments_at_line_ends_change_nothing():
    sources = generated_sources()
    for seed in range(500):
        plain = sources[seed * 7 % len(sources)]
        src = commented(plain, seed)
        assert_lexes_as_reference(src)
        assert assert_parses_as_reference(src)
        assert parse(src) == parse(plain), src


@pytest.mark.parametrize(
    "src, plain",
    [
        ("x // a\n// b\n", "x"),
        ("f(1) // no newline at the end", "f(1)"),
        ("1 + // \u00b2\n2", "1 + 2"),
        ("f(x) // c\n(1)", "f(x)\n(1)"),
        ("f(x) // c (1)", "f(x)"),
        ("f(x)(// c\n1)", "f(x)(1)"),
    ],
)
def test_comment_cases_lex_and_parse_as_without_them(src, plain):
    assert_lexes_as_reference(src)
    assert assert_parses_as_reference(src)
    assert parsed(parse, src) == parsed(parse, plain)


# the characters an edit inserts: some of every token kind, and those of the
# keywords that open expressions
MUTANT_ALPHABET = "(),.=+*<-_;{}:x1 \nif else new S"


def mutant(src: str, seed: int) -> str:
    """src after one to three single-character deletions, insertions or replacements."""
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(src) + 1)
        c = rng.choice(MUTANT_ALPHABET)
        src = rng.choice((src[:at] + src[at + 1 :], src[:at] + c + src[at:], src[:at] + c + src[at + 1 :]))
    return src


def test_parser_matches_reference_on_mutants():
    sources = generated_sources()
    checked = sum(assert_parses_as_reference(mutant(sources[seed % len(sources)], seed)) for seed in range(5000))
    assert checked >= 4990


def test_lexer_matches_reference_on_every_word_or_space_character():
    for c in map(chr, range(sys.maxunicode + 1)):
        if c.isascii() or c.isspace() or c.isalnum():
            assert_lexes_as_reference(f"a{c}1")
