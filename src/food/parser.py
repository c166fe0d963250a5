"""Parser for the FOOD concrete syntax.

The lexer blanks each comment to spaces, which keeps every offset, line and
column, and then makes one ``re.split`` on a one-group pattern whose
commonest alternatives come first, giving the gaps (the whitespace between
tokens) and the token texts in turn, and a table of the kinds of the
source's distinct texts.  Tokens carry no position:
a token's line and column are worked out from the gap and text lengths only
where needed, for a diagnostic or a definition's position, through a cursor
that moves forward, so a whole parse stays linear.  Positions are 1-based.

Definitions are parsed by recursive descent, which nests only a fixed few
calls deep.  Expressions are parsed in one loop over an explicit stack of
frames (parentheses, argument lists, consumer receivers, the parts of an
if), each expression keeping its operands and operators on two lists
reduced by precedence (Pratt, "Top Down Operator Precedence", 1973).  The
loop is the recursive descent with its continuations defunctionalized, so
nesting depth costs heap, not Python frames.  Its allocations are the work
per token, so it makes few: ``true``, ``false`` and the integers 0..256 parse
to the value nodes ``syntax`` builds once at import, shared by every
occurrence and by the machine, a call waiting for its arguments is a tuple
of its node class and leading fields, and an expression's operand and
operator lists are made at its first operator.

Error recovery is per definition: after a syntax error the parser skips to
the next top-level definition keyword and keeps going, so one bad definition
yields one diagnostic.  A syntax error is a ``ParseError`` holding one
diagnostic at the offending token; the program collects them all into the one
it raises.  Clause order is ``wellformed.check``'s rule, not the parser's.
The tests compare this module against two oracles: the character-at-a-time
lexer ``tests/reference_lexer.py`` and the recursive-descent parser
``tests/reference_parser.py``.
"""

from __future__ import annotations

import re

from .diagnostics import Diagnostic, ParseError
from .syntax import (
    App,
    Clause,
    Constructor,
    Consumer,
    CtrCall,
    Datatype,
    Def,
    Dtr,
    Expr,
    FALSE,
    Generator,
    IDENT,
    If,
    INT64_MAX,
    IntLit,
    Interface,
    KEYWORDS,
    Named,
    New,
    OPERATORS,
    Param,
    Pattern,
    PREC,
    PrimOp,
    Program,
    RESERVED_BINDERS,
    RESERVED_TYPES,
    Sel,
    SMALL_INTS,
    TRUE,
    Type,
    Var,
    WILDCARD,
)

DEF_KEYWORDS = {"data", "interface", "case", "class", "def"}

_SYMBOLS = ["=>", "(", ")", "{", "}", ":", ",", ";", ".", "=", "_", *OPERATORS]

# re.split on its one group gives the gaps (whitespace, comments being
# blanked before the split) and token texts in turn.  The alternatives are
# tried in order, so the commonest come first: the one-character symbols that
# begin no longer symbol, as one class tried in one step, then identifiers,
# integers, the two-character symbols, and the one-character symbols that do
# begin one.  No character of the first class can begin an identifier, an
# integer or another symbol, so the order splits every text as the longest
# match would.  Integers are ASCII digits only: \d would also accept other
# decimal digits, such as '٣'.  \s is exactly str.isspace and \w exactly
# str.isalnum or '_'.  A lone underscore is the wildcard symbol, so an
# identifier (``syntax.IDENT``) starts with a letter.
_LONE = "".join(s for s in _SYMBOLS if len(s) == 1 and not any(t != s and t.startswith(s) for t in _SYMBOLS))
_TOKEN = re.compile(
    "([" + re.escape(_LONE) + "]|" + IDENT + "|[0-9]+|"
    + "".join(re.escape(s) + "|" for s in _SYMBOLS if len(s) > 1)
    + "[" + re.escape("".join(s for s in _SYMBOLS if len(s) == 1 and s not in _LONE)) + r"]|\S)"
)

_KIND = {**{s: s for s in _SYMBOLS}, **dict.fromkeys(KEYWORDS, "kw")}


def _line_start(src: str, begin: int, end: int, line: int, start: int) -> tuple[int, int]:
    """The line of ``end``, and the offset where it starts, from those of ``begin``."""
    newlines = src.count("\n", begin, end)
    if newlines:
        return line + newlines, src.rindex("\n", begin, end) + 1
    return line, start


def _kind(text: str) -> str | None:
    # [^\W\d_] also accepts characters such as '²' that are not letters
    return _KIND.get(text) or ("ident" if text[0].isalpha() else "int" if "0" <= text[0] <= "9" else None)


def _tokens(src: str) -> tuple[list[str | None], list[str], list[str]]:
    """The kinds, texts and gaps of the tokens of ``src``, ending with "eof".

    A kind is "ident", "int", "kw", the symbol itself, or None for a bad
    character.  Tokens carry no position: a token's offset is the length of
    every gap and text before it plus its own gap.  A comment is whitespace,
    blanked to as many spaces, so no offset moves; FOOD has no string literal
    and no token holding '/', so '//' always starts one.
    """
    if "//" in src:
        src = re.sub(r"//[^\n]*", lambda m: " " * len(m[0]), src)
    parts = _TOKEN.split(src)
    gaps, texts = parts[0::2], parts[1::2]
    table = {text: _kind(text) for text in set(texts)}
    kinds = list(map(table.__getitem__, texts))
    kinds.append("eof")
    texts.append("")
    return kinds, texts, gaps


# The frames of the expression loop, each waiting for one expression:
#   (_PAREN, vals, ops)             the inside of ( ... )
#   (_ARG, vals, ops, make, args)   the next argument of make[0](*make[1:], args), make
#                                   being the node's class and its leading fields
#   (_RECV, vals, ops, name)        the receiver of the consumer application name(...)
#   (_COND, vals, ops)              the condition of an if
#   (_THEN, vals, ops, cond)        its then branch
#   (_ELSE, vals, ops, cond, then)  its else branch
# vals and ops are the operands and operators of the enclosing expression.
_PAREN, _ARG, _RECV, _COND, _THEN, _ELSE = range(6)

_INT64_DIGITS = len(str(INT64_MAX))

# The literals of the commonest texts are the value nodes syntax shares, for
# 0..256 too; any other text, such as 007, builds its own.
_LITERALS = {"true": TRUE, "false": FALSE, **{str(n.value): n for n in SMALL_INTS if n.value >= 0}}


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.kinds, self.texts, self.gaps = _tokens(source)
        self.i = 0
        self.diags: list[Diagnostic] = []
        first = len(self.gaps[0])
        # (token, its offset, its line, the offset where that line starts)
        self._first = (0, first, *_line_start(source, 0, first, 1, 0))
        self._cursor = self._first
        if None in self.kinds:
            j = self.kinds.index(None)
            raise ParseError([Diagnostic(f"unexpected character {self.texts[j][0]!r}", *self.where(j))])

    # -- token helpers

    def where(self, j: int) -> tuple[int, int]:
        """The line and column of token j.

        The cursor moves forward from the last query, so the positions of a
        whole parse cost O(n) in total."""
        k, offset, line, start = self._cursor if self._cursor[0] <= j else self._first
        end = offset + sum(map(len, self.texts[k:j])) + sum(map(len, self.gaps[k + 1 : j + 1]))
        line, start = _line_start(self.src, offset, end, line, start)
        self._cursor = (j, end, line, start)
        return line, end - start + 1

    def next(self) -> int:
        """Consume the current token, unless it is eof, and return its index."""
        i = self.i
        if self.kinds[i] != "eof":
            self.i = i + 1
        return i

    def at(self, kind: str, text: str | None = None) -> bool:
        i = self.i
        return self.kinds[i] == kind and (text is None or self.texts[i] == text)

    def expected(self, what: str) -> ParseError:
        return self.fail(f"expected {what}, found {self.texts[self.i] or 'end of input'!r}")

    def expect(self, kind: str, what: str | None = None) -> int:
        """Consume a token of ``kind`` (never eof) and return its index."""
        i = self.i
        if self.kinds[i] != kind:
            raise self.expected(what or kind)
        self.i = i + 1
        return i

    def fail(self, message: str, j: int | None = None) -> ParseError:
        """The error at token j, by default the current one."""
        return ParseError([Diagnostic(message, *self.where(self.i if j is None else j))])

    def skip_separators(self) -> None:
        while self.at(";"):
            self.next()

    # -- identifiers

    def upper_ident(self, what: str) -> str:
        t = self.expect("ident", what)
        text = self.texts[t]
        if not text[0].isupper():
            raise self.fail(f"{what} must start with an uppercase letter", t)
        if text in RESERVED_TYPES:
            raise self.fail(f"{text} is a reserved type name", t)
        return text

    def lower_ident(self, what: str) -> str:
        t = self.expect("ident", what)
        text = self.texts[t]
        if not text[0].islower():
            raise self.fail(f"{what} must start with a lowercase letter", t)
        return text

    def binder(self, what: str) -> str:
        text = self.lower_ident(what)  # the reserved names are lowercase
        if text in RESERVED_BINDERS:
            raise self.fail(f"{text!r} is reserved and cannot be declared", self.i - 1)
        return text

    def keyword(self, text: str) -> None:
        """Consume the keyword ``text``; any other keyword is consumed too before the error."""
        kw = self.expect("kw", f"{text!r}")
        if self.texts[kw] != text:
            raise self.fail(f"expected {text!r}", kw)

    # -- types

    def type_(self) -> Type:
        t = self.expect("ident", "a type name")
        text = self.texts[t]
        if text in RESERVED_TYPES:
            return RESERVED_TYPES[text]
        if not text[0].isupper():
            raise self.fail("type name must start with an uppercase letter", t)
        return Named(text)

    # -- parameter lists

    def params(self) -> tuple[Param, ...]:
        self.expect("(")
        out: list[Param] = []
        while not self.at(")"):
            if out:
                self.expect(",")
            name = self.binder("parameter name")
            self.expect(":")
            out.append(Param(name, self.type_()))
        self.expect(")")
        return tuple(out)

    # -- definitions

    def program(self) -> Program:
        defs: list[Def] = []
        main: Expr | None = None
        self.skip_separators()
        while not self.at("eof"):
            if self.at("kw") and self.texts[self.i] in DEF_KEYWORDS:
                try:
                    defs.append(self.definition())
                except ParseError as exc:
                    self.diags += exc.diagnostics
                    self.recover()
            else:
                try:
                    main = self.expr()
                    self.skip_separators()
                    if not self.at("eof"):
                        raise self.fail(f"unexpected {self.texts[self.i]!r} after the main expression")
                except ParseError as exc:
                    self.diags += exc.diagnostics
                break
            self.skip_separators()
        if self.diags:
            raise ParseError(self.diags)
        if main is None:
            raise ParseError([Diagnostic("program must end with a main expression", *self.where(self.i))])
        return Program(tuple(defs), main)

    def recover(self) -> None:
        depth = 0
        while not self.at("eof"):
            kind = self.kinds[self.i]
            if kind == "{":
                depth += 1
            elif kind == "}":
                depth = max(0, depth - 1)
            elif depth == 0 and kind == "kw" and self.texts[self.i] in DEF_KEYWORDS:
                return
            self.next()

    def definition(self) -> Def:
        text = self.texts[self.i]
        pos = self.where(self.i)
        if text == "data":
            self.next()
            return Datatype(self.upper_ident("datatype name"), pos=pos)
        if text == "interface":
            self.next()
            name = self.upper_ident("interface name")
            return Interface(name, self.members(body_required=False), pos=pos)
        if text == "case":
            self.next()
            name = self.upper_ident("constructor name")
            fields = self.params()
            self.keyword("extends")
            return Constructor(name, fields, self.upper_ident("datatype name"), pos=pos)
        if text == "class":
            self.next()
            name = self.upper_ident("class name")
            fields = self.params()
            self.keyword("implements")
            parent = self.upper_ident("interface name")
            return Generator(name, fields, parent, self.members(body_required=True), pos=pos)
        self.next()  # def: the caller saw a definition keyword
        return self.consumer(pos)

    def members(self, body_required: bool) -> tuple[Dtr, ...]:
        """The braced block of ``def`` members of an interface or a class."""
        self.expect("{")
        out = []
        while not self.at("}"):
            out.append(self.dtr(body_required))
            self.skip_separators()
        self.expect("}")
        return tuple(out)

    def dtr(self, body_required: bool) -> Dtr:
        self.keyword("def")
        name = self.lower_ident("method name")
        params = self.params()
        self.expect(":")
        ret = self.type_()
        body = None
        if self.at("="):
            self.next()
            body = self.expr()
        elif body_required:
            raise self.fail(f"method {name!r} needs a body")
        return Dtr(name, params, ret, body)

    def consumer(self, pos: tuple[int, int]) -> Consumer:
        name = self.lower_ident("consumer name")
        self.expect("(")
        first = self.expect("ident", "'self'")
        if self.texts[first] != "self":
            raise self.fail("the first parameter of a consumer must be 'self'", first)
        self.expect(":")
        self_type = self.upper_ident("datatype name")
        self.expect(")")
        params = self.params()
        self.expect(":")
        ret = self.type_()
        self.expect("=")
        if self.at("kw", "match"):
            self.next()
            self.expect("{")
            clauses: list[Clause] = []
            while not self.at("}"):
                clauses.append(self.clause())
            self.expect("}")
            return Consumer(name, self_type, params, ret, clauses=tuple(clauses), pos=pos)
        # a bare body is sugar for one wildcard clause, the only form later layers see
        return Consumer(name, self_type, params, ret, clauses=(Clause(WILDCARD, self.expr()),), pos=pos)

    def clause(self) -> Clause:
        self.keyword("case")
        if self.at("_"):
            self.next()
            pattern = WILDCARD
        else:
            ctor = self.upper_ident("constructor name")
            self.expect("(")
            pvars: list[str] = []
            while not self.at(")"):
                if pvars:
                    self.expect(",")
                pvars.append(self.binder("pattern variable"))
            self.expect(")")
            pattern = Pattern(ctor, tuple(pvars))
        self.expect("=>")
        return Clause(pattern, self.expr())

    # -- expressions

    def expr(self) -> Expr:
        """One expression, parsed in a loop over an explicit stack of frames.

        This is the recursive descent expr -> binary(1..5) -> postfix ->
        primary with its continuations made data: each construct that waits
        for an inner expression pushes a frame, and each expression keeps its
        operands and operators in two lists, reduced by precedence.  So an
        atom costs one step of the loop and nesting costs no Python frames.
        On an error, self.i is where the recursive descent would have been.
        """
        kinds, texts = self.kinds, self.texts
        i = self.i
        stack: list[tuple] = []
        # the operands before atom, and the operators between them in rising
        # precedence: two lists, or () until the expression's first operator
        vals: list[Expr] | tuple = ()
        ops: list[str] | tuple = ()
        atom: Expr | None = None
        make = None  # set where an argument list opens: the class and leading fields of its node
        while True:
            if make is not None:
                if kinds[i] != "(":
                    self.i = i
                    raise self.expected("(")
                i += 1
                if kinds[i] == ")":
                    atom = make[0](*make[1:], ())
                    i += 1
                else:
                    stack.append((_ARG, vals, ops, make, []))
                    vals = ops = ()
                make = None
            if atom is None:  # at the start of an operand
                k = kinds[i]
                if k == "ident":
                    name = texts[i]
                    i += 1
                    if name[0].isupper():
                        if name in RESERVED_TYPES:
                            self.i = i - 1
                            raise self.fail(f"{name} is a type, not an expression")
                        make = (CtrCall, name)
                        continue
                    if kinds[i] == "(":
                        if name in RESERVED_BINDERS:
                            self.i = i
                            raise self.fail(f"{name!r} cannot be applied", i - 1)
                        stack.append((_RECV, vals, ops, name))
                        vals = ops = ()
                        i += 1
                        continue
                    atom = Var(name)
                elif k == "(":
                    stack.append((_PAREN, vals, ops))
                    vals = ops = ()
                    i += 1
                    continue
                elif k == "int":
                    text = texts[i]
                    i += 1
                    atom = _LITERALS.get(text)
                    if atom is None:
                        digits = text.lstrip("0") or "0"
                        # source literals are never negative, so only the upper bound applies
                        if len(digits) > _INT64_DIGITS or int(digits) > INT64_MAX:
                            self.i = i
                            raise self.fail("integer literal does not fit in 64 bits", i - 1)
                        atom = IntLit(int(digits))
                elif k == "kw" and texts[i] in _LITERALS:  # true or false
                    atom = _LITERALS[texts[i]]
                    i += 1
                elif k == "kw" and texts[i] == "new":
                    self.i = i + 1
                    make = (New, self.upper_ident("class name"))
                    i = self.i
                    continue
                elif k == "kw" and texts[i] == "if" and not vals:  # if starts an expression
                    self.i = i + 1
                    self.expect("(")
                    i = self.i
                    stack.append((_COND, vals, ops))
                    vals = ops = ()
                    continue
                else:
                    self.i = i
                    raise self.expected("an expression")
            else:  # after an operand
                k = kinds[i]
                if k == ".":
                    self.i = i + 1
                    make = (Sel, atom, self.lower_ident("method name"))
                    i = self.i
                    atom = None
                    continue
                prec = PREC.get(k)
                if prec:
                    if ops:
                        while ops and PREC[ops[-1]] >= prec:
                            atom = PrimOp(ops.pop(), vals.pop(), atom)
                        vals.append(atom)
                        ops.append(k)
                    else:  # the expression's first operator
                        vals, ops = [atom], [k]
                    atom = None
                    i += 1
                    continue
                # the expression ends: reduce it, and hand it to the frame below
                while ops:
                    atom = PrimOp(ops.pop(), vals.pop(), atom)
                if not stack:
                    self.i = i
                    return atom
                frame = stack.pop()
                tag = frame[0]
                if tag is _ARG:
                    frame[4].append(atom)
                    if k == ",":
                        stack.append(frame)
                        vals = ops = ()
                        atom = None
                        i += 1
                        continue
                    if k != ")":
                        self.i = i
                        raise self.expected(",")
                    vals, ops = frame[1], frame[2]
                    built = frame[3]
                    atom = built[0](*built[1:], tuple(frame[4]))
                    i += 1
                    continue
                if tag is _THEN:
                    self.i = i
                    self.keyword("else")
                    i = self.i
                    stack.append((_ELSE, frame[1], frame[2], frame[3], atom))
                    vals = ops = ()
                    atom = None
                    continue
                if tag is _ELSE:  # the if is the whole expression, so nothing can follow it
                    vals, ops = frame[1], frame[2]
                    atom = If(frame[3], frame[4], atom)
                    continue
                # the other frames wait for a closing parenthesis
                if k != ")":
                    self.i = i
                    raise self.expected(")")
                i += 1
                if tag is _COND:
                    stack.append((_THEN, frame[1], frame[2], atom))
                    vals = ops = ()
                    atom = None
                    continue
                vals, ops = frame[1], frame[2]
                # the second argument list of an application must open on the
                # same line; this keeps a following parenthesized expression
                # from being swallowed as extra arguments
                if tag is _RECV and kinds[i] == "(" and "\n" not in self.gaps[i]:
                    make = (App, frame[3], atom)
                    atom = None
                elif tag is _RECV:
                    atom = App(frame[3], atom, ())
                # a parenthesized expression is an operand of the one around it


def parse(source: str) -> Program:
    """Parse FOOD source text; raises ParseError carrying all diagnostics."""
    return _Parser(source).program()
