"""The recursive-descent parser, kept as a test-only reference.

It parses expressions with one Python call per precedence level and nesting
level (``expr`` -> ``binary(1..5)`` -> ``postfix`` -> ``primary``), so it
raises ``RecursionError`` on deeply nested input.  It reads the tokens of the
character-at-a-time reference lexer, whose ``Token`` has the fields
(``kind``, ``text``, ``line``, ``column``) it uses.  Tests compare
``food.parser.parse`` against it: equal trees, or equal diagnostics.
"""

from __future__ import annotations

from reference_lexer import Token
from reference_lexer import tokens as reference_tokens

from food.diagnostics import Diagnostic, ParseError
from food.syntax import (
    App,
    BOOL,
    BoolLit,
    Clause,
    Constructor,
    Consumer,
    CtrCall,
    Datatype,
    Def,
    Dtr,
    Expr,
    Generator,
    If,
    INT,
    IntLit,
    Interface,
    Named,
    New,
    Param,
    Pattern,
    PrimOp,
    Program,
    RESERVED_BINDERS,
    Sel,
    Type,
    Var,
    WILDCARD,
)

DEF_KEYWORDS = {"data", "interface", "case", "class", "def"}

_INT64_MAX = 2**63 - 1


class _Fail(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.diags: list[Diagnostic] = []

    # -- token helpers

    def peek(self) -> Token:
        return self.toks[self.i]  # next() never advances past eof

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise _Fail(Diagnostic(f"expected {what or kind}, found {t.text or 'end of input'!r}", t.line, t.column))
        return self.next()

    def fail(self, message: str, tok: Token | None = None) -> _Fail:
        t = tok or self.peek()
        return _Fail(Diagnostic(message, t.line, t.column))

    def skip_separators(self) -> None:
        while self.at(";"):
            self.next()

    # -- identifiers

    def upper_ident(self, what: str) -> str:
        t = self.expect("ident", what)
        if not t.text[0].isupper():
            raise self.fail(f"{what} must start with an uppercase letter", t)
        if t.text in ("Int", "Bool"):
            raise self.fail(f"{t.text} is a reserved type name", t)
        return t.text

    def lower_ident(self, what: str) -> str:
        t = self.expect("ident", what)
        if not t.text[0].islower():
            raise self.fail(f"{what} must start with a lowercase letter", t)
        return t.text

    def binder(self, what: str) -> str:
        t = self.expect("ident", what)
        if t.text in RESERVED_BINDERS:
            raise self.fail(f"{t.text!r} is reserved and cannot be declared", t)
        if not t.text[0].islower():
            raise self.fail(f"{what} must start with a lowercase letter", t)
        return t.text

    # -- types

    def type_(self) -> Type:
        t = self.expect("ident", "a type name")
        if t.text == "Int":
            return INT
        if t.text == "Bool":
            return BOOL
        if not t.text[0].isupper():
            raise self.fail("type name must start with an uppercase letter", t)
        return Named(t.text)

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
            if self.peek().kind == "kw" and self.peek().text in DEF_KEYWORDS:
                try:
                    defs.append(self.definition())
                except _Fail as f:
                    self.diags.append(f.diagnostic)
                    self.recover()
            else:
                try:
                    main = self.expr()
                    self.skip_separators()
                    if not self.at("eof"):
                        t = self.peek()
                        raise self.fail(f"unexpected {t.text!r} after the main expression", t)
                except _Fail as f:
                    self.diags.append(f.diagnostic)
                break
            self.skip_separators()
        if self.diags:
            raise ParseError(self.diags)
        if main is None:
            t = self.peek()
            raise ParseError([Diagnostic("program must end with a main expression", t.line, t.column)])
        return Program(tuple(defs), main)

    def recover(self) -> None:
        depth = 0
        while not self.at("eof"):
            t = self.peek()
            if t.kind == "{":
                depth += 1
            elif t.kind == "}":
                depth = max(0, depth - 1)
            elif depth == 0 and t.kind == "kw" and t.text in DEF_KEYWORDS:
                return
            self.next()

    def definition(self) -> Def:
        t = self.peek()
        pos = (t.line, t.column)
        if t.text == "data":
            self.next()
            return Datatype(self.upper_ident("datatype name"), pos=pos)
        if t.text == "interface":
            self.next()
            name = self.upper_ident("interface name")
            self.expect("{")
            dtrs = []
            while not self.at("}"):
                dtrs.append(self.dtr(body_required=False))
                self.skip_separators()
            self.expect("}")
            return Interface(name, tuple(dtrs), pos=pos)
        if t.text == "case":
            self.next()
            name = self.upper_ident("constructor name")
            fields = self.params()
            kw = self.expect("kw", "'extends'")
            if kw.text != "extends":
                raise self.fail("expected 'extends'", kw)
            return Constructor(name, fields, self.upper_ident("datatype name"), pos=pos)
        if t.text == "class":
            self.next()
            name = self.upper_ident("class name")
            fields = self.params()
            kw = self.expect("kw", "'implements'")
            if kw.text != "implements":
                raise self.fail("expected 'implements'", kw)
            parent = self.upper_ident("interface name")
            self.expect("{")
            funs = []
            while not self.at("}"):
                funs.append(self.dtr(body_required=True))
                self.skip_separators()
            self.expect("}")
            return Generator(name, fields, parent, tuple(funs), pos=pos)
        if t.text == "def":
            self.next()
            return self.consumer(pos)
        raise self.fail(f"expected a definition, found {t.text!r}", t)

    def dtr(self, body_required: bool) -> Dtr:
        kw = self.expect("kw", "'def'")
        if kw.text != "def":
            raise self.fail("expected 'def'", kw)
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
        if first.text != "self":
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
        return Consumer(name, self_type, params, ret, clauses=(Clause(WILDCARD, self.expr()),), pos=pos)

    def clause(self) -> Clause:
        kw = self.expect("kw", "'case'")
        if kw.text != "case":
            raise self.fail("expected 'case'", kw)
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
        if self.at("kw", "if"):
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.expr()
            kw = self.expect("kw", "'else'")
            if kw.text != "else":
                raise self.fail("expected 'else'", kw)
            return If(cond, then, self.expr())
        return self.binary(1)

    _BINARY = {1: ("||",), 2: ("&&",), 3: ("==", "<=", "<"), 4: ("+", "-"), 5: ("*",)}

    def binary(self, level: int) -> Expr:
        if level > 5:
            return self.postfix()
        e = self.binary(level + 1)
        while self.peek().kind in self._BINARY[level]:
            op = self.next().text
            e = PrimOp(op, e, self.binary(level + 1))
        return e

    def postfix(self) -> Expr:
        e = self.primary()
        while self.at("."):
            self.next()
            name = self.lower_ident("method name")
            e = Sel(e, name, self.arg_list())
        return e

    def arg_list(self) -> tuple[Expr, ...]:
        self.expect("(")
        args: list[Expr] = []
        while not self.at(")"):
            if args:
                self.expect(",")
            args.append(self.expr())
        self.expect(")")
        return tuple(args)

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            digits = t.text.lstrip("0") or "0"
            # source literals are never negative, so only the upper bound applies
            if len(digits) > len(str(_INT64_MAX)) or int(digits) > _INT64_MAX:
                raise self.fail("integer literal does not fit in 64 bits", t)
            return IntLit(int(digits))
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return BoolLit(t.text == "true")
        if t.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "kw" and t.text == "new":
            self.next()
            name = self.upper_ident("class name")
            return New(name, self.arg_list())
        if t.kind == "ident":
            if t.text[0].isupper():
                if t.text in ("Int", "Bool"):
                    raise self.fail(f"{t.text} is a type, not an expression", t)
                self.next()
                return CtrCall(t.text, self.arg_list())
            self.next()
            if self.at("("):
                if t.text in RESERVED_BINDERS:
                    raise self.fail(f"{t.text!r} cannot be applied", t)
                self.expect("(")
                recv = self.expr()
                close = self.expect(")")
                args: tuple[Expr, ...] = ()
                # the second argument list must open on the same line; this
                # keeps a following parenthesized expression from being
                # swallowed as extra arguments
                if self.at("(") and self.peek().line == close.line:
                    args = self.arg_list()
                return App(t.text, recv, args)
            return Var(t.text)
        raise self.fail(f"expected an expression, found {t.text or 'end of input'!r}", t)


def parse(source: str) -> Program:
    """Parse FOOD source text; raises ParseError carrying all diagnostics."""
    return _Parser(reference_tokens(source)).program()
