"""The character-at-a-time lexer, kept as a test-only reference.

It advances one character at a time, testing each with the ``str`` predicates
(``isspace``, ``isalpha``, ``isalnum``) and keeping its line and column as it
goes.  Tests compare ``food.parser``'s regular-expression lexer against it.
Its keywords, symbols and token record are its own copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from food.diagnostics import Diagnostic, ParseError

KEYWORDS = {
    "data",
    "interface",
    "case",
    "class",
    "def",
    "extends",
    "implements",
    "new",
    "match",
    "if",
    "else",
    "true",
    "false",
}

# only ASCII digits: str.isdigit also accepts characters such as '²' that
# int() rejects
_DIGITS = frozenset("0123456789")

_SYMBOLS = ["=>", "==", "<=", "&&", "||", "(", ")", "{", "}", ":", ",", ";", ".", "=", "<", "+", "-", "*", "_"]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "kw", or the symbol itself
    text: str
    line: int
    column: int


class _Lexer:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.src) and self.src[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def tokens(self) -> list[Token]:
        out = []
        src = self.src
        while self.pos < len(src):
            c = src[self.pos]
            if c.isspace():
                self._advance()
                continue
            if src.startswith("//", self.pos):
                while self.pos < len(src) and src[self.pos] != "\n":
                    self._advance()
                continue
            line, col = self.line, self.col
            if c in _DIGITS:
                start = self.pos
                while self.pos < len(src) and src[self.pos] in _DIGITS:
                    self._advance()
                out.append(Token("int", src[start : self.pos], line, col))
                continue
            if c.isalpha():
                start = self.pos
                while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
                    self._advance()
                text = src[start : self.pos]
                out.append(Token("kw" if text in KEYWORDS else "ident", text, line, col))
                continue
            for sym in _SYMBOLS:
                if src.startswith(sym, self.pos):
                    # a lone underscore is the wildcard; _x would be an ident,
                    # but identifiers must start with a letter
                    self._advance(len(sym))
                    out.append(Token(sym, sym, line, col))
                    break
            else:
                raise ParseError([Diagnostic(f"unexpected character {c!r}", line, col)])
        out.append(Token("eof", "", self.line, self.col))
        return out


def tokens(source: str) -> list[Token]:
    return _Lexer(source).tokens()
