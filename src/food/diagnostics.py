"""Diagnostics and error types shared by every pipeline stage.

``at`` is the one rule that places a diagnostic: at a ``(line, column)``, or at
0:0, which renders as the bare message, when there is no position.
"""

from __future__ import annotations

from .syntax import node


@node
class Diagnostic:
    """A message anchored to a 1-based source position (0 when unknown)."""

    message: str
    line: int = 0
    column: int = 0

    def render(self) -> str:
        if self.line > 0:
            return f"{self.line}:{self.column}: {self.message}"
        return self.message


def at(message: str, pos: tuple[int, int] | None) -> Diagnostic:
    """``message`` at ``pos``, or at 0:0 when there is no position."""
    return Diagnostic(message) if pos is None else Diagnostic(message, *pos)


class FoodError(Exception):
    """Base for pipeline failures; carries the diagnostics that caused it."""

    def __init__(self, diagnostics: list[Diagnostic] | tuple[Diagnostic, ...]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


class ParseError(FoodError):
    """Lexical or grammatical rejection of source text."""


class ContextError(FoodError):
    """Global-context construction failed (duplicates, unknown parents)."""


class TransformError(FoodError):
    """Type-directed translation rejected the program."""
