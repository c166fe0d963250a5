"""Program mutators, the test harness that checks the property battery has teeth.

This is mutation analysis: each mutator plants one fault in a transformed
program, and the tests plug it into ``check_properties(…, mutate=)`` or
``run_properties(…, mutate=)`` and expect some property to fail.  The package
ships no mutator; ``food`` itself never imports this module.

Each mutator changes the first place it applies to and returns the program
unchanged when there is none.  A rewriter returns None to pass on an item, or
the tuple of items that replace it (empty to delete it).
"""

from __future__ import annotations

from dataclasses import replace

from food.fuzz import _PARTS
from food.syntax import (
    SELF,
    THIS,
    Clause,
    Constructor,
    Consumer,
    Def,
    Dtr,
    Expr,
    Generator,
    Interface,
    Pattern,
    PrimOp,
    Program,
    Var,
    _nodes,
    children,
    subst,
    with_children,
)


def rewrite_first(e: Expr, fn) -> Expr | None:
    """``e`` with its first subexpression, in pre-order, that ``fn`` maps to an
    expression (not None) replaced by that expression; None if there is none."""
    stack = [(e, None)]  # (node, up): up is (parent, slot, the parent's up), None at e
    while stack:
        node, up = stack.pop()
        new = fn(node)
        if new is not None:
            while up is not None:
                parent, slot, up = up
                kids = children(parent)
                new = with_children(parent, (*kids[:slot], new, *kids[slot + 1 :]))
            return new
        stack.extend((kid, (node, i, up)) for i, kid in reversed(tuple(enumerate(children(node)))))
    return None


def _first(items: tuple, fn) -> tuple | None:
    for i, item in enumerate(items):
        new = fn(item)
        if new is not None:
            return items[:i] + new + items[i + 1 :]
    return None


def _first_def(program: Program, fn) -> Program:
    defs = _first(program.defs, fn)
    return program if defs is None else Program(defs, program.main)


def _first_clause(program: Program, fn) -> Program:
    """Rewrite the first consumer clause or method that ``fn(def, part)`` rewrites."""

    def in_def(d):
        attr = _PARTS.get(type(d))
        parts = attr and _first(getattr(d, attr), lambda part: fn(d, part))
        return None if parts is None else (replace(d, **{attr: parts}),)

    return _first_def(program, in_def)


def _first_prim(program: Program, op: str, fn) -> Program:
    """Rewrite the first ``op``, in pre-order, in a consumer clause to ``fn(lhs, rhs)``."""

    def at(e: Expr):
        return fn(e.lhs, e.rhs) if isinstance(e, PrimOp) and e.op == op else None

    def in_clause(d: Def, c):
        body = rewrite_first(c.body, at) if isinstance(c, Clause) else None
        return None if body is None else (Clause(c.pattern, body),)

    return _first_clause(program, in_clause)


def _resubst(kind: type, old: str, new: str):
    """Rewrite ``old`` to ``new`` in the first ``kind`` body that mentions it."""

    def rewrite(d, part):
        if isinstance(part, kind) and part.body is not None and Var(old) in _nodes(part.body, (Var,)):
            return (replace(part, body=subst(part.body, {old: Var(new)})),)
        return None

    return rewrite


def mutate_swap_clause_bodies(program: Program) -> Program:
    """Swap the bodies of the first two clauses of some consumer."""

    def fn(d: Def):
        if isinstance(d, Consumer) and len(d.clauses) >= 2:
            a, b, *rest = d.clauses
            return (replace(d, clauses=(Clause(a.pattern, b.body), Clause(b.pattern, a.body), *rest)),)
        return None

    return _first_def(program, fn)


def mutate_drop_wildcard(program: Program) -> Program:
    """Delete the wildcard clause of the first consumer that has one."""

    def fn(d: Def):
        if isinstance(d, Consumer) and any(c.pattern.is_wildcard for c in d.clauses) and len(d.clauses) > 1:
            return (replace(d, clauses=tuple(c for c in d.clauses if not c.pattern.is_wildcard)),)
        return None

    return _first_def(program, fn)


def mutate_wrong_substitution(program: Program) -> Program:
    """Rewrite self to this in the first consumer clause that mentions it."""
    return _first_clause(program, _resubst(Clause, SELF, THIS))


def mutate_wrong_substitution_oo(program: Program) -> Program:
    """Rewrite this to self in the first destructor body that mentions it."""
    return _first_clause(program, _resubst(Dtr, THIS, SELF))


def mutate_rename_pattern_var(program: Program) -> Program:
    """Rename the first bound pattern variable without touching the body."""

    def fn(d: Def, c):
        if isinstance(c, Clause) and c.pattern.vars:
            name, (first, *rest) = c.pattern.name, c.pattern.vars
            return (Clause(Pattern(name, ("z" + first, *rest)), c.body),)
        return None

    return _first_clause(program, fn)


def mutate_drop_consumer(program: Program) -> Program:
    """Delete the first consumer definition outright."""
    return _first_def(program, lambda d: () if isinstance(d, Consumer) else None)


def mutate_swap_ctor_fields(program: Program) -> Program:
    """Reverse the field list of the first constructor with two or more fields."""

    def fn(d: Def):
        if isinstance(d, Constructor) and len(d.fields) >= 2:
            return (replace(d, fields=d.fields[::-1]),)
        return None

    return _first_def(program, fn)


def mutate_flip_comparison(program: Program) -> Program:
    """Turn the first == in a consumer clause into <=."""
    return _first_prim(program, "==", lambda lhs, rhs: PrimOp("<=", lhs, rhs))


def mutate_swap_prim_operands(program: Program) -> Program:
    """Swap the operands of the first subtraction in a consumer clause."""
    return _first_prim(program, "-", lambda lhs, rhs: PrimOp("-", rhs, lhs))


def mutate_drop_override(program: Program) -> Program:
    """Remove the first generator method that overrides an interface default."""
    defaults = {
        (d.name, m.name) for d in program.defs if isinstance(d, Interface) for m in d.dtrs if m.body is not None
    }

    def fn(d: Def, m):
        return () if isinstance(d, Generator) and (d.parent, m.name) in defaults else None

    return _first_clause(program, fn)


MUTATORS = {
    "swap-clause-bodies": mutate_swap_clause_bodies,
    "drop-wildcard": mutate_drop_wildcard,
    "wrong-substitution-fp": mutate_wrong_substitution,
    "wrong-substitution-oo": mutate_wrong_substitution_oo,
    "rename-pattern-var": mutate_rename_pattern_var,
    "drop-consumer": mutate_drop_consumer,
    "swap-ctor-fields": mutate_swap_ctor_fields,
    "flip-comparison": mutate_flip_comparison,
    "swap-prim-operands": mutate_swap_prim_operands,
    "drop-override": mutate_drop_override,
}
