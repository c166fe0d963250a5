"""Pretty-printing of FOOD programs back to concrete syntax.

``parse(pretty(p))`` is structurally equal to ``p`` for any program free of
runtime objects; the fuzz suite exercises that round trip.  Expressions print
at any depth, by one rule per form over ``syntax.fold``.
"""

from __future__ import annotations

from functools import partial

from .syntax import (
    App,
    Arrow,
    BoolLit,
    BoolT,
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
    IntLit,
    IntT,
    Interface,
    Named,
    New,
    Obj,
    Param,
    PREC,
    PrimOp,
    Program,
    Sel,
    Type,
    Var,
    fold,
)

# Precedence levels, loosest first, with the binary operators' ``PREC``
# between them.  A child is parenthesized whenever its level is below the
# minimum its position demands.
_IF = 0
_POSTFIX = 6


def pretty_type(t: Type) -> str:
    match t:
        case Named(name):
            return name
        case IntT():
            return "Int"
        case BoolT():
            return "Bool"
        case Arrow(params, ret):
            return "(" + ", ".join(pretty_type(p) for p in params) + ") -> " + pretty_type(ret)
    raise ValueError(f"unknown type {type(t).__name__}")


def pretty_expr(e: Expr, *, runtime: bool = False) -> str:
    """Render one expression; with ``runtime`` set, objects print as obj(...)."""
    out, todo = [], [fold(e, partial(_text, runtime))[0]]
    while todo:  # the text is a tree of strings, flattened here in order
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            todo.extend(reversed(piece))
    return "".join(out)


# A rule's text is a string or a sequence of texts, so no level copies its
# children's text: joined level by level, a chain n deep prints in n^2 time.
def _at(kid: tuple, prec: int):
    """A child's text, parenthesized when its level is below ``prec``."""
    text, level = kid
    return text if level >= prec else ("(", text, ")")


def _args(kids: list[tuple]) -> list:
    pieces = [piece for text, _ in kids for piece in (", ", text)]
    return ["(", *pieces[1:], ")"]


def _text(runtime: bool, e: Expr, kids: list[tuple]) -> tuple:
    """The text and precedence level of ``e``, given those of its children."""
    cls = type(e)
    if cls is Var:
        return e.name, _POSTFIX
    if cls is IntLit:
        return str(e.value), _POSTFIX
    if cls is Sel:
        return (_at(kids[0], _POSTFIX), ".", e.name, _args(kids[1:])), _POSTFIX
    if cls is App:
        return (e.name, "(", kids[0][0], ")", _args(kids[1:]) if e.args else ""), _POSTFIX
    if cls is PrimOp:
        prec = PREC[e.op]
        return (_at(kids[0], prec), f" {e.op} ", _at(kids[1], prec + 1)), prec
    if cls is CtrCall:
        return (e.name, _args(kids)), _POSTFIX
    if cls is New:
        return ("new ", e.name, _args(kids)), _POSTFIX
    if cls is BoolLit:
        return ("true" if e.value else "false"), _POSTFIX
    if cls is If:
        return ("if (", kids[0][0], ") ", kids[1][0], " else ", kids[2][0]), _IF
    if cls is Obj:
        if not runtime:
            raise ValueError("runtime object is not printable source")
        return ("obj(", e.name, *[(", ", text) for text, _ in kids], ")"), _POSTFIX
    raise ValueError(f"unknown expression {cls.__name__}")


def _params(params: tuple[Param, ...]) -> str:
    return "(" + ", ".join(f"{p.name}: {pretty_type(p.type)}" for p in params) + ")"


def _dtr(d: Dtr) -> str:
    head = f"def {d.name}{_params(d.params)}: {pretty_type(d.ret)}"
    return head if d.body is None else head + " = " + pretty_expr(d.body)


def _clause(c: Clause) -> str:
    pat = "_" if c.pattern.is_wildcard else c.pattern.name + "(" + ", ".join(c.pattern.vars) + ")"
    return f"case {pat} => " + pretty_expr(c.body)


def _block(lines: list[str]) -> str:
    """``lines`` in braces, one indented line each; ``{}`` when there are none."""
    return "{\n" + "".join(f"  {line}\n" for line in lines) + "}" if lines else "{}"


def pretty_def(d: Def) -> str:
    match d:
        case Datatype(name):
            return f"data {name}"
        case Interface(name, dtrs):
            return f"interface {name} " + _block([_dtr(m) for m in dtrs])
        case Constructor(name, fields, parent):
            return f"case {name}{_params(fields)} extends {parent}"
        case Generator(name, fields, parent, funs):
            return f"class {name}{_params(fields)} implements {parent} " + _block([_dtr(m) for m in funs])
        case Consumer(name, self_type, params, ret, clauses):
            head = f"def {name}(self: {self_type}){_params(params)}: {pretty_type(ret)} = "
            return head + "match " + _block([_clause(c) for c in clauses])
    raise ValueError(f"unknown definition {type(d).__name__}")


def pretty(program: Program) -> str:
    """Render a whole program; rejects programs containing runtime objects."""
    return "\n".join([*map(pretty_def, program.defs), pretty_expr(program.main)]) + "\n"
