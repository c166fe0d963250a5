"""Pretty-printing of FOOD programs back to concrete syntax.

``parse(pretty(p))`` is structurally equal to ``p`` for every program that
``wellformed.check`` accepts, which alone rejects runtime objects and operators
outside ``syntax.OPERATORS`` and reads every declared name as the parser does.
Every expression prints, at any depth, a runtime object as ``obj(C, args)`` and
any operator with its own text, which ``parse`` rejects, in one pre-order pass
over nodes and text; a binary operation places its operands, in parentheses
where their level is below their place's, inline, with operator text from a table.
"""

from __future__ import annotations

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
    RESERVED_TYPES,
    Sel,
    Type,
    Var,
)

# Precedence levels, loosest first, with the binary operators' ``PREC``
# between them.  A child is parenthesized whenever its level is below the
# minimum its position demands.
_IF = 0
_POSTFIX = 6
# each binary operator's text between its operands
_SPACED = {op: f" {op} " for op in PREC}
# the type names syntax reserves, by the class of the type each names
_RESERVED = {type(t): name for name, t in RESERVED_TYPES.items()}


def pretty_type(t: Type) -> str:
    match t:
        case Named(name):
            return name
        case IntT() | BoolT():
            return _RESERVED[type(t)]
        case Arrow(params, ret):
            return "(" + ", ".join(pretty_type(p) for p in params) + ") -> " + pretty_type(ret)
    raise ValueError(f"unknown type {type(t).__name__}")


def pretty_expr(e: Expr) -> str:
    """Render one expression; a runtime object prints as ``obj(C, args)``."""
    out, todo = [], [e]
    push = todo.append
    while todo:  # in pre-order: a string is output, a node pushes its pieces last first
        x = todo.pop()
        cls = type(x)
        if cls is str:
            out.append(x)
        elif cls is Var:
            out.append(x.name)
        elif cls is IntLit:
            out.append(str(x.value))
        elif cls is PrimOp:  # an operand is parenthesized when its level is below its place's
            op = x.op
            prec = PREC.get(op, _IF)  # an operator outside the table: the loosest level, and its own text
            kid = x.rhs
            kind = type(kid)
            level = PREC.get(kid.op, _IF) if kind is PrimOp else _IF if kind is If else _POSTFIX
            todo += (")", kid, "(") if level <= prec else (kid,)
            push(_SPACED.get(op) or f" {op} ")
            kid = x.lhs
            kind = type(kid)
            level = PREC.get(kid.op, _IF) if kind is PrimOp else _IF if kind is If else _POSTFIX
            todo += (")", kid, "(") if level < prec else (kid,)
        elif cls is Sel:
            _args(todo, x.args)
            push("." + x.name)
            kind = type(x.recv)  # only a binary operation or an if is below a postfix level
            todo += (")", x.recv, "(") if kind is PrimOp or kind is If else (x.recv,)
        elif cls is App:
            if x.args:
                _args(todo, x.args)
            todo += (")", x.recv, x.name + "(")
        elif cls is CtrCall:
            _args(todo, x.args)
            push(x.name)
        elif cls is New:
            _args(todo, x.args)
            push("new " + x.name)
        elif cls is BoolLit:
            out.append("true" if x.value else "false")
        elif cls is If:
            todo += (x.els, " else ", x.then, ") ", x.cond, "if (")
        elif cls is Obj:
            push(")")
            for a in reversed(x.args):
                todo += (a, ", ")
            push("obj(" + x.name)
        else:
            raise ValueError(f"unknown expression {cls.__name__}")
    return "".join(out)


def _args(todo: list, args: tuple[Expr, ...]) -> None:
    """Push ``(a, b, …)``, last piece first."""
    if len(args) == 1:
        todo += (")", args[0], "(")
    else:
        pieces = [piece for a in reversed(args) for piece in (a, ", ")]
        todo += (")", *pieces[:-1], "(")


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
    """Render a whole program; a runtime object or an unknown operator prints as text ``parse`` rejects."""
    return "\n".join([*map(pretty_def, program.defs), pretty_expr(program.main)]) + "\n"
