"""The recursive printer, typer and node repr, kept as test-only references.

``pretty_expr`` (with ``_level`` and ``_expr``) and ``transform_expr`` (with
``_expect`` and ``_check_args``) are copies of the code ``food`` used before
both became loops on an explicit stack (the printer a pre-order one, the
typer ``food.transform.type_count``), the printer without the option
that made it reject runtime objects, which it prints as ``obj(C, args)``;
``node_repr`` gives the text of the ``repr`` node classes shared before it
took an explicit stack.
All take one Python frame per nesting level, so they raise ``RecursionError``
a few hundred levels deep.
Each raises its error where it meets it, so tests can check that the loop's
carried errors come out in the same order, with the same text.  Error
messages here print through this module's own ``pretty_expr``.
"""

from __future__ import annotations

import dataclasses

from food.context import GlobalCtx, TypeEnv
from food.diagnostics import Diagnostic, TransformError
from food.pretty import pretty_type
from food.syntax import (
    _COMPARED,
    App,
    Arrow,
    BOOL,
    BoolLit,
    Constructor,
    CtrCall,
    Expr,
    Generator,
    If,
    INT,
    IntLit,
    Named,
    New,
    Obj,
    PrimOp,
    Sel,
    Type,
    Var,
)

def node_repr(x) -> str:
    """The node ``repr`` that formatted each shown field with ``!r``: the dataclass repr, recursing into nodes."""
    if type(x) is tuple:
        return "(" + ", ".join(map(node_repr, x)) + ("," if len(x) == 1 else "") + ")"
    if type(x) in _COMPARED:
        shown = ", ".join(f"{f.name}={node_repr(getattr(x, f.name))}" for f in dataclasses.fields(x) if f.repr)
        return f"{type(x).__qualname__}({shown})"
    return repr(x)


# Precedence levels, loosest first.  A child is parenthesized whenever its
# level is below the minimum its position demands.
_IF = 0
_PREC = {"||": 1, "&&": 2, "==": 3, "<=": 3, "<": 3, "+": 4, "-": 4, "*": 5}
_POSTFIX = 6


def _level(e: Expr) -> int:
    match e:
        case If():
            return _IF
        case PrimOp(op, _, _):
            return _PREC[op]
        case _:
            return _POSTFIX


def pretty_expr(e: Expr, min_prec: int = 0) -> str:
    """Render one expression; a runtime object prints as obj(...)."""
    text = _expr(e)
    if _level(e) < min_prec:
        return "(" + text + ")"
    return text


def _args(args: tuple[Expr, ...]) -> str:
    return "(" + ", ".join(map(pretty_expr, args)) + ")"


def _expr(e: Expr) -> str:
    match e:
        case Var(name):
            return name
        case IntLit(v):
            return str(v)
        case BoolLit(v):
            return "true" if v else "false"
        case Sel(recv, name, args):
            return pretty_expr(recv, _POSTFIX) + "." + name + _args(args)
        case App(name, recv, args):
            head = name + "(" + pretty_expr(recv) + ")"
            return head + (_args(args) if args else "")
        case CtrCall(name, args):
            return name + _args(args)
        case New(name, args):
            return "new " + name + _args(args)
        case Obj(name, args):
            return "obj(" + ", ".join([name, *map(pretty_expr, args)]) + ")"
        case PrimOp(op, lhs, rhs):
            prec = _PREC[op]
            return pretty_expr(lhs, prec) + f" {op} " + pretty_expr(rhs, prec + 1)
        case If(cond, then, els):
            return "if (" + pretty_expr(cond) + ") " + pretty_expr(then) + " else " + pretty_expr(els)
    raise ValueError(f"unknown expression: {e!r}")


_ARITH = {"+", "-", "*"}
_CMP = {"==", "<=", "<"}
_LOGIC = {"&&", "||"}


def _err(message: str, pos: tuple[int, int] | None = None) -> TransformError:
    line, col = pos or (0, 0)
    return TransformError([Diagnostic(message, line, col)])


def transform_expr(e: Expr, ctx: GlobalCtx, env: TypeEnv) -> tuple[Expr, Type]:
    """Translate one expression, returning its rewritten form and type."""
    match e:
        case Var(name):
            if name not in env:
                raise _err(f"unbound variable {name!r}")
            return e, env[name]
        case IntLit():
            return e, INT
        case BoolLit():
            return e, BOOL
        case PrimOp(op, lhs, rhs):
            want = INT if op in _ARITH or op in _CMP else BOOL
            lhs2 = _expect(lhs, want, ctx, env)
            rhs2 = _expect(rhs, want, ctx, env)
            return PrimOp(op, lhs2, rhs2), (INT if op in _ARITH else BOOL)
        case If(cond, then, els):
            cond2 = _expect(cond, BOOL, ctx, env)
            then2, t1 = transform_expr(then, ctx, env)
            els2, t2 = transform_expr(els, ctx, env)
            if t1 is not t2 and t1 != t2:
                raise _err(
                    f"branches of {pretty_expr(e)} have different types "
                    f"{pretty_type(t1)} and {pretty_type(t2)}"
                )
            return If(cond2, then2, els2), t1
        case Sel(recv, f, args) | App(f, recv, args):
            # one rule for both decompositions: a destructor selected, or a consumer applied
            oo = isinstance(e, Sel)
            recv2, rt = transform_expr(recv, ctx, env)
            if not isinstance(rt, Named):
                call = f"select {f!r} on" if oo else f"apply consumer {f!r} to"
                raise _err(f"cannot {call} a value of type {pretty_type(rt)}")
            sig = (ctx.dtr_sig if oo else ctx.sig).get((f, rt.name))
            if sig is None:
                raise _err(f"type {rt.name} has no {'destructor' if oo else 'consumer'} {f!r}")
            if not oo:  # a consumer's signature is D -> (T...) -> T
                sig = sig.ret
                assert isinstance(sig, Arrow)
            args2 = _check_args(e, args, sig.params, ctx, env)
            flip = f in (ctx.dtr if oo else ctx.csm).get(rt.name, ())
            if oo != flip:  # a selection kept, or App2Sel
                return Sel(recv2, f, args2), sig.ret
            return App(f, recv2, args2), sig.ret  # an application kept, or Sel2App
        case CtrCall(c, args) | New(c, args):
            oo = isinstance(e, New)
            sig = ctx.sig.get(c)
            if sig is None or not isinstance(ctx.defs.get(c), Generator if oo else Constructor):
                raise _err(f"{c} is not a {'class' if oo else 'constructor'}")
            args2 = _check_args(e, args, sig.params, ctx, env)
            parent = sig.ret
            assert isinstance(parent, Named)
            flip = c in (ctx.gen if oo else ctx.ctr).get(parent.name, ())
            if oo != flip:  # an instantiation kept, or Obj2New
                return New(c, args2), parent
            return CtrCall(c, args2), parent  # a constructor call kept, or New2Obj
        case Obj(c, values):
            # runtime objects appear only when typing evaluation traces; they
            # are values shared by both styles and are never rewritten
            sig = ctx.sig.get(c)
            if sig is None:
                raise _err(f"object tag {c} has no signature")
            _check_args(e, values, sig.params, ctx, env)
            parent = sig.ret
            assert isinstance(parent, Named)
            return e, parent
    raise _err(f"unknown expression form {e!r}")


def _expect(e: Expr, want: Type, ctx: GlobalCtx, env: TypeEnv) -> Expr:
    e2, got = transform_expr(e, ctx, env)
    # INT and BOOL are shared instances, so identity settles most checks
    # before the dataclass __eq__ is called
    if got is not want and got != want:
        raise _err(
            f"{pretty_expr(e)} has type {pretty_type(got)}, expected {pretty_type(want)}"
        )
    return e2


def _check_args(
    call: Expr, args: tuple[Expr, ...], params: tuple[Type, ...], ctx: GlobalCtx, env: TypeEnv
) -> tuple[Expr, ...]:
    if len(args) != len(params):
        raise _err(
            f"{pretty_expr(call)} takes {len(params)} argument(s), got {len(args)}"
        )
    return tuple(_expect(a, p, ctx, env) for a, p in zip(args, params))
