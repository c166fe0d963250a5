"""The recursive one-step relation, kept as a test-only reference.

Each step searches from the root for the redex and rebuilds every node on the
way back up.  ``states`` iterates it with the fuel accounting of
``food.interp.run``, so tests can compare the refocusing machine against it
state by state.  It shares only body lookup, substitution and value
conversion with ``food.interp``; its binding and 64-bit wrapping are its own.
"""

from __future__ import annotations

from food.context import GlobalCtx
from food.interp import Done, FuelExhausted, Stepped, Stuck, csm_body, dtr_body, is_value, to_value
from food.syntax import (
    App,
    BoolLit,
    Constructor,
    CtrCall,
    Expr,
    Generator,
    If,
    IntLit,
    New,
    Obj,
    PrimOp,
    SELF,
    Sel,
    subst,
    THIS,
    Var,
)


def _wrap64(n: int) -> int:
    return (n + 2**63) % 2**64 - 2**63


def _step_args(args: tuple[Expr, ...], ctx: GlobalCtx) -> tuple[int, Stepped | Stuck | None]:
    """Step the leftmost non-value argument; index -1 when all are values."""
    for i, a in enumerate(args):
        if not is_value(a):
            return i, _step(a, ctx)
    return -1, None


def _bind(
    fields: tuple[str, ...],
    field_vals: tuple[Expr, ...],
    params: tuple[str, ...],
    args: tuple[Expr, ...],
    receiver: tuple[str, Expr],
) -> dict[str, Expr] | None:
    # defaults and wildcard clauses bind no fields, so an empty field list is
    # fine regardless of how many field values the object carries
    if fields and len(fields) != len(field_vals):
        return None
    if len(params) != len(args):
        return None
    mapping = {receiver[0]: receiver[1]}
    mapping.update(zip(fields, field_vals))
    mapping.update(zip(params, args))
    return mapping


def _step(e: Expr, ctx: GlobalCtx) -> Stepped | Stuck | None:
    """One reduction; None when e is already a value."""
    match e:
        case IntLit() | BoolLit() | Obj():
            return None
        case Var(name):
            return Stuck(f"unbound variable {name!r}", e)
        case CtrCall(c, args):
            i, sub = _step_args(args, ctx)
            if i >= 0:
                if isinstance(sub, Stuck):
                    return sub
                return Stepped(CtrCall(c, args[:i] + (sub.next,) + args[i + 1 :]))
            if not isinstance(ctx.defs.get(c), Constructor):
                return Stuck(f"{c} is not a constructor", e)
            return Stepped(Obj(c, args))
        case New(c, args):
            i, sub = _step_args(args, ctx)
            if i >= 0:
                if isinstance(sub, Stuck):
                    return sub
                return Stepped(New(c, args[:i] + (sub.next,) + args[i + 1 :]))
            if not isinstance(ctx.defs.get(c), Generator):
                return Stuck(f"{c} is not a class", e)
            return Stepped(Obj(c, args))
        case Sel(recv, f, args):
            if not is_value(recv):
                sub = _step(recv, ctx)
                if isinstance(sub, Stuck):
                    return sub
                return Stepped(Sel(sub.next, f, args))
            i, sub = _step_args(args, ctx)
            if i >= 0:
                if isinstance(sub, Stuck):
                    return sub
                return Stepped(Sel(recv, f, args[:i] + (sub.next,) + args[i + 1 :]))
            if not isinstance(recv, Obj):
                return Stuck(f"selection of {f!r} on a non-object", e)
            found = dtr_body(f, recv.name, ctx)
            if found is None:
                return Stuck(f"no destructor {f!r} on {recv.name}", e)
            fields, params, body = found
            mapping = _bind(fields, recv.args, params, args, (THIS, recv))
            if mapping is None:
                return Stuck(f"arity mismatch invoking {f!r} on {recv.name}", e)
            return Stepped(subst(body, mapping))
        case App(f, recv, args):
            if not is_value(recv):
                sub = _step(recv, ctx)
                if isinstance(sub, Stuck):
                    return sub
                return Stepped(App(f, sub.next, args))
            i, sub = _step_args(args, ctx)
            if i >= 0:
                if isinstance(sub, Stuck):
                    return sub
                return Stepped(App(f, recv, args[:i] + (sub.next,) + args[i + 1 :]))
            if not isinstance(recv, Obj):
                return Stuck(f"consumer {f!r} applied to a non-object", e)
            found = csm_body(f, recv.name, ctx)
            if found is None:
                return Stuck(f"no consumer {f!r} covers {recv.name}", e)
            pat_vars, params, body = found
            mapping = _bind(pat_vars, recv.args, params, args, (SELF, recv))
            if mapping is None:
                return Stuck(f"arity mismatch applying {f!r} to {recv.name}", e)
            return Stepped(subst(body, mapping))
        case PrimOp(op, lhs, rhs):
            if not is_value(lhs):
                sub = _step(lhs, ctx)
                if isinstance(sub, Stuck):
                    return sub
                return Stepped(PrimOp(op, sub.next, rhs))
            if op in ("&&", "||"):
                if not isinstance(lhs, BoolLit):
                    return Stuck(f"{op} on a non-boolean", e)
                if op == "&&":
                    return Stepped(rhs if lhs.value else BoolLit(False))
                return Stepped(BoolLit(True) if lhs.value else rhs)
            if not is_value(rhs):
                sub = _step(rhs, ctx)
                if isinstance(sub, Stuck):
                    return sub
                return Stepped(PrimOp(op, lhs, sub.next))
            if not isinstance(lhs, IntLit) or not isinstance(rhs, IntLit):
                return Stuck(f"{op} on non-integers", e)
            a, b = lhs.value, rhs.value
            match op:
                case "+":
                    return Stepped(IntLit(_wrap64(a + b)))
                case "-":
                    return Stepped(IntLit(_wrap64(a - b)))
                case "*":
                    return Stepped(IntLit(_wrap64(a * b)))
                case "==":
                    return Stepped(BoolLit(a == b))
                case "<=":
                    return Stepped(BoolLit(a <= b))
                case "<":
                    return Stepped(BoolLit(a < b))
            return Stuck(f"unknown operator {op!r}", e)
        case If(cond, then, els):
            if not is_value(cond):
                sub = _step(cond, ctx)
                if isinstance(sub, Stuck):
                    return sub
                return Stepped(If(sub.next, then, els))
            if not isinstance(cond, BoolLit):
                return Stuck("condition of if is not a boolean", e)
            return Stepped(then if cond.value else els)
    return Stuck(f"no rule applies to {e!r}", e)


def states(e: Expr, ctx: GlobalCtx, fuel: int):
    """Yield each state from e on, then the outcome; at most fuel steps are taken."""
    while True:
        yield e
        out = _step(e, ctx)
        if out is None:
            yield Done(to_value(e))
            return
        if isinstance(out, Stuck):
            yield out
            return
        if fuel <= 0:
            yield FuelExhausted(e)
            return
        fuel -= 1
        e = out.next
