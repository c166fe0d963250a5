"""The recursive one-step relation, kept as a test-only reference.

Each step searches from the root for the redex and rebuilds every node on the
way back up.  ``states`` iterates it with the fuel accounting of
``food.interp.run``, so tests can compare the refocusing machine against it
state by state.  Its substitution, body lookup, value test, binding and
64-bit wrapping are its own: copies of the ``match``-based ``subst``, the
table-less ``dtr_body`` / ``csm_body`` and the ``isinstance``-based
``is_value`` that ``food`` used before it dispatched on exact types and kept a
body table per context, so a fault in those fast paths cannot hide in the
oracle.  It shares only the outcome classes with ``food.interp``.

``typed_run`` is the fuzzer's typed run as it was before it closed cycles: it
follows ``food.interp.run`` until the fuel runs out, typing each distinct
state once, so tests can check that the fuzzer's early return at the first
repeated state gives the same outcome and failure detail.
"""

from __future__ import annotations

from food.context import GlobalCtx, restrict
from food.diagnostics import FoodError
from food.interp import Done, FuelExhausted, Stepped, Stuck, run
from food.pretty import pretty_type
from food.transform import transform_expr
from food.syntax import (
    App,
    BoolLit,
    Constructor,
    Consumer,
    CtrCall,
    Expr,
    Generator,
    If,
    IntLit,
    Interface,
    New,
    Obj,
    PrimOp,
    Program,
    SELF,
    Sel,
    THIS,
    Type,
    Var,
)


def subst(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Simultaneous variable substitution.

    FOOD expressions contain no binders, so no capture is possible.
    """
    if not mapping:
        return e
    match e:
        case Var(name):
            return mapping.get(name, e)
        case Sel(recv, name, args):
            return Sel(subst(recv, mapping), name, tuple(subst(a, mapping) for a in args))
        case App(name, recv, args):
            return App(name, subst(recv, mapping), tuple(subst(a, mapping) for a in args))
        case CtrCall(name, args):
            return CtrCall(name, tuple(subst(a, mapping) for a in args))
        case New(name, args):
            return New(name, tuple(subst(a, mapping) for a in args))
        case PrimOp(op, lhs, rhs):
            return PrimOp(op, subst(lhs, mapping), subst(rhs, mapping))
        case If(cond, then, els):
            return If(subst(cond, mapping), subst(then, mapping), subst(els, mapping))
        case _:
            return e  # literals and runtime objects


_VALUE_FORMS = (IntLit, BoolLit, Obj)


def is_value(e: Expr) -> bool:
    return isinstance(e, _VALUE_FORMS)


def dtr_body(f: str, c: str, ctx: GlobalCtx) -> tuple[tuple[str, ...], tuple[str, ...], Expr] | None:
    """Field names, parameter names, and body for destructor f on class C.

    The class's own definition wins; otherwise the interface default applies
    with no fields in scope.  None when neither exists.
    """
    g = ctx.defs.get(c)
    if not isinstance(g, Generator):
        return None
    for fun in g.funs:
        if fun.name == f and fun.body is not None:
            return tuple(p.name for p in g.fields), tuple(p.name for p in fun.params), fun.body
    parent = ctx.defs.get(g.parent)
    if isinstance(parent, Interface):
        for m in parent.dtrs:
            if m.name == f and m.body is not None:
                return (), tuple(p.name for p in m.params), m.body
    return None


def csm_body(f: str, c: str, ctx: GlobalCtx) -> tuple[tuple[str, ...], tuple[str, ...], Expr] | None:
    """Pattern variables, parameter names, and body for consumer f on constructor C.

    A clause naming C wins; otherwise the wildcard clause applies with no
    pattern variables.  None when neither exists.
    """
    ctor = ctx.defs.get(c)
    if not isinstance(ctor, Constructor):
        return None
    consumer = ctx.defs.get((f, ctor.parent))
    if not isinstance(consumer, Consumer):
        return None
    params = tuple(p.name for p in consumer.params)
    clause = consumer.clause_for(c)
    if clause is not None:
        return clause.pattern.vars, params, clause.body
    wild = consumer.wildcard_clause()
    if wild is not None:
        return (), params, wild.body
    return None


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
    return Stuck(f"no rule applies to {type(e).__name__}", e)


def states(e: Expr, ctx: GlobalCtx, fuel: int):
    """Yield each state from e on, then the outcome; at most fuel steps are taken."""
    while True:
        yield e
        out = _step(e, ctx)
        if out is None:
            yield Done(e)
            return
        if isinstance(out, Stuck):
            yield out
            return
        if fuel <= 0:
            yield FuelExhausted(e)
            return
        fuel -= 1
        e = out.next


def typed_run(program: Program, ctx: GlobalCtx, fuel: int):
    """Evaluate the main expression, typing every reached expression.

    Returns (outcome, type_failure_detail).  Types are memoized per
    expression, so looping programs pay for each distinct state once.
    """
    tctx = restrict(ctx, frozenset())
    cache: dict[Expr, Type] = {}

    def type_of(e: Expr) -> Type:
        t = cache.get(e)
        if t is None:
            t = transform_expr(e, tctx, {})[1]
            cache[e] = t
        return t

    e = program.main
    try:
        expected = type_of(e)
    except FoodError as exc:
        return None, f"main expression does not type: {exc}"
    for state in run(e, ctx, fuel):
        if not isinstance(state, Expr):
            return state, None
        try:
            t = type_of(state)
        except FoodError as exc:
            return None, f"step result fails to type: {exc}"
        if t != expected:
            return None, (
                f"type changed from {pretty_type(expected)} to {pretty_type(t)} "
                "during evaluation"
            )
