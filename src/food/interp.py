"""Call-by-value small-step semantics, run by a refocusing machine under fuel.

A step contracts the leftmost redex: receiver before arguments, arguments left
to right.  Boolean operators short-circuit, consuming one step; integers wrap
to 64 bits.  The redex's context is a stack of (parent node, hole slot)
frames, so no depth of term recurses.  After a contraction the machine
refocuses from the contractum in the same frames, not from the root (Danvy
and Nielsen, "Refocusing in Reduction Semantics", BRICS RS-04-26, 2004).
Plugging the focus into every frame gives the state, at O(depth) per state:
``run`` (so ``trace`` and the fuzzer's typed run) and ``step`` pay it, while
``eval_program`` drains the same machine and plugs only ``FuelExhausted.last``.
The machine, like ``subst``, dispatches on each node's exact class, and
method bodies are looked up once per context, in its body table.  A final
value is converted by one rule per form over ``syntax.fold``.  The nodes
and values it builds are ``@node`` classes, whose constructors write their
slots directly (see ``syntax``).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator

from .context import GlobalCtx, preprocess
from .syntax import (
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
    node,
    Obj,
    PrimOp,
    Program,
    SELF,
    Sel,
    subst,
    THIS,
    Var,
    fold,
)

# ---------------------------------------------------------------------------
# Values and outcomes


class Value:
    """A fully evaluated result."""

    __slots__ = ()


@node
class IntV(Value):
    value: int


@node
class BoolV(Value):
    value: bool


@node
class ObjV(Value):
    name: str
    fields: tuple[Value, ...]


@dataclass(frozen=True)
class Stepped:
    next: Expr


@dataclass(frozen=True)
class Done:
    value: Value


@dataclass(frozen=True)
class Stuck:
    reason: str
    expr: Expr | None = None


@dataclass(frozen=True)
class FuelExhausted:
    last: Expr


@dataclass(frozen=True)
class Trace:
    steps: tuple[Expr, ...]
    outcome: Done | FuelExhausted | Stuck


_VALUE_FORMS = frozenset((IntLit, BoolLit, Obj))


def is_value(e: Expr) -> bool:
    return type(e) in _VALUE_FORMS


def to_value(e: Expr) -> Value:
    """The value an evaluated expression denotes, at any depth."""
    return fold(e, _value)


def _value(e: Expr, fields: list[Value]) -> Value:
    cls = type(e)
    if cls is Obj:
        return ObjV(e.name, tuple(fields))
    if cls is IntLit or cls is BoolLit:
        return (IntV if cls is IntLit else BoolV)(e.value)
    raise ValueError(f"not a value form: {e!r}")


def format_value(v: Value) -> str:
    """The printed form of a value, such as ``obj(Insert, obj(Empty), 3)``, at any depth."""
    parts: list[str] = []
    todo: list[Value | str] = [v]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            parts.append(x)
        elif isinstance(x, IntV):
            parts.append(str(x.value))
        elif isinstance(x, BoolV):
            parts.append("true" if x.value else "false")
        elif isinstance(x, ObjV):
            parts.append("obj(" + x.name)
            todo.append(")")
            for f in reversed(x.fields):
                todo += (f, ", ")
        else:
            raise ValueError(f"not a value: {x!r}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Body lookup


_MISSING = object()  # a lookup that found nothing is tabled as None


def _tabled(lookup):
    """lookup answered from the context's body table, which it fills on first use."""

    @functools.wraps(lookup)
    def tabled(f: str, c: str, ctx: GlobalCtx):
        key = (f, c, lookup)
        found = ctx.bodies.get(key, _MISSING)
        if found is _MISSING:
            found = ctx.bodies[key] = lookup(f, c, ctx)
        return found

    return tabled


@_tabled
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


@_tabled
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


# ---------------------------------------------------------------------------
# The refocusing machine


def _wrap64(n: int) -> int:
    return (n + 2**63) % 2**64 - 2**63


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


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"==": operator.eq, "<=": operator.le, "<": operator.lt}


# The machine tests exact classes, most frequent first, as ``subst`` does:
# class patterns cost about a microsecond more per node, isinstance less.
def _contract(e: Expr, ctx: GlobalCtx) -> Expr | Stuck:
    """The contractum of the redex e, or why e is stuck."""
    cls = type(e)
    if cls is PrimOp:
        op, lhs, rhs = e.op, e.lhs, e.rhs
        if op in ("&&", "||"):
            if type(lhs) is not BoolLit:
                return Stuck(f"{op} on a non-boolean", e)
            if op == "&&":
                return rhs if lhs.value else BoolLit(False)
            return BoolLit(True) if lhs.value else rhs
        if type(lhs) is not IntLit or type(rhs) is not IntLit:
            return Stuck(f"{op} on non-integers", e)
        if op in _ARITH:
            return IntLit(_wrap64(_ARITH[op](lhs.value, rhs.value)))
        if op in _COMPARE:
            return BoolLit(_COMPARE[op](lhs.value, rhs.value))
        return Stuck(f"unknown operator {op!r}", e)
    if cls is If:
        if type(e.cond) is not BoolLit:
            return Stuck("condition of if is not a boolean", e)
        return e.then if e.cond.value else e.els
    if cls is Sel or cls is App:
        # one rule in the two decompositions: a destructor selected on an
        # object, or a consumer applied to one
        recv, f, oo = e.recv, e.name, cls is Sel
        if type(recv) is not Obj:
            call = f"selection of {f!r} on" if oo else f"consumer {f!r} applied to"
            return Stuck(f"{call} a non-object", e)
        found = dtr_body(f, recv.name, ctx) if oo else csm_body(f, recv.name, ctx)
        if found is None:
            member = f"destructor {f!r} on" if oo else f"consumer {f!r} covers"
            return Stuck(f"no {member} {recv.name}", e)
        bound, params, body = found
        mapping = _bind(bound, recv.args, params, e.args, (THIS if oo else SELF, recv))
        if mapping is None:
            call = f"invoking {f!r} on" if oo else f"applying {f!r} to"
            return Stuck(f"arity mismatch {call} {recv.name}", e)
        return subst(body, mapping)
    if cls is CtrCall or cls is New:
        oo = cls is New
        if not isinstance(ctx.defs.get(e.name), Generator if oo else Constructor):
            return Stuck(f"{e.name} is not a {'class' if oo else 'constructor'}", e)
        return Obj(e.name, e.args)
    if cls is Var:
        return Stuck(f"unbound variable {e.name!r}", e)
    return Stuck(f"no rule applies to {e!r}", e)


def _plug(node: Expr, slot: int, v: Expr) -> Expr:
    """node with v in its hole at slot, numbered as by _refocus."""
    cls = type(node)
    if cls is PrimOp:
        return PrimOp(node.op, v, node.rhs) if slot == 0 else PrimOp(node.op, node.lhs, v)
    if cls is If:
        return If(v, node.then, node.els)
    if cls is Sel or cls is App:
        recv = v if slot == 0 else node.recv
        args = node.args if slot == 0 else node.args[: slot - 1] + (v,) + node.args[slot:]
        return Sel(recv, node.name, args) if cls is Sel else App(node.name, recv, args)
    return cls(node.name, node.args[:slot] + (v,) + node.args[slot + 1 :])  # CtrCall or New


Frames = list[tuple[Expr, int]]


def _plug_all(e: Expr, frames: Frames) -> Expr:
    """The whole term: e plugged into every frame, innermost first."""
    for node, slot in reversed(frames):
        e = _plug(node, slot, e)
    return e


def _refocus(e: Expr, frames: Frames) -> Expr:
    """The next redex from e on, with frames updated to its context; or the final value.

    A value in focus is plugged into the top frame, whose node is searched
    again.  A node's slots number its subterms in evaluation order: receiver,
    then arguments.  The right operand of && and || is no slot, as it belongs
    to the contractum.  A descent to the first non-value slot pushes a frame.
    """
    while True:
        cls = type(e)
        if cls in _VALUE_FORMS:
            if not frames:
                return e
            node, slot = frames.pop()
            e = _plug(node, slot, e)
            cls = type(e)
        if cls is PrimOp:
            slot = 1 if e.op not in ("&&", "||") and type(e.lhs) in _VALUE_FORMS else 0
            sub = e.rhs if slot else e.lhs
        elif cls is If:
            slot, sub = 0, e.cond
        elif cls is Sel or cls is App:
            slot, sub = 0, e.recv
            if type(sub) in _VALUE_FORMS:
                for slot, sub in enumerate(e.args, 1):
                    if type(sub) not in _VALUE_FORMS:
                        break
        elif cls is CtrCall or cls is New:
            for slot, sub in enumerate(e.args):
                if type(sub) not in _VALUE_FORMS:
                    break
            else:
                return e
        else:
            return e
        if type(sub) in _VALUE_FORMS:
            return e
        frames.append((e, slot))
        e = sub


def _machine(e: Expr, ctx: GlobalCtx, fuel: int) -> Iterator[tuple[Expr, Frames] | Done | FuelExhausted | Stuck]:
    """Yield (focus, frames) for each state from e on, then the outcome.

    The focus is the state's redex, or its value at the end.  The frames
    change in place, so a caller plugs a state before asking for the next.
    A redex is contracted, and may be stuck, before the fuel is looked at.
    """
    frames: Frames = []
    e = _refocus(e, frames)
    while True:
        yield e, frames
        if is_value(e):
            yield Done(to_value(e))
            return
        out = _contract(e, ctx)
        if isinstance(out, Stuck):
            yield out
            return
        if fuel <= 0:
            yield FuelExhausted(_plug_all(e, frames))
            return
        fuel -= 1
        e = _refocus(out, frames)


def step(e: Expr, ctx: GlobalCtx) -> Stepped | Done | Stuck:
    """Reduce exactly one redex, or report the value / stuck state: the machine's first transition."""
    machine = _machine(e, ctx, 1)
    next(machine)
    out = next(machine)
    return Stepped(_plug_all(*out)) if isinstance(out, tuple) else out


def run(e: Expr, ctx: GlobalCtx, fuel: int) -> Iterator[Expr | Done | FuelExhausted | Stuck]:
    """Yield each state from e on, then the outcome; at most fuel steps are taken."""
    for out in _machine(e, ctx, fuel):
        yield _plug_all(*out) if isinstance(out, tuple) else out


def eval_program(
    program: Program, fuel: int = 100_000, ctx: GlobalCtx | None = None
) -> Done | FuelExhausted | Stuck:
    """Iterate the step relation on the main expression at most fuel times."""
    if ctx is None:
        ctx = preprocess(program)
    for out in _machine(program.main, ctx, fuel):
        pass
    return out


def trace(program: Program, fuel: int = 100_000, ctx: GlobalCtx | None = None) -> Trace:
    """The step sequence starting at the main expression, up to value or fuel."""
    if ctx is None:
        ctx = preprocess(program)
    *steps, outcome = run(program.main, ctx, fuel)
    return Trace(tuple(steps), outcome)
