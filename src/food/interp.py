"""Call-by-value small-step semantics, run under fuel by two machines.

A step contracts the leftmost redex: receiver before arguments, arguments left
to right.  Boolean operators short-circuit, consuming one step; integers wrap
to 64 bits.  ``_contract`` holds every contraction rule, once, for both
machines.

The substituting machine, ``_machine``, is the semantics and the oracle:
``run`` (so ``trace`` and the fuzzer's typed run) and ``step`` use it.  A
method call substitutes its bindings into the body (``subst``).  The redex's
context is a stack of (parent node, hole slot) frames, so no depth of term
recurses.  After a contraction the machine refocuses from the contractum in
the same frames, not from the root (Danvy and Nielsen, "Refocusing in
Reduction Semantics", BRICS RS-04-26, 2004).  Plugging the focus into every
frame gives the state, at O(depth) per state.

``eval_program`` runs an environment machine, ``_eval``, derived from the
same reduction semantics as in Biernacka and Danvy, "A Concrete Framework
for Environment Machines", ACM TOCL 9(1), 2007; its target is the CEK
machine of Felleisen and Friedman (1986).  Code is evaluated in the
bindings of its method call, and frames on a list collect the values of
their slots, so nothing is substituted or plugged on the way to a value.  A
method body binds nothing, so a call's environment is exactly the mapping
the substituting machine substitutes, and code read back in its environment
is ``subst(code, env)``: the term the substituting machine holds.  That is
how ``Stuck.expr`` and ``FuelExhausted.last`` are built, once, at O(size).

Both machines dispatch on each node's exact class, as ``children`` does, and
look method bodies up once per context, in its body table.  Values are
expressions in value form (``IntLit``, ``BoolLit`` and ``Obj``), and ``Done``
carries the final value itself.  The nodes the machines build are ``@node``
classes, whose constructors write their slots directly (see ``syntax``).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .context import GlobalCtx, preprocess
from .pretty import pretty_expr
from .syntax import (
    App,
    BoolLit,
    children,
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
    subst,
    THIS,
    Var,
    with_children,
)

# ---------------------------------------------------------------------------
# Values and outcomes

# values are the value-form expressions; the names stay for callers
IntV, BoolV, ObjV = IntLit, BoolLit, Obj


@dataclass(frozen=True)
class Stepped:
    next: Expr


@dataclass(frozen=True)
class Done:
    value: Expr


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


def format_value(v: Expr) -> str:
    """The printed form of a value, such as ``obj(Insert, obj(Empty), 3)``, at any depth."""
    return pretty_expr(v, runtime=True)


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
# The contraction rules


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


# The machines test exact classes, most frequent first, as ``children`` does:
# class patterns cost about a microsecond more per node, isinstance less.
def _contract(e: Expr, vals: Sequence[Expr], ctx: GlobalCtx) -> Expr | tuple[Expr, dict[str, Expr] | None] | str:
    """What the redex e contracts to, given the values of its slots.

    vals starts with those values, numbered as by ``_refocus``: the receiver
    and then the arguments, or the operands, or the condition.  The answer is
    a value; or (code, mapping), the body of a call and its bindings, or
    (code, None), a subterm of e; or a str, why e is stuck.
    """
    cls = type(e)
    if cls is PrimOp:
        op, lhs = e.op, vals[0]
        if op in ("&&", "||"):
            if type(lhs) is not BoolLit:
                return f"{op} on a non-boolean"
            if op == "&&":
                return (e.rhs, None) if lhs.value else BoolLit(False)
            return BoolLit(True) if lhs.value else (e.rhs, None)
        rhs = vals[1]
        if type(lhs) is not IntLit or type(rhs) is not IntLit:
            return f"{op} on non-integers"
        if op in _ARITH:
            return IntLit(_wrap64(_ARITH[op](lhs.value, rhs.value)))
        if op in _COMPARE:
            return BoolLit(_COMPARE[op](lhs.value, rhs.value))
        return f"unknown operator {op!r}"
    if cls is If:
        if type(vals[0]) is not BoolLit:
            return "condition of if is not a boolean"
        return (e.then if vals[0].value else e.els), None
    if cls is Sel or cls is App:
        # one rule in the two decompositions: a destructor selected on an
        # object, or a consumer applied to one
        recv, f, oo = vals[0], e.name, cls is Sel
        if type(recv) is not Obj:
            call = f"selection of {f!r} on" if oo else f"consumer {f!r} applied to"
            return f"{call} a non-object"
        found = dtr_body(f, recv.name, ctx) if oo else csm_body(f, recv.name, ctx)
        if found is None:
            member = f"destructor {f!r} on" if oo else f"consumer {f!r} covers"
            return f"no {member} {recv.name}"
        bound, params, body = found
        mapping = _bind(bound, recv.args, params, vals[1:], (THIS if oo else SELF, recv))
        if mapping is None:
            call = f"invoking {f!r} on" if oo else f"applying {f!r} to"
            return f"arity mismatch {call} {recv.name}"
        return body, mapping
    if cls is CtrCall or cls is New:
        oo = cls is New
        if not isinstance(ctx.defs.get(e.name), Generator if oo else Constructor):
            return f"{e.name} is not a {'class' if oo else 'constructor'}"
        return Obj(e.name, tuple(vals))
    if cls is Var:
        return f"unbound variable {e.name!r}"
    return f"no rule applies to {type(e).__name__}"


# ---------------------------------------------------------------------------
# The substituting machine


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


def _machine(
    e: Expr, ctx: GlobalCtx, fuel: int
) -> Iterator[tuple[Expr, Frames, Expr | None] | Done | FuelExhausted | Stuck]:
    """Yield (focus, frames, contractum) for each state from e on, then the outcome.

    The focus is the state's redex, or its value at the end.  The contractum
    is what the last step contracted its redex to, None in the first state:
    the state was refocused from it in the same frames.  The frames change
    in place, so a caller plugs a state before asking for the next.
    A redex is contracted, and may be stuck, before the fuel is looked at.
    """
    frames: Frames = []
    e, out = _refocus(e, frames), None
    while True:
        yield e, frames, out
        if is_value(e):
            yield Done(e)
            return
        out = _contract(e, children(e), ctx)
        if type(out) is str:
            yield Stuck(out, e)
            return
        if fuel <= 0:
            yield FuelExhausted(_plug_all(e, frames))
            return
        fuel -= 1
        if type(out) is tuple:
            code, mapping = out
            out = code if mapping is None else subst(code, mapping)
        e = _refocus(out, frames)


def step(e: Expr, ctx: GlobalCtx) -> Stepped | Done | Stuck:
    """Reduce exactly one redex, or report the value / stuck state: the machine's first transition."""
    machine = _machine(e, ctx, 1)
    next(machine)
    out = next(machine)
    return Stepped(_plug_all(out[0], out[1])) if isinstance(out, tuple) else out


def run(e: Expr, ctx: GlobalCtx, fuel: int) -> Iterator[Expr | Done | FuelExhausted | Stuck]:
    """Yield each state from e on, then the outcome; at most fuel steps are taken."""
    for out in _machine(e, ctx, fuel):
        yield _plug_all(out[0], out[1]) if isinstance(out, tuple) else out


# ---------------------------------------------------------------------------
# The environment machine

# frames of the environment machine: (node, env, its slots, values of those evaluated)
EnvFrames = list[tuple[Expr, dict[str, Expr], tuple[Expr, ...], list[Expr]]]


def _read_back(node: Expr, env: dict[str, Expr], done: list[Expr]) -> Expr:
    """node as the substituting machine holds it: its first slots are done, the rest substituted."""
    kids = children(node)
    return with_children(node, (*done, *[subst(kid, env) for kid in kids[len(done) :]]))


def _eval(e: Expr, ctx: GlobalCtx, fuel: int) -> Done | FuelExhausted | Stuck:
    """The outcome of ``_machine`` from e, reached without substituting.

    Code is evaluated in an environment, the bindings of the method call
    whose body it is part of.  A compound term pushes a frame, which takes
    the values of its slots one by one, in ``_refocus`` order, and is
    contracted when it has them all.
    """
    frames: EnvFrames = []
    env: dict[str, Expr] = {}
    while True:
        # e in env: a compound term is pushed, a value goes to the top frame
        cls = type(e)
        if cls is Sel or cls is App:
            frames.append((e, env, (e.recv, *e.args), []))
        elif cls is PrimOp:
            frames.append((e, env, (e.lhs,) if e.op in ("&&", "||") else (e.lhs, e.rhs), []))
        elif cls is If:
            frames.append((e, env, (e.cond,), []))
        elif cls is CtrCall or cls is New:
            frames.append((e, env, e.args, []))
        else:
            if cls is Var:
                v = env.get(e.name)
                if v is None:
                    return Stuck(_contract(e, (), ctx), e)
                if type(v) not in _VALUE_FORMS:  # an unevaluated field of a hand-built object
                    e, env = v, {}
                    continue
            elif cls in _VALUE_FORMS:
                v = e
            else:
                return Stuck(_contract(e, (), ctx), e)
            if not frames:
                return Done(v)
            frames[-1][3].append(v)
        # the top frame takes its next slot, a value in place, or is
        # contracted; a value it contracts to goes to the frame below
        node, env, slots, vals = frames[-1]
        while True:
            k = len(vals)
            if k < len(slots):
                e = slots[k]
                cls = type(e)
                if cls is Var:
                    v = env.get(e.name)
                    if v is not None and type(v) in _VALUE_FORMS:
                        vals.append(v)
                        continue
                elif cls in _VALUE_FORMS:
                    vals.append(e)
                    continue
                break
            frames.pop()
            out = _contract(node, vals, ctx)
            if type(out) is str:
                return Stuck(out, _read_back(node, env, vals))
            if fuel <= 0:
                last = _read_back(node, env, vals)
                for node, env, _, vals in reversed(frames):
                    last = _read_back(node, env, [*vals, last])
                return FuelExhausted(last)
            fuel -= 1
            if type(out) is tuple:
                e, mapping = out
                if mapping is not None:
                    env = mapping
                break
            if not frames:
                return Done(out)
            node, env, slots, vals = frames[-1]
            vals.append(out)


def eval_program(
    program: Program, fuel: int = 100_000, ctx: GlobalCtx | None = None
) -> Done | FuelExhausted | Stuck:
    """The outcome of iterating the step relation on the main expression at most fuel times.

    The environment machine computes it: the contractions of ``run``, in
    the same order, each counted against the fuel.  ``Stuck.expr`` and
    ``FuelExhausted.last`` are read back into the states ``run`` ends on:
    an evaluated slot holds its value, as in the substituted term, and any
    other subterm is its code substituted with its environment, as the
    substituting machine's call put it there.
    """
    if ctx is None:
        ctx = preprocess(program)
    return _eval(program.main, ctx, fuel)


def trace(program: Program, fuel: int = 100_000, ctx: GlobalCtx | None = None) -> Trace:
    """The step sequence starting at the main expression, up to value or fuel."""
    if ctx is None:
        ctx = preprocess(program)
    *steps, outcome = run(program.main, ctx, fuel)
    return Trace(tuple(steps), outcome)
